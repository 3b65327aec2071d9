// The central correctness suite: the serial miner,
// after maximality postprocessing, must report exactly the same maximal
// quasi-clique set as the exhaustive oracle -- across random graphs, gammas,
// size thresholds, and every pruning-rule ablation (pruning rules must
// never change the answer, only the work).

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "graph/generators.h"
#include "quick/maximality_filter.h"
#include "quick/naive_enum.h"
#include "quick/quasi_clique.h"
#include "quick/serial_miner.h"

namespace qcm {
namespace {

std::vector<VertexSet> MineMaximal(const Graph& g,
                                   const MiningOptions& opts) {
  VectorSink sink;
  SerialMiner miner(opts);
  auto report = miner.Run(g, &sink);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return FilterMaximal(std::move(sink.results()));
}

std::vector<VertexSet> Oracle(const Graph& g, double gamma,
                              uint32_t min_size) {
  auto result = NaiveMaximalQuasiCliques(g, gamma, min_size);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(SerialMinerTest, PaperFigure4) {
  Graph g = PaperFigure4Graph();
  MiningOptions opts;
  opts.gamma = 0.6;
  opts.min_size = 4;
  auto mined = MineMaximal(g, opts);
  EXPECT_EQ(mined, Oracle(g, 0.6, 4));
  // {a,b,c,d,e} is a result.
  bool found = false;
  for (const auto& s : mined) {
    if (s == VertexSet{0, 1, 2, 3, 4}) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(SerialMinerTest, CliqueFoundWhole) {
  std::vector<Edge> edges;
  for (uint32_t i = 0; i < 8; ++i) {
    for (uint32_t j = i + 1; j < 8; ++j) edges.emplace_back(i, j);
  }
  auto g = std::move(Graph::FromEdges(8, std::move(edges))).value();
  MiningOptions opts;
  opts.gamma = 1.0;
  opts.min_size = 3;
  auto mined = MineMaximal(g, opts);
  ASSERT_EQ(mined.size(), 1u);
  EXPECT_EQ(mined[0].size(), 8u);
}

TEST(SerialMinerTest, EmptyWhenThresholdTooHigh) {
  auto g = std::move(GenErdosRenyi(30, 60, 3)).value();
  MiningOptions opts;
  opts.gamma = 0.95;
  opts.min_size = 15;
  auto mined = MineMaximal(g, opts);
  EXPECT_TRUE(mined.empty());
}

TEST(SerialMinerTest, RejectsInvalidOptions) {
  auto g = std::move(GenErdosRenyi(10, 20, 1)).value();
  MiningOptions opts;
  opts.gamma = 0.3;
  VectorSink sink;
  SerialMiner miner(opts);
  EXPECT_FALSE(miner.Run(g, &sink).ok());
}

TEST(SerialMinerTest, ReportCountsWork) {
  auto g = std::move(GenPlantedCommunities({.num_vertices = 200,
                                            .num_communities = 4,
                                            .community_min = 8,
                                            .community_max = 10,
                                            .intra_density = 1.0,
                                            .seed = 2}))
               .value();
  MiningOptions opts;
  opts.gamma = 0.9;
  opts.min_size = 6;
  VectorSink sink;
  SerialMiner miner(opts);
  auto report = miner.Run(g, &sink);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->roots_processed, 0u);
  EXPECT_GT(report->stats.nodes_explored, 0u);
  EXPECT_GT(report->stats.emitted, 0u);
  EXPECT_GT(report->kcore_size, 0u);
  EXPECT_LE(report->kcore_size, g.NumVertices());
}

// ---- Property suite: serial miner == oracle over a parameter sweep ----

struct SweepParam {
  uint64_t seed;
  uint32_t n;
  uint64_t m;
  double gamma;
  uint32_t min_size;
};

class MinerOracleSweep : public testing::TestWithParam<SweepParam> {};

// Both kernel families: every task here is below the default dense
// threshold, so 0 is what sends them through the sparse kernels.
TEST_P(MinerOracleSweep, MatchesOracle) {
  const SweepParam& p = GetParam();
  auto g = std::move(GenErdosRenyi(p.n, p.m, p.seed)).value();
  auto oracle = Oracle(g, p.gamma, p.min_size);
  for (const int64_t dense_threshold : {int64_t{0}, int64_t{4096}}) {
    MiningOptions opts;
    opts.gamma = p.gamma;
    opts.min_size = p.min_size;
    opts.dense_threshold = dense_threshold;
    auto mined = MineMaximal(g, opts);
    EXPECT_EQ(mined, oracle) << "seed=" << p.seed << " n=" << p.n
                             << " m=" << p.m << " gamma=" << p.gamma
                             << " min_size=" << p.min_size
                             << " dense_threshold=" << dense_threshold;
  }
}

std::vector<SweepParam> MakeSweep() {
  std::vector<SweepParam> params;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    for (double gamma : {0.5, 0.6, 0.75, 0.9, 1.0}) {
      for (uint32_t min_size : {2u, 3u, 5u}) {
        params.push_back({seed, 12, 36, gamma, min_size});
      }
    }
  }
  // A few denser/sparser shapes.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    params.push_back({seed, 14, 70, 0.8, 4});
    params.push_back({seed, 10, 15, 0.6, 3});
    params.push_back({seed, 16, 40, 0.9, 3});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, MinerOracleSweep,
                         testing::ValuesIn(MakeSweep()));

// ---- Pruning ablation: toggles must not change the answer ----

class PruningAblation : public testing::TestWithParam<int> {};

TEST_P(PruningAblation, TogglesPreserveResults) {
  const int toggle = GetParam();
  auto g = std::move(GenErdosRenyi(13, 45, 77)).value();
  MiningOptions base;
  base.gamma = 0.7;
  base.min_size = 3;
  auto expected = Oracle(g, base.gamma, base.min_size);

  MiningOptions opts = base;
  switch (toggle) {
    case 0:
      opts.use_cover_vertex = false;
      break;
    case 1:
      opts.use_critical_vertex = false;
      break;
    case 2:
      opts.use_upper_bound = false;
      break;
    case 3:
      opts.use_lower_bound = false;
      break;
    case 4:
      opts.use_degree_pruning = false;
      break;
    case 5:
      opts.use_lookahead = false;
      break;
    case 6:  // everything off: pure enumeration + validity checks
      opts.use_cover_vertex = false;
      opts.use_critical_vertex = false;
      opts.use_upper_bound = false;
      opts.use_lower_bound = false;
      opts.use_degree_pruning = false;
      opts.use_lookahead = false;
      break;
    default:
      break;
  }
  EXPECT_EQ(MineMaximal(g, opts), expected) << "toggle=" << toggle;
}

INSTANTIATE_TEST_SUITE_P(AllToggles, PruningAblation, testing::Range(0, 7));

// Ablations over multiple seeds with everything off vs everything on.
TEST(PruningAblationExtra, FullVsBareOnManySeeds) {
  for (uint64_t seed = 20; seed <= 26; ++seed) {
    auto g = std::move(GenErdosRenyi(11, 30, seed)).value();
    MiningOptions on;
    on.gamma = 0.6;
    on.min_size = 3;
    MiningOptions off = on;
    off.use_cover_vertex = off.use_critical_vertex = off.use_upper_bound =
        off.use_lower_bound = off.use_degree_pruning = off.use_lookahead =
            false;
    EXPECT_EQ(MineMaximal(g, on), MineMaximal(g, off)) << "seed=" << seed;
  }
}

// ---- Quick-compat mode reproduces the original algorithm's misses ----

TEST(QuickCompatTest, NeverFindsMoreThanFullAlgorithm) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto g = std::move(GenErdosRenyi(12, 40, seed)).value();
    MiningOptions full;
    full.gamma = 0.6;
    full.min_size = 3;
    MiningOptions compat = full;
    compat.quick_compat = true;
    auto full_results = MineMaximal(g, full);
    auto compat_results = MineMaximal(g, compat);
    // Every compat result must appear in the complete result set.
    for (const auto& s : compat_results) {
      bool found = false;
      for (const auto& t : full_results) {
        if (s == t) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "quick_compat invented a result, seed=" << seed;
    }
    EXPECT_LE(compat_results.size(), full_results.size());
  }
}

// ---- Planted communities are recovered ----

TEST(PlantedRecoveryTest, FindsPlantedCliques) {
  std::vector<std::vector<VertexId>> communities;
  auto g = std::move(GenPlantedCommunities({.num_vertices = 300,
                                            .background_edges = 600,
                                            .background =
                                                BackgroundModel::kErdosRenyi,
                                            .num_communities = 3,
                                            .community_min = 9,
                                            .community_max = 9,
                                            .intra_density = 1.0,
                                            .seed = 31},
                                           &communities))
               .value();
  MiningOptions opts;
  opts.gamma = 0.85;
  opts.min_size = 8;
  auto mined = MineMaximal(g, opts);
  // Each planted 9-clique must be contained in some result.
  for (const auto& c : communities) {
    bool covered = false;
    for (const auto& s : mined) {
      if (std::includes(s.begin(), s.end(), c.begin(), c.end())) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered);
  }
}

}  // namespace
}  // namespace qcm
