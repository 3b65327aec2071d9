// End-to-end correctness of the parallel pipeline:
// for any machine/thread count, decomposition mode, tau_split/tau_time and
// queue capacities, the maximal result set must equal the serial miner's
// (and, on tiny graphs, the exhaustive oracle's).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "graph/generators.h"
#include "graph/kcore.h"
#include "mining/parallel_miner.h"
#include "quick/maximality_filter.h"
#include "quick/naive_enum.h"
#include "quick/serial_miner.h"

namespace qcm {
namespace {

std::vector<VertexSet> SerialMaximal(const Graph& g,
                                     const MiningOptions& opts) {
  VectorSink sink;
  SerialMiner miner(opts);
  auto report = miner.Run(g, &sink);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return FilterMaximal(std::move(sink.results()));
}

ParallelMineResult ParallelRun(const Graph& g, EngineConfig config) {
  ParallelMiner miner(std::move(config));
  auto result = miner.Run(g);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

EngineConfig SmallConfig(double gamma, uint32_t min_size) {
  EngineConfig config;
  config.mining.gamma = gamma;
  config.mining.min_size = min_size;
  config.num_machines = 2;
  config.threads_per_machine = 2;
  config.tau_split = 20;
  config.tau_time = 0.001;
  config.steal_period_sec = 0.005;
  return config;
}

// Only the k-core can hold a result, so the engine mines only the k-core:
// a background vertex of degree >= k outside it does not even spawn.
// A Barabasi-Albert background that links each new vertex to 3 earlier
// ones has core numbers of at most 3, so at k = 6 its hubs qualify by
// degree alone.
TEST(ParallelMinerTest, SpawnsOnlyKCoreVertices) {
  PlantedConfig planted;
  planted.num_vertices = 600;
  planted.background = BackgroundModel::kPowerLaw;
  planted.ba_attach = 3;
  planted.num_communities = 4;
  planted.community_min = 10;
  planted.community_max = 12;
  planted.seed = 7;
  const Graph g = std::move(GenPlantedCommunities(planted)).value();
  EngineConfig config = SmallConfig(0.85, 8);
  config.mode = DecomposeMode::kNone;  // every task is a spawn
  const uint32_t k = config.mining.MinDegreeK();
  ASSERT_EQ(k, 6u);
  uint64_t degree_k = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) degree_k += g.Degree(v) >= k;
  const uint64_t core = KCoreSize(g, k);
  ASSERT_LT(core, degree_k) << "no periphery of degree >= k to skip";

  const ParallelMineResult result = ParallelRun(g, config);
  EXPECT_LE(result.report.counters.tasks_completed, core);
  EXPECT_FALSE(result.maximal.empty());
  EXPECT_EQ(result.maximal, SerialMaximal(g, config.mining));
}

TEST(ParallelMinerTest, PaperFigure4MatchesOracle) {
  Graph g = PaperFigure4Graph();
  auto result = ParallelRun(g, SmallConfig(0.6, 4));
  auto oracle = std::move(NaiveMaximalQuasiCliques(g, 0.6, 4)).value();
  EXPECT_EQ(result.maximal, oracle);
}

// Both kernel families: every task of a tiny graph is below the default
// dense threshold, so 0 is what sends them through the sparse kernels.
TEST(ParallelMinerTest, MatchesOracleOnRandomTinyGraphs) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto g = std::move(GenErdosRenyi(14, 50, seed)).value();
    auto oracle = std::move(NaiveMaximalQuasiCliques(g, 0.7, 3)).value();
    for (const int64_t dense_threshold : {int64_t{0}, int64_t{4096}}) {
      EngineConfig config = SmallConfig(0.7, 3);
      config.mining.dense_threshold = dense_threshold;
      auto result = ParallelRun(g, config);
      EXPECT_EQ(result.maximal, oracle)
          << "seed=" << seed << " dense_threshold=" << dense_threshold;
    }
  }
}

// The engine path against the exhaustive oracle on planted graphs of at
// most 24 vertices: every decomposition mode (tau_time 0 makes the
// time-delayed one split at once), 1 and 3 ranks, both kernel families.
// The engine mines in degeneracy order and the oracle in input order, and
// on most seeds the two orders differ, so the match spans two orders.
// Every run also balances its candidate books: the sets that reached the
// engine's result list plus those their own task's filter dropped are
// exactly what the kernel emitted.
TEST(ParallelMinerTest, PlantedTinyGraphsMatchOracleInEveryMode) {
  constexpr uint64_t kSeeds = 12;
  uint64_t subsumed = 0, reordered = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    PlantedConfig planted;
    planted.num_vertices = 16 + 2 * static_cast<uint32_t>(seed % 5);
    planted.background_edges = 24;
    planted.background = BackgroundModel::kErdosRenyi;
    planted.num_communities = 2;
    planted.community_min = 6;
    planted.community_max = 8;
    planted.intra_density = 0.85;
    planted.overlap_fraction = 0.3;
    planted.seed = seed;
    const Graph g = std::move(GenPlantedCommunities(planted)).value();
    ASSERT_LE(g.NumVertices(), 24u);
    const auto oracle =
        std::move(NaiveMaximalQuasiCliques(g, 0.75, 4)).value();
    ASSERT_FALSE(oracle.empty()) << "seed=" << seed;
    const std::vector<VertexId> mined_order =
        OrderByDegeneracy(
            CompactKCore(g, SmallConfig(0.75, 4).mining.MinDegreeK()))
            .ids;
    reordered += !std::is_sorted(mined_order.begin(), mined_order.end());
    for (const DecomposeMode mode :
         {DecomposeMode::kNone, DecomposeMode::kSizeThreshold,
          DecomposeMode::kTimeDelayed}) {
      for (const int machines : {1, 3}) {
        for (const int64_t dense_threshold : {int64_t{0}, int64_t{4096}}) {
          EngineConfig config = SmallConfig(0.75, 4);
          config.mode = mode;
          config.num_machines = machines;
          config.tau_split = 4;
          config.tau_time = 0;
          config.mining.dense_threshold = dense_threshold;
          auto report = ParallelMiner(config).RunUnfiltered(g);
          ASSERT_TRUE(report.ok()) << report.status().ToString();
          const std::string where =
              "seed=" + std::to_string(seed) + " mode=" +
              DecomposeModeName(mode) + " machines=" +
              std::to_string(machines) +
              " dense_threshold=" + std::to_string(dense_threshold);
          EXPECT_EQ(report->results.size() + report->mining.subsumed,
                    report->mining.emitted)
              << where;
          subsumed += report->mining.subsumed;
          EXPECT_EQ(FilterMaximal(std::move(report->results)), oracle)
              << where;
        }
      }
    }
  }
  EXPECT_GT(subsumed, 0u) << "the per-task filter never dropped a candidate";
  EXPECT_GT(2 * reordered, kSeeds)
      << "the degeneracy order kept the input order on " << kSeeds - reordered
      << " of " << kSeeds << " seeds";
}

// ---- Parallel == serial across engine configurations ----

struct ConfigParam {
  int machines;
  int threads;
  DecomposeMode mode;
  uint32_t tau_split;
  double tau_time;
  size_t local_capacity;
};

class ParallelConfigSweep : public testing::TestWithParam<ConfigParam> {};

TEST_P(ParallelConfigSweep, MatchesSerial) {
  const ConfigParam& p = GetParam();
  // A planted-community graph big enough to decompose but small enough to
  // mine quickly.
  auto g = std::move(GenPlantedCommunities({.num_vertices = 250,
                                            .background_edges = 500,
                                            .background =
                                                BackgroundModel::kErdosRenyi,
                                            .num_communities = 6,
                                            .community_min = 8,
                                            .community_max = 12,
                                            .intra_density = 0.92,
                                            .overlap_fraction = 0.3,
                                            .seed = 99}))
               .value();
  MiningOptions opts;
  opts.gamma = 0.85;
  opts.min_size = 6;
  auto expected = SerialMaximal(g, opts);
  ASSERT_FALSE(expected.empty());  // the sweep must exercise real results

  EngineConfig config;
  config.mining = opts;
  config.num_machines = p.machines;
  config.threads_per_machine = p.threads;
  config.mode = p.mode;
  config.tau_split = p.tau_split;
  config.tau_time = p.tau_time;
  config.local_queue_capacity = p.local_capacity;
  config.global_queue_capacity = std::max<size_t>(p.local_capacity, 16);
  config.batch_size = 8;
  config.steal_period_sec = 0.002;

  auto result = ParallelRun(g, config);
  EXPECT_EQ(result.maximal, expected)
      << "machines=" << p.machines << " threads=" << p.threads
      << " mode=" << DecomposeModeName(p.mode) << " split=" << p.tau_split
      << " time=" << p.tau_time;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ParallelConfigSweep,
    testing::Values(
        // One thread, no decomposition: the pure task-per-root pipeline.
        ConfigParam{1, 1, DecomposeMode::kNone, 100, 0, 256},
        // Multi-thread, no decomposition.
        ConfigParam{1, 4, DecomposeMode::kNone, 100, 0, 256},
        // Size-threshold decomposition, aggressive split.
        ConfigParam{1, 2, DecomposeMode::kSizeThreshold, 8, 0, 256},
        ConfigParam{2, 2, DecomposeMode::kSizeThreshold, 4, 0, 256},
        // Time-delayed decomposition at several timeouts (0 = immediate).
        ConfigParam{1, 2, DecomposeMode::kTimeDelayed, 16, 0.0, 256},
        ConfigParam{2, 2, DecomposeMode::kTimeDelayed, 16, 0.0005, 256},
        ConfigParam{4, 1, DecomposeMode::kTimeDelayed, 8, 0.002, 256},
        // Tiny queues: spilling everywhere.
        ConfigParam{2, 2, DecomposeMode::kTimeDelayed, 4, 0.0, 8},
        // Everything big (tau_split=0): global-queue-only scheduling.
        ConfigParam{2, 2, DecomposeMode::kTimeDelayed, 0, 0.0005, 256}));

TEST(ParallelMinerTest, QuickCompatSubsetHoldsInParallel) {
  auto g = std::move(GenErdosRenyi(200, 1200, 5)).value();
  EngineConfig config = SmallConfig(0.8, 5);
  auto full = ParallelRun(g, config);
  config.mining.quick_compat = true;
  auto compat = ParallelRun(g, config);
  for (const auto& s : compat.maximal) {
    EXPECT_TRUE(std::binary_search(full.maximal.begin(), full.maximal.end(),
                                   s));
  }
}

TEST(ParallelMinerTest, RawCandidatesGrowWithDecomposition) {
  // Smaller tau_time => more subtasks => more unpruned non-maximal
  // candidates (the paper's Table 3 observation). The *maximal* set is
  // invariant.
  auto g = std::move(GenPlantedCommunities({.num_vertices = 200,
                                            .num_communities = 5,
                                            .community_min = 9,
                                            .community_max = 12,
                                            .intra_density = 0.95,
                                            .seed = 7}))
               .value();
  EngineConfig fast = SmallConfig(0.85, 6);
  fast.mode = DecomposeMode::kTimeDelayed;
  fast.tau_time = 10.0;  // effectively never decompose
  EngineConfig eager = fast;
  eager.tau_time = 0.0;  // decompose everything
  auto lazy_result = ParallelRun(g, fast);
  auto eager_result = ParallelRun(g, eager);
  EXPECT_EQ(lazy_result.maximal, eager_result.maximal);
  EXPECT_GE(eager_result.raw_candidates, lazy_result.raw_candidates);
  EXPECT_GT(eager_result.report.counters.tasks_completed,
            lazy_result.report.counters.tasks_completed);
}

TEST(ParallelMinerTest, TaskLogRecordsRoots) {
  auto g = std::move(GenPlantedCommunities({.num_vertices = 150,
                                            .num_communities = 3,
                                            .community_min = 8,
                                            .community_max = 10,
                                            .intra_density = 1.0,
                                            .seed = 3}))
               .value();
  EngineConfig config = SmallConfig(0.9, 6);
  config.record_task_log = true;
  auto result = ParallelRun(g, config);
  ASSERT_FALSE(result.report.root_tasks.empty());
  // The engine mines the k-core in compact ids; the report names each
  // root by its input id, so every root is a k-core vertex of `g`.
  const std::vector<uint8_t> core = KCoreMask(g, config.mining.MinDegreeK());
  std::set<VertexId> roots;
  for (const auto& agg : result.report.root_tasks) {
    ASSERT_LT(agg.root, g.NumVertices());
    EXPECT_TRUE(core[agg.root]) << "root " << agg.root << " is not in the "
                                << "k-core (an unmapped compact id?)";
    EXPECT_GT(agg.tasks, 0u);
    EXPECT_GE(agg.mining_seconds, 0.0);
    // Subtasks of one root may run on several threads and ranks; the
    // report folds them into one entry.
    EXPECT_TRUE(roots.insert(agg.root).second)
        << "root " << agg.root << " appears twice";
  }
}

TEST(ParallelMinerTest, MiningTimeDominatesMaterialization) {
  // Table 6's qualitative claim: subgraph materialization is a small
  // fraction of mining time even with aggressive decomposition.
  auto g = std::move(GenPlantedCommunities({.num_vertices = 300,
                                            .num_communities = 6,
                                            .community_min = 10,
                                            .community_max = 14,
                                            .intra_density = 0.9,
                                            .seed = 13}))
               .value();
  EngineConfig config = SmallConfig(0.8, 7);
  config.mode = DecomposeMode::kTimeDelayed;
  config.tau_time = 0.0;
  auto result = ParallelRun(g, config);
  EXPECT_GT(result.report.Total(&ThreadSummary::mining_seconds), 0.0);
  // Materialization happens (subtasks were created) ...
  EXPECT_GT(result.report.counters.tasks_completed, 0u);
  // ... but never dwarfs mining.
  EXPECT_LT(result.report.Total(&ThreadSummary::materialize_seconds),
            result.report.Total(&ThreadSummary::mining_seconds) +
                result.report.Total(&ThreadSummary::build_seconds) + 0.5);
}

}  // namespace
}  // namespace qcm
