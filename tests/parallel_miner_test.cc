// End-to-end correctness of the parallel pipeline:
// for any machine/thread count, decomposition mode, tau_split/tau_time and
// queue capacities, the maximal result set must equal the serial miner's
// (and, on tiny graphs, the exhaustive oracle's).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/generators.h"
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

TEST(ParallelMinerTest, PaperFigure4MatchesOracle) {
  Graph g = PaperFigure4Graph();
  auto result = ParallelRun(g, SmallConfig(0.6, 4));
  auto oracle = std::move(NaiveMaximalQuasiCliques(g, 0.6, 4)).value();
  EXPECT_EQ(result.maximal, oracle);
}

TEST(ParallelMinerTest, MatchesOracleOnRandomTinyGraphs) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto g = std::move(GenErdosRenyi(14, 50, seed)).value();
    auto result = ParallelRun(g, SmallConfig(0.7, 3));
    auto oracle = std::move(NaiveMaximalQuasiCliques(g, 0.7, 3)).value();
    EXPECT_EQ(result.maximal, oracle) << "seed=" << seed;
  }
}

// ---- Parallel == serial across engine configurations ----

struct ConfigParam {
  int machines;
  int threads;
  DecomposeMode mode;
  uint32_t tau_split;
  double tau_time;
  size_t local_capacity;
  bool stealing;
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
  config.enable_stealing = p.stealing;
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
        ConfigParam{1, 1, DecomposeMode::kNone, 100, 0, 256, false},
        // Multi-thread, no decomposition.
        ConfigParam{1, 4, DecomposeMode::kNone, 100, 0, 256, false},
        // Size-threshold decomposition, aggressive split.
        ConfigParam{1, 2, DecomposeMode::kSizeThreshold, 8, 0, 256, false},
        ConfigParam{2, 2, DecomposeMode::kSizeThreshold, 4, 0, 256, true},
        // Time-delayed decomposition at several timeouts (0 = immediate).
        ConfigParam{1, 2, DecomposeMode::kTimeDelayed, 16, 0.0, 256, false},
        ConfigParam{2, 2, DecomposeMode::kTimeDelayed, 16, 0.0005, 256,
                    true},
        ConfigParam{4, 1, DecomposeMode::kTimeDelayed, 8, 0.002, 256, true},
        // Tiny queues: spilling everywhere.
        ConfigParam{2, 2, DecomposeMode::kTimeDelayed, 4, 0.0, 8, true},
        // Everything big (tau_split=0): global-queue-only scheduling.
        ConfigParam{2, 2, DecomposeMode::kTimeDelayed, 0, 0.0005, 256,
                    true}));

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
  for (const auto& agg : result.report.root_tasks) {
    EXPECT_GT(agg.tasks, 0u);
    EXPECT_GE(agg.mining_seconds, 0.0);
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
  EXPECT_GT(result.report.total_mining_seconds, 0.0);
  // Materialization happens (subtasks were created) ...
  EXPECT_GT(result.report.counters.tasks_completed, 0u);
  // ... but never dwarfs mining.
  EXPECT_LT(result.report.total_materialize_seconds,
            result.report.total_mining_seconds +
                result.report.total_build_seconds + 0.5);
}

}  // namespace
}  // namespace qcm
