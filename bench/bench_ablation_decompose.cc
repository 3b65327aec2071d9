// Ablation B: task-decomposition strategies head to head on
// the hard dataset --
//   * none           : one task per root, no decomposition (head-of-line
//                      blocking on expensive roots);
//   * size-threshold : Algorithm 8, recursive splitting by |ext(S)|;
//   * time-delayed   : Algorithms 9-10 (the paper's winner).
// Reports wall time, decomposition volume, materialization overhead, and
// per-thread load balance.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "bench/datasets.h"
#include "mining/parallel_miner.h"

int main() {
  using namespace qcm;
  using namespace qcm::bench;

  Banner("Ablation B: Task Decomposition Strategy (YouTube-like)");
  const DatasetSpec* spec = FindDataset("YouTube-like");
  auto graph = BuildDataset(*spec);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }

  struct Row {
    const char* name;
    DecomposeMode mode;
    uint32_t tau_split;
    double tau_time;
  };
  std::vector<Row> rows = {
      {"none (task per root)", DecomposeMode::kNone, 100, 0},
      {"size-threshold tau_split=200 (Alg. 8)",
       DecomposeMode::kSizeThreshold, 200, 0},
      {"size-threshold tau_split=50 (Alg. 8)", DecomposeMode::kSizeThreshold,
       50, 0},
      {"time-delayed tau_time=0.1s (Alg. 10)", DecomposeMode::kTimeDelayed,
       100, 0.1},
      {"time-delayed tau_time=0.01s (Alg. 10)", DecomposeMode::kTimeDelayed,
       100, 0.01},
  };

  Table table({"Strategy", "Time", "Tasks", "Materialization",
               "Mining", "Busy max/min", "Maximal #"});
  for (const Row& row : rows) {
    EngineConfig config = ClusterPreset();
    config.mining = spec->Mining();
    config.mode = row.mode;
    config.tau_split = row.tau_split;
    config.tau_time = row.tau_time;
    ParallelMiner miner(config);
    auto result = miner.Run(*graph);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    const EngineReport& r = result->report;
    table.AddRow({row.name, FmtSeconds(r.wall_seconds),
                  FmtCount(r.counters.tasks_completed),
                  FmtSeconds(r.Total(&ThreadSummary::materialize_seconds)),
                  FmtSeconds(r.Total(&ThreadSummary::mining_seconds)),
                  FmtDouble(r.BusyImbalance(), 2),
                  FmtCount(result->maximal.size())});
  }
  table.Print();
  Note("\nExpected shape (paper §7): time-delayed decomposition dominates "
       "-- 'consistently better than the simple size threshold based task "
       "decomposition algorithm'. The maximal result set is identical for "
       "every strategy.");
  return 0;
}
