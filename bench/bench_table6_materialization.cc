// Reproduces Table 6 (mining vs. subgraph materialization on Hyves):
// sweeps tau_time and reports job time, total mining time summed over all
// tasks, total subgraph-materialization time (the cost of creating
// decomposed subtasks, Alg. 10 lines 18-22), and their ratio. The paper's
// claim to reproduce: even at the most aggressive tau_time the
// materialization overhead stays a tiny fraction of mining (1/280 at
// tau_time = 0.01 s in the paper).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/datasets.h"
#include "mining/parallel_miner.h"

int main() {
  using namespace qcm;
  using namespace qcm::bench;
  // Set QCM_BENCH_JSON=path to additionally dump the measurements as JSON
  // (used to record before/after evidence for materialization changes).
  const char* json_path = std::getenv("QCM_BENCH_JSON");
  std::string json = "[\n";

  Banner("Table 6: Mining vs. Subgraph Materialization on Hyves");
  const DatasetSpec* spec = FindDataset("Hyves-like");
  auto graph = BuildDataset(*spec);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }

  std::vector<double> tau_times = {0.5, 0.2, 0.1, 0.05, 0.02, 0.01};
  if (QuickMode()) tau_times = {0.1, 0.01};

  Table table({"tau_time", "Job Time", "Total Task Mining Time",
               "Total Subgraph Materialization Time",
               "Total Ego Build Time",
               "Mining : Materialization Ratio", "Subtasks",
               "Cache Hit %"});
  bool first_row = true;
  for (double tau_time : tau_times) {
    EngineConfig config = ClusterPreset();
    config.mining = spec->Mining();
    config.tau_split = spec->tau_split;
    config.tau_time = tau_time;
    ParallelMiner miner(config);
    auto result = miner.Run(*graph);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    const EngineReport& r = result->report;
    const double mining = r.Total(&ThreadSummary::mining_seconds);
    const double materialize = r.Total(&ThreadSummary::materialize_seconds);
    const double build = r.Total(&ThreadSummary::build_seconds);
    const double ratio = materialize > 0 ? mining / materialize : 0.0;
    table.AddRow({FmtDouble(tau_time, 3) + " s",
                  FmtSeconds(r.wall_seconds),
                  FmtSeconds(mining),
                  FmtSeconds(materialize),
                  FmtSeconds(build),
                  ratio > 0 ? FmtDouble(ratio, 1) : "n/a (no decomposition)",
                  FmtCount(r.counters.tasks_completed),
                  FmtDouble(100.0 * r.counters.CacheHitRatio(), 1)});
    if (!first_row) json += ",\n";
    first_row = false;
    json += "  {\"tau_time\": " + FmtDouble(tau_time, 3) +
            ", \"job_seconds\": " + FmtDouble(r.wall_seconds, 6) +
            ", \"mining_seconds\": " + FmtDouble(mining, 6) +
            ", \"materialize_seconds\": " + FmtDouble(materialize, 6) +
            ", \"ego_build_seconds\": " + FmtDouble(build, 6) +
            ", \"tasks_completed\": " +
            std::to_string(r.counters.tasks_completed) +
            ", \"cache_hits\": " + std::to_string(r.counters.cache_hits) +
            ", \"cache_misses\": " +
            std::to_string(r.counters.cache_misses) +
            ", \"pin_hits\": " + std::to_string(r.counters.pin_hits) +
            ", \"cache_hit_ratio\": " +
            FmtDouble(r.counters.CacheHitRatio(), 4) +
            ", \"task_suspensions\": " +
            std::to_string(r.counters.task_suspensions) +
            ", \"pull_batches\": " +
            std::to_string(r.counters.pull_batches) +
            ", \"pull_bytes\": " + std::to_string(r.counters.pull_bytes) +
            "}";
  }
  table.Print();
  json += "\n]\n";
  if (json_path != nullptr) {
    if (std::FILE* f = std::fopen(json_path, "w")) {
      std::fputs(json.c_str(), f);
      std::fclose(f);
      std::printf("(json written to %s)\n", json_path);
    }
  }
  Note("\nPaper reference: ratio 884.6 at tau_time=50s falling to 280.7 at "
       "0.01s -- materialization grows as tau_time shrinks but remains a "
       "tiny fraction of mining. The same monotone shape (more subtasks, "
       "smaller but still >1 ratio) must appear above. Absolute ratios are "
       "smaller here because our scaled tasks are orders of magnitude "
       "shorter than the paper's (seconds vs. hours), so a fixed tau_time "
       "sits much closer to task granularity; pushing tau_time toward 0 "
       "enters an over-decomposition regime the paper never tests (see "
       "bench_ablation_decompose).");
  return 0;
}
