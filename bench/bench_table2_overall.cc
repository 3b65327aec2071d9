// Reproduces Table 2 (results on all datasets): end-to-end parallel mining
// of every dataset with its (gamma, tau_size, tau_split, tau_time), printing
// wall time, RAM, spilled disk bytes and result count next to the paper's
// reported row.

#include <cstdio>

#include "bench/bench_common.h"
#include "bench/datasets.h"
#include "mining/parallel_miner.h"
#include "util/mem.h"

int main(int argc, char** argv) {
  using namespace qcm;
  using namespace qcm::bench;
  // Optional argv[1]: run a single dataset (tuning/debug aid).
  const std::string only = argc > 1 ? argv[1] : "";

  Banner("Table 2: Results on All Datasets");
  Note("Engine preset: 2 in-process machines x 2 threads, time-delayed task "
       "decomposition (the paper: 16 machines x 32 threads). Result # is "
       "the raw candidate count, mirroring the paper's released code which "
       "skips non-maximal postprocessing; the maximal count after "
       "FilterMaximal is shown alongside.");

  Table table({"Data", "tau_size", "gamma", "tau_split", "tau_time", "Time",
               "RAM", "Disk", "Result #", "Maximal #", "paper Time",
               "paper Result #"});
  for (const DatasetSpec& spec : AllDatasets()) {
    if (!only.empty() && spec.name != only && spec.paper_name != only) {
      continue;
    }
    auto graph = BuildDataset(spec);
    if (!graph.ok()) {
      std::fprintf(stderr, "%s: %s\n", spec.name.c_str(),
                   graph.status().ToString().c_str());
      return 1;
    }
    EngineConfig config = ClusterPreset();
    config.mining = spec.Mining();
    config.tau_split = spec.tau_split;
    config.tau_time = spec.tau_time;
    config.mode = DecomposeMode::kTimeDelayed;

    ParallelMiner miner(config);
    auto result = miner.Run(*graph);
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n", spec.name.c_str(),
                   result.status().ToString().c_str());
      return 1;
    }
    const EngineReport& report = result->report;
    table.AddRow({spec.name, FmtCount(spec.tau_size),
                  FmtDouble(spec.gamma, 2), FmtCount(spec.tau_split),
                  FmtDouble(spec.tau_time, 3),
                  FmtSeconds(report.wall_seconds),
                  FmtGb(report.peak_rss_bytes),
                  FmtGb(report.counters.spill_bytes_written),
                  FmtCount(result->raw_candidates),
                  FmtCount(result->maximal.size()),
                  FmtSeconds(spec.paper.time_seconds),
                  FmtCount(spec.paper.results)});
  }
  table.Print();
  Note("\nShape checks vs. the paper: result counts are selective (tens to "
       "thousands); disk stays near zero thanks to time-delayed "
       "decomposition; RAM stays flat because the active task pool is "
       "bounded. Absolute times differ (smaller graphs, 2-core host).");
  return 0;
}
