// Reproduces Table 5 (scalability on Enron):
//   (a) vertical scalability  -- machines fixed, threads/machine doubling;
//   (b) horizontal scalability -- threads fixed, machines doubling.
//
// The host has very few physical cores, so wall-clock speedup saturates
// early; in addition to wall time we therefore report the quantities that
// demonstrate the paper's load-balancing claim independent of host size:
// aggregate mining throughput (total mining seconds / wall second) and the
// max/min per-thread busy ratio (1.0 = perfectly balanced).

#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench/datasets.h"
#include "mining/parallel_miner.h"

namespace {

using namespace qcm;
using namespace qcm::bench;

int RunSweep(const Graph& graph, const DatasetSpec& spec,
             const std::vector<std::pair<int, int>>& shapes, Table* table) {
  for (const auto& [machines, threads] : shapes) {
    EngineConfig config = ClusterPreset();
    config.mining = spec.Mining();
    config.tau_split = spec.tau_split;
    config.tau_time = spec.tau_time;
    config.num_machines = machines;
    config.threads_per_machine = threads;
    ParallelMiner miner(config);
    auto result = miner.Run(graph);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    const EngineReport& r = result->report;
    const double effective_parallelism =
        r.wall_seconds > 0
            ? r.Total(&ThreadSummary::busy_seconds) / r.wall_seconds
            : 0;
    table->AddRow({FmtCount(machines), FmtCount(threads),
                   FmtSeconds(r.wall_seconds),
                   FmtDouble(effective_parallelism, 2),
                   FmtDouble(r.BusyImbalance(), 2),
                   FmtGb(r.peak_rss_bytes),
                   FmtGb(r.counters.spill_bytes_written),
                   FmtCount(result->maximal.size())});
  }
  return 0;
}

}  // namespace

int main() {
  Banner("Table 5: Scalability Results on Enron");
  std::printf("Host hardware concurrency: %u threads (paper: 16 machines x "
              "32 threads); wall-clock speedup saturates at the host core "
              "count -- load-balance columns carry the scaling story.\n",
              std::thread::hardware_concurrency());

  const DatasetSpec* spec = FindDataset("Enron-like");
  auto graph = BuildDataset(*spec);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }

  Note("\n(a) Vertical scalability (machines fixed at 2, threads/machine "
       "doubling; paper: 16 machines, 4->32 threads)");
  Table vertical({"Machines", "Threads/m", "Time", "Effective parallelism",
                  "Busy max/min", "RAM", "Disk", "Maximal #"});
  if (RunSweep(*graph, *spec, {{2, 1}, {2, 2}, {2, 4}, {2, 8}}, &vertical)) {
    return 1;
  }
  vertical.Print();
  Note("Paper: 739 s -> 391 s -> 233 s -> 172 s as threads double.");

  Note("\n(b) Horizontal scalability (threads/machine fixed at 2, machines "
       "doubling; paper: 32 threads, 2->16 machines)");
  Table horizontal({"Machines", "Threads/m", "Time", "Effective parallelism",
                    "Busy max/min", "RAM", "Disk", "Maximal #"});
  if (RunSweep(*graph, *spec, {{1, 2}, {2, 2}, {4, 2}, {8, 2}},
               &horizontal)) {
    return 1;
  }
  horizontal.Print();
  Note("Paper: 1035 s -> 563 s -> 287 s -> 172 s as machines double.");
  return 0;
}
