// tau_sweep: the ROADMAP's tau_time sweep harness.
//
// Sweeps tau_time across decades on a chosen dataset from the bench
// registry and emits one Table-3/4-style series -- job time, mining vs.
// materialization split, subtask counts, cache behavior -- as a printed
// table plus a JSON array, instead of the fixed grids baked into the
// individual benches.
//
// Usage:
//   tau_sweep [--dataset NAME] [--tau-max F] [--tau-min F]
//             [--per-decade N] [--machines N] [--threads N]
//             [--net-latency SEC] [--net-latency-ticks N] [--json PATH]
//
//   --dataset NAME     bench registry name ("Hyves-like", "GSE1730-like",
//                      or the paper's names)         (default Hyves-like)
//   --tau-max F        largest tau_time of the sweep  (default 0.5)
//   --tau-min F        smallest tau_time              (default 0.005)
//   --per-decade N     sample points per decade       (default 2)
//   --json PATH        write the JSON series here ("-" = stdout);
//                      QCM_BENCH_JSON is honored as a fallback

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/datasets.h"
#include "mining/parallel_miner.h"

namespace {

using namespace qcm;
using namespace qcm::bench;

struct Args {
  std::string dataset = "Hyves-like";
  double tau_max = 0.5;
  double tau_min = 0.005;
  int per_decade = 2;
  int machines = 0;  // 0 = ClusterPreset default
  int threads = 0;
  double net_latency_sec = 0.0;
  uint64_t net_latency_ticks = 0;
  std::string json_path;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: tau_sweep [--dataset NAME] [--tau-max F] [--tau-min F]\n"
      "                 [--per-decade N] [--machines N] [--threads N]\n"
      "                 [--net-latency SEC] [--net-latency-ticks N] "
      "[--json PATH]\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (a == "--dataset") {
      if ((v = next("--dataset")) == nullptr) return false;
      args->dataset = v;
    } else if (a == "--tau-max") {
      if ((v = next("--tau-max")) == nullptr) return false;
      args->tau_max = std::atof(v);
    } else if (a == "--tau-min") {
      if ((v = next("--tau-min")) == nullptr) return false;
      args->tau_min = std::atof(v);
    } else if (a == "--per-decade") {
      if ((v = next("--per-decade")) == nullptr) return false;
      args->per_decade = std::atoi(v);
    } else if (a == "--machines") {
      if ((v = next("--machines")) == nullptr) return false;
      args->machines = std::atoi(v);
    } else if (a == "--threads") {
      if ((v = next("--threads")) == nullptr) return false;
      args->threads = std::atoi(v);
    } else if (a == "--net-latency") {
      if ((v = next("--net-latency")) == nullptr) return false;
      args->net_latency_sec = std::atof(v);
      if (args->net_latency_sec < 0) {
        std::fprintf(stderr, "--net-latency must be >= 0\n");
        return false;
      }
    } else if (a == "--net-latency-ticks") {
      if ((v = next("--net-latency-ticks")) == nullptr) return false;
      const long long ticks = std::atoll(v);
      if (ticks < 0) {
        std::fprintf(stderr, "--net-latency-ticks must be >= 0\n");
        return false;
      }
      args->net_latency_ticks = static_cast<uint64_t>(ticks);
    } else if (a == "--json") {
      if ((v = next("--json")) == nullptr) return false;
      args->json_path = v;
    } else if (a == "--help" || a == "-h") {
      Usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return false;
    }
  }
  if (args->tau_max <= 0 || args->tau_min <= 0 ||
      args->tau_min > args->tau_max) {
    std::fprintf(stderr, "need 0 < --tau-min <= --tau-max\n");
    return false;
  }
  if (args->per_decade < 1) {
    std::fprintf(stderr, "--per-decade must be >= 1\n");
    return false;
  }
  return true;
}

/// Decade grid from tau_max down to (at least) tau_min, `per_decade`
/// logarithmically spaced samples per decade.
std::vector<double> TauGrid(double tau_max, double tau_min,
                            int per_decade) {
  std::vector<double> grid;
  const double step = std::pow(10.0, -1.0 / per_decade);
  for (double tau = tau_max; tau >= tau_min * 0.999; tau *= step) {
    grid.push_back(tau);
  }
  if (grid.empty() || grid.back() > tau_min * 1.001) {
    grid.push_back(tau_min);
  }
  return grid;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }

  const DatasetSpec* spec = FindDataset(args.dataset);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown dataset %s; known:\n",
                 args.dataset.c_str());
    for (const DatasetSpec& d : AllDatasets()) {
      std::fprintf(stderr, "  %s (%s)\n", d.name.c_str(),
                   d.paper_name.c_str());
    }
    return 2;
  }

  Banner("tau_time sweep on " + spec->name + " (paper Tables 3/4 style)");
  auto graph = BuildDataset(*spec);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }

  std::vector<double> taus =
      TauGrid(args.tau_max, args.tau_min, args.per_decade);
  if (QuickMode()) {
    taus = TauGrid(args.tau_max, args.tau_min, 1);
  }

  Table table({"tau_time", "Job Time", "Mining Time", "Materialize Time",
               "Ego Build Time", "Tasks Done", "Suspensions", "Results",
               "Cache Hit %", "Overlap %"});
  std::string json = "[\n";
  bool first = true;
  for (double tau : taus) {
    EngineConfig config = ClusterPreset();
    config.mining = spec->Mining();
    config.tau_split = spec->tau_split;
    config.tau_time = tau;
    if (args.machines > 0) config.num_machines = args.machines;
    if (args.threads > 0) config.threads_per_machine = args.threads;
    config.net_latency_sec = args.net_latency_sec;
    config.net_latency_ticks = args.net_latency_ticks;
    ParallelMiner miner(config);
    auto result = miner.Run(*graph);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    const EngineReport& r = result->report;
    table.AddRow({FmtDouble(tau, 4) + " s", FmtSeconds(r.wall_seconds),
                  FmtSeconds(r.total_mining_seconds),
                  FmtSeconds(r.total_materialize_seconds),
                  FmtSeconds(r.total_build_seconds),
                  FmtCount(r.counters.tasks_completed),
                  FmtCount(r.counters.task_suspensions),
                  FmtCount(result->maximal.size()),
                  FmtDouble(100.0 * r.counters.CacheHitRatio(), 1),
                  FmtDouble(100.0 * r.counters.MessageOverlapRatio(), 1)});
    if (!first) json += ",\n";
    first = false;
    json += "  {\"dataset\": \"" + spec->name + "\"" +
            ", \"tau_time\": " + FmtDouble(tau, 6) +
            ", \"machines\": " + std::to_string(config.num_machines) +
            ", \"threads\": " + std::to_string(config.threads_per_machine) +
            ", \"net_latency_sec\": " +
            FmtDouble(config.net_latency_sec, 6) +
            ", \"job_seconds\": " + FmtDouble(r.wall_seconds, 6) +
            ", \"mining_seconds\": " +
            FmtDouble(r.total_mining_seconds, 6) +
            ", \"materialize_seconds\": " +
            FmtDouble(r.total_materialize_seconds, 6) +
            ", \"ego_build_seconds\": " +
            FmtDouble(r.total_build_seconds, 6) +
            ", \"tasks_completed\": " +
            std::to_string(r.counters.tasks_completed) +
            ", \"results\": " + std::to_string(result->maximal.size()) +
            ", \"cache_hit_ratio\": " +
            FmtDouble(r.counters.CacheHitRatio(), 4) +
            ", \"overlap_ratio\": " +
            FmtDouble(r.counters.MessageOverlapRatio(), 4) + "}";
  }
  table.Print();
  json += "\n]\n";

  std::string json_path = args.json_path;
  if (json_path.empty()) {
    const char* env = std::getenv("QCM_BENCH_JSON");
    if (env != nullptr) json_path = env;
  }
  if (!json_path.empty()) {
    if (json_path == "-") {
      std::fputs(json.c_str(), stdout);
    } else if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
      std::fputs(json.c_str(), f);
      std::fclose(f);
      std::printf("(json written to %s)\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   json_path.c_str());
      return 1;
    }
  }
  Note("\nPaper reference (Tables 3/4): job time is U-shaped in tau_time "
       "-- too large starves the cluster of decomposable work, too small "
       "over-decomposes into materialization overhead. The sweep above "
       "reproduces the shape on the scaled dataset; absolute values are "
       "host-dependent.");
  return 0;
}
