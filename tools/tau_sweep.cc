// tau_sweep: the ROADMAP's tau_time sweep harness.
//
// Sweeps tau_time across decades on a chosen dataset from the bench
// registry and emits one Table-3/4-style series -- job time, mining vs.
// materialization split, subtask counts, cache behavior -- as a printed
// table plus a JSON array, instead of the fixed grids baked into the
// individual benches.
//
// `tau_sweep --help` lists every flag; --threads and --net-latency are
// rows of the engine flag table qcm_mine and qcm_cluster share
// (tools/cli.h). QCM_BENCH_JSON names the JSON file when --json is not
// given.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/datasets.h"
#include "mining/parallel_miner.h"
#include "tools/cli.h"

namespace {

using namespace qcm;
using namespace qcm::bench;

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
  std::string dataset = "Hyves-like";
  double tau_max = 0.5;
  double tau_min = 0.005;
  int per_decade = 2;
  std::string json_path;
  EngineConfig preset = ClusterPreset();
  std::vector<cli::Flag> flags = {
      cli::Text("--dataset", "NAME", &dataset,
                "bench registry name (\"Hyves-like\", \"GSE1730-like\", or "
                "the paper's names)"),
      cli::Number("--tau-max", "F", &tau_max,
                  "largest tau_time of the sweep"),
      cli::Number("--tau-min", "F", &tau_min,
                  "smallest tau_time of the sweep"),
      cli::Number("--per-decade", "N", &per_decade,
                  "sample points per decade"),
      cli::Number("--machines", "N", &preset.num_machines,
                  "in-process ranks"),
  };
  const std::vector<cli::Flag> shared =
      cli::Select(cli::EngineFlags(&preset),
                  {&preset.threads_per_machine, &preset.net_latency_sec});
  flags.insert(flags.end(), shared.begin(), shared.end());
  flags.push_back(cli::Text("--json", "PATH", &json_path,
                            "write the JSON series here ('-' = stdout)"));
  cli::CommandLine cmd(
      "Sweeps tau_time across decades on one bench dataset and prints a "
      "Table-3/4-style series.",
      std::move(flags));
  cmd.ParseOrExit(argc, argv);
  if (tau_max <= 0 || tau_min <= 0 || tau_min > tau_max) {
    cmd.Fail("need 0 < --tau-min <= --tau-max");
  }
  if (per_decade < 1) cmd.Fail("--per-decade must be >= 1");

  const DatasetSpec* spec = FindDataset(dataset);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown dataset %s; known:\n",
                 dataset.c_str());
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
      TauGrid(tau_max, tau_min, QuickMode() ? 1 : per_decade);

  Table table({"tau_time", "Job Time", "Mining Time", "Materialize Time",
               "Ego Build Time", "Tasks Done", "Suspensions", "Results",
               "Cache Hit %", "Overlap %"});
  std::string json = "[\n";
  bool first = true;
  for (double tau : taus) {
    EngineConfig config = preset;
    config.mining = spec->Mining();
    config.tau_split = spec->tau_split;
    config.tau_time = tau;
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
    table.AddRow({FmtDouble(tau, 4) + " s", FmtSeconds(r.wall_seconds),
                  FmtSeconds(mining), FmtSeconds(materialize),
                  FmtSeconds(build),
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
            ", \"mining_seconds\": " + FmtDouble(mining, 6) +
            ", \"materialize_seconds\": " + FmtDouble(materialize, 6) +
            ", \"ego_build_seconds\": " + FmtDouble(build, 6) +
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
