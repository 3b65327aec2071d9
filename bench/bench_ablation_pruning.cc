// Ablation A: the value of each pruning-rule family. The paper
// motivates Quick's pruning arsenal (e.g. the lower-bound rule alone is
// credited with 192x in [27]) and claims its own algorithm uses the rules
// more effectively than Quick while never missing results. This bench
// disables one rule family at a time on the serial miner and reports time,
// search-tree nodes, and result counts; a final row runs quick-compat mode
// to expose the original Quick's missed results.

#include <cstdio>
#include <functional>
#include <vector>

#include "bench/bench_common.h"
#include "bench/datasets.h"
#include "quick/maximality_filter.h"
#include "quick/serial_miner.h"

namespace {

using namespace qcm;
using namespace qcm::bench;

struct Variant {
  const char* name;
  std::function<void(MiningOptions*)> tweak;
};

int RunGraph(const char* label, const Graph& graph, MiningOptions base) {

  const std::vector<Variant> variants = {
      {"full algorithm", [](MiningOptions*) {}},
      {"no cover vertex (P7)",
       [](MiningOptions* o) { o->use_cover_vertex = false; }},
      {"no critical vertex (P6)",
       [](MiningOptions* o) { o->use_critical_vertex = false; }},
      {"no upper bound (P4)",
       [](MiningOptions* o) { o->use_upper_bound = false; }},
      {"no lower bound (P5)",
       [](MiningOptions* o) { o->use_lower_bound = false; }},
      {"no degree rules (P3)",
       [](MiningOptions* o) { o->use_degree_pruning = false; }},
      {"no lookahead",
       [](MiningOptions* o) { o->use_lookahead = false; }},
      {"quick-compat (missed checks)",
       [](MiningOptions* o) { o->quick_compat = true; }},
  };

  std::printf("\nDataset %s (gamma=%.2f, tau_size=%u)\n", label,
              base.gamma, base.min_size);
  Table table({"Variant", "Time", "Search nodes", "Bounding iters",
               "Candidates", "Maximal #"});
  size_t full_maximal = 0;
  for (const Variant& variant : variants) {
    MiningOptions opts = base;
    variant.tweak(&opts);
    VectorSink sink;
    SerialMiner miner(opts);
    auto report = miner.Run(graph, &sink);
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 1;
    }
    auto maximal = FilterMaximal(std::move(sink.results()));
    if (std::string(variant.name) == "full algorithm") {
      full_maximal = maximal.size();
    }
    std::string max_str = FmtCount(maximal.size());
    if (maximal.size() != full_maximal) {
      max_str += " (MISSES RESULTS)";
    }
    table.AddRow({variant.name, FmtSeconds(report->total_seconds),
                  FmtCount(report->stats.nodes_explored),
                  FmtCount(report->stats.bounding_iterations),
                  FmtCount(report->stats.emitted), std::move(max_str)});
  }
  table.Print();
  return 0;
}

}  // namespace

int main() {
  Banner("Ablation A: Pruning-Rule Value (serial miner)");
  Note("Every rule family can be disabled without changing the maximal "
       "result set -- rules trade work, not answers. quick-compat "
       "reproduces the original Quick's two missed checks and may drop "
       "maximal results (the paper's §4 T5/T6 remarks). Inputs are sized "
       "so that even the bare variants terminate (without lookahead, "
       "near-clique modules of size s cost ~2^s).");

  // A coexpression-style input with modules small enough for every toggle.
  auto gse_mini = GenPlantedCommunities({.num_vertices = 800,
                                         .background_edges = 2000,
                                         .background =
                                             BackgroundModel::kErdosRenyi,
                                         .num_communities = 8,
                                         .community_min = 14,
                                         .community_max = 17,
                                         .intra_density = 0.94,
                                         .overlap_fraction = 0.25,
                                         .seed = 101});
  if (!gse_mini.ok()) {
    std::fprintf(stderr, "%s\n", gse_mini.status().ToString().c_str());
    return 1;
  }
  MiningOptions gse_opts;
  gse_opts.gamma = 0.85;
  gse_opts.min_size = 12;
  if (RunGraph("GSE-mini (overlapping modules)", *gse_mini, gse_opts) != 0) {
    return 1;
  }

  const DatasetSpec* grqc = FindDataset("Ca-GrQc-like");
  auto grqc_graph = BuildDataset(*grqc);
  if (!grqc_graph.ok()) {
    std::fprintf(stderr, "%s\n", grqc_graph.status().ToString().c_str());
    return 1;
  }
  if (RunGraph(grqc->name.c_str(), *grqc_graph, grqc->Mining()) != 0) {
    return 1;
  }
  return 0;
}
