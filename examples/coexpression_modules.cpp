// Gene co-expression module discovery -- the biology use case of the
// paper's CX_GSE1730 / CX_GSE10158 inputs: genes are vertices, an edge
// means correlated expression, and gamma-quasi-cliques are co-expressed
// modules (protein complexes / functional groups).
//
// Demonstrates: overlapping-module generation, edge-list persistence,
// serial vs. parallel agreement, and interpreting pruning statistics.
//
// Build & run:  ./build/examples/coexpression_modules

#include <algorithm>
#include <cstdio>

#include "graph/edge_io.h"
#include "graph/generators.h"
#include "graph/kcore.h"
#include "mining/parallel_miner.h"
#include "quick/maximality_filter.h"
#include "quick/serial_miner.h"

int main() {
  using namespace qcm;

  // A coexpression network: 1,500 genes, ER noise, 9 overlapping dense
  // modules (overlap = genes shared between pathways).
  auto graph_or = GenPlantedCommunities({.num_vertices = 1500,
                                         .background_edges = 4000,
                                         .background =
                                             BackgroundModel::kErdosRenyi,
                                         .num_communities = 9,
                                         .community_min = 24,
                                         .community_max = 30,
                                         .intra_density = 0.95,
                                         .overlap_fraction = 0.4,
                                         .seed = 1730});
  if (!graph_or.ok()) {
    std::fprintf(stderr, "%s\n", graph_or.status().ToString().c_str());
    return 1;
  }
  const Graph& graph = *graph_or;

  // Persist / reload as a SNAP-style edge list (what you would do with a
  // real GEO-derived network).
  const std::string path = "/tmp/qcm_coexpression_edges.txt";
  if (auto s = SaveEdgeList(graph, path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  auto loaded = LoadEdgeList(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("Coexpression network: %u genes, %lu correlation edges "
              "(round-tripped through %s)\n",
              loaded->graph.NumVertices(),
              static_cast<unsigned long>(loaded->graph.NumEdges()),
              path.c_str());

  MiningOptions options;
  options.gamma = 0.9;     // tight co-expression
  options.min_size = 22;   // biologically significant module size
  const uint32_t k = options.MinDegreeK();
  std::printf("Theorem 2 preprocessing: k-core with k=%u keeps %lu of %u "
              "genes\n",
              k, static_cast<unsigned long>(KCoreSize(loaded->graph, k)),
              loaded->graph.NumVertices());

  // Serial reference.
  VectorSink sink;
  SerialMiner serial(options);
  auto serial_report = serial.Run(loaded->graph, &sink);
  if (!serial_report.ok()) {
    std::fprintf(stderr, "%s\n", serial_report.status().ToString().c_str());
    return 1;
  }
  auto serial_modules = FilterMaximal(std::move(sink.results()));

  // Parallel run on an in-process cluster.
  EngineConfig config;
  config.num_machines = 2;
  config.threads_per_machine = 2;
  config.mining = options;
  config.tau_time = 0.005;
  ParallelMiner parallel(config);
  auto par = parallel.Run(loaded->graph);
  if (!par.ok()) {
    std::fprintf(stderr, "%s\n", par.status().ToString().c_str());
    return 1;
  }

  std::printf("\nSerial:   %zu maximal modules in %.2f s\n",
              serial_modules.size(), serial_report->total_seconds);
  std::printf("Parallel: %zu maximal modules in %.2f s (agreement: %s)\n",
              par->maximal.size(), par->report.wall_seconds,
              par->maximal == serial_modules ? "EXACT" : "MISMATCH!");

  // Module size histogram.
  std::printf("\nModule sizes:");
  std::vector<size_t> sizes;
  for (const auto& m : par->maximal) sizes.push_back(m.size());
  std::sort(sizes.begin(), sizes.end());
  for (size_t s : sizes) std::printf(" %zu", s);
  std::printf("\n");

  // What the pruning rules did (serial pass).
  const MiningStats& st = serial_report->stats;
  std::printf("\nPruning statistics (serial pass):\n");
  std::printf("  search nodes            : %lu\n",
              static_cast<unsigned long>(st.nodes_explored));
  std::printf("  Type I prunes (deg/U/L) : %lu / %lu / %lu\n",
              static_cast<unsigned long>(st.type1_degree_pruned),
              static_cast<unsigned long>(st.type1_upper_pruned),
              static_cast<unsigned long>(st.type1_lower_pruned));
  std::printf("  Type II subtree prunes  : %lu (+%lu bound failures)\n",
              static_cast<unsigned long>(st.type2_prunes),
              static_cast<unsigned long>(st.bound_fail_prunes));
  std::printf("  critical-vertex moves   : %lu\n",
              static_cast<unsigned long>(st.critical_moves));
  std::printf("  cover-vertex skips      : %lu\n",
              static_cast<unsigned long>(st.cover_skipped));
  std::printf("  lookahead hits          : %lu\n",
              static_cast<unsigned long>(st.lookahead_hits));
  std::remove(path.c_str());
  return 0;
}
