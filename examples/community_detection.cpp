// Community detection on a social-network-like graph with the full
// parallel pipeline -- the workload class the paper's introduction
// motivates (detecting dense communities in online interaction networks).
//
// Generates a power-law graph with planted overlapping communities, mines
// maximal 0.9-quasi-cliques on an in-process G-thinker cluster, and prints
// both the communities and the engine's execution report (queues, spill,
// stealing, load balance).
//
// Build & run:  ./build/examples/community_detection

#include <algorithm>
#include <cstdio>

#include "graph/generators.h"
#include "mining/parallel_miner.h"

int main() {
  using namespace qcm;

  // A 50k-vertex social graph: sparse power-law periphery + 12 planted
  // overlapping communities of 20-28 members.
  std::vector<std::vector<VertexId>> planted;
  auto graph_or = GenPlantedCommunities({.num_vertices = 50000,
                                         .background =
                                             BackgroundModel::kPowerLaw,
                                         .ba_attach = 2,
                                         .num_communities = 12,
                                         .community_min = 20,
                                         .community_max = 28,
                                         .intra_density = 0.95,
                                         .overlap_fraction = 0.3,
                                         .seed = 2026},
                                        &planted);
  if (!graph_or.ok()) {
    std::fprintf(stderr, "%s\n", graph_or.status().ToString().c_str());
    return 1;
  }
  const Graph& graph = *graph_or;
  std::printf("Social graph: %u vertices, %lu edges, %zu planted "
              "communities\n",
              graph.NumVertices(),
              static_cast<unsigned long>(graph.NumEdges()), planted.size());

  // Simulated cluster: 2 machines x 2 mining threads, time-delayed task
  // decomposition (the paper's default strategy).
  EngineConfig config;
  config.num_machines = 2;
  config.threads_per_machine = 2;
  config.mode = DecomposeMode::kTimeDelayed;
  config.tau_time = 0.01;
  config.tau_split = 50;
  config.mining.gamma = 0.9;
  config.mining.min_size = 18;

  ParallelMiner miner(config);
  auto result = miner.Run(graph);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("\nFound %zu maximal 0.9-quasi-clique communities "
              "(>= %u members) in %.2f s\n",
              result->maximal.size(), config.mining.min_size,
              result->report.wall_seconds);
  // Largest five communities.
  auto communities = result->maximal;
  std::sort(communities.begin(), communities.end(),
            [](const VertexSet& a, const VertexSet& b) {
              return a.size() > b.size();
            });
  for (size_t i = 0; i < std::min<size_t>(5, communities.size()); ++i) {
    std::printf("  #%zu: %zu members, first ids:", i + 1,
                communities[i].size());
    for (size_t j = 0; j < std::min<size_t>(8, communities[i].size()); ++j) {
      std::printf(" %u", communities[i][j]);
    }
    std::printf(" ...\n");
  }

  // How many planted communities were recovered (contained in a result)?
  size_t recovered = 0;
  for (const auto& c : planted) {
    for (const auto& s : result->maximal) {
      if (std::includes(s.begin(), s.end(), c.begin(), c.end())) {
        ++recovered;
        break;
      }
    }
  }
  std::printf("Planted communities fully recovered inside results: %zu/%zu\n",
              recovered, planted.size());

  const EngineReport& r = result->report;
  std::printf("\nEngine report:\n");
  std::printf("  tasks completed     : %lu (queue admissions: %lu big, "
              "%lu small)\n",
              static_cast<unsigned long>(r.counters.tasks_completed),
              static_cast<unsigned long>(r.counters.big_tasks),
              static_cast<unsigned long>(r.counters.small_tasks));
  std::printf("  spilled to disk     : %lu tasks in %lu files\n",
              static_cast<unsigned long>(r.counters.spilled_tasks),
              static_cast<unsigned long>(r.counters.spill_files));
  std::printf("  stolen across nodes : %lu tasks in %lu transfers\n",
              static_cast<unsigned long>(r.counters.stolen_tasks),
              static_cast<unsigned long>(r.counters.steal_events));
  std::printf("  remote cache        : %lu hits / %lu misses\n",
              static_cast<unsigned long>(r.counters.cache_hits),
              static_cast<unsigned long>(r.counters.cache_misses));
  std::printf("  mining vs. materialization: %.3f s vs %.3f s\n",
              r.Total(&ThreadSummary::mining_seconds),
              r.Total(&ThreadSummary::materialize_seconds));
  std::printf("  thread busy max/min ratio : %.2f\n", r.BusyImbalance());
  return 0;
}
