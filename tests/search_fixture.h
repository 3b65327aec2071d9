// A fixed Quick+ search for kernel tests: a 300-vertex planted-community
// graph as one task graph, mined from roots 0..kSearchRoots-1, each with
// ext = every later vertex within two hops of it (the set-enumeration
// discipline of a root's ego network). It reaches emission, lookahead,
// critical-vertex moves, cover skips and diameter cuts.

#ifndef QCM_TESTS_SEARCH_FIXTURE_H_
#define QCM_TESTS_SEARCH_FIXTURE_H_

#include <vector>

#include "graph/ego_builder.h"
#include "graph/generators.h"
#include "graph/local_graph.h"
#include "quick/quasi_clique.h"

namespace qcm {

/// `src` as one LocalGraph (local id == global id).
inline LocalGraph FullLocalGraph(const Graph& src) {
  EgoBuilder builder;
  for (VertexId v = 0; v < src.NumVertices(); ++v) {
    std::vector<VertexId> adj(src.Neighbors(v).begin(),
                              src.Neighbors(v).end());
    builder.Stage(v, adj);
  }
  return builder.Build();
}

inline LocalGraph PlantedSearchGraph() {
  auto src = std::move(GenPlantedCommunities({.num_vertices = 300,
                                              .num_communities = 3,
                                              .community_min = 9,
                                              .community_max = 12,
                                              .intra_density = 0.92,
                                              .overlap_fraction = 0.3,
                                              .seed = 21}))
                 .value();
  return FullLocalGraph(src);
}

inline constexpr LocalId kSearchRoots = 80;

inline MiningOptions SearchOptions(bool dense) {
  MiningOptions opts;
  opts.gamma = 0.85;
  opts.min_size = 6;
  opts.dense_threshold = dense ? (int64_t{1} << 20) : 0;
  return opts;
}

/// The vertices after `root` within two hops of it, ascending.
inline std::vector<LocalId> LaterTwoHopBall(const LocalGraph& g,
                                            LocalId root) {
  std::vector<bool> in_ball(g.n(), false);
  for (LocalId u : g.Neighbors(root)) {
    in_ball[u] = true;
    for (LocalId w : g.Neighbors(u)) in_ball[w] = true;
  }
  std::vector<LocalId> ext;
  for (LocalId u = root + 1; u < g.n(); ++u) {
    if (in_ball[u]) ext.push_back(u);
  }
  return ext;
}

}  // namespace qcm

#endif  // QCM_TESTS_SEARCH_FIXTURE_H_
