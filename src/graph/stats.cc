#include "graph/stats.h"

#include <algorithm>

namespace qcm {

GraphStats ComputeGraphStats(const Graph& g) {
  GraphStats s;
  s.num_vertices = g.NumVertices();
  s.num_edges = g.NumEdges();
  if (s.num_vertices == 0) return s;
  s.min_degree = UINT32_MAX;
  uint64_t total = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    uint32_t d = g.Degree(v);
    s.min_degree = std::min(s.min_degree, d);
    s.max_degree = std::max(s.max_degree, d);
    total += d;
  }
  s.avg_degree = static_cast<double>(total) / static_cast<double>(s.num_vertices);
  if (s.num_vertices > 1) {
    s.density = 2.0 * static_cast<double>(s.num_edges) /
                (static_cast<double>(s.num_vertices) *
                 static_cast<double>(s.num_vertices - 1));
  }
  return s;
}

}  // namespace qcm
