// Graph summary statistics used by the dataset table (Table 1).

#ifndef QCM_GRAPH_STATS_H_
#define QCM_GRAPH_STATS_H_

#include <cstdint>

#include "graph/graph.h"

namespace qcm {

/// Degree and size summary of a graph.
struct GraphStats {
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;
  uint32_t min_degree = 0;
  uint32_t max_degree = 0;
  double avg_degree = 0.0;
  /// 2m / (n*(n-1)).
  double density = 0.0;
};

/// Computes the summary in one pass.
GraphStats ComputeGraphStats(const Graph& g);

}  // namespace qcm

#endif  // QCM_GRAPH_STATS_H_
