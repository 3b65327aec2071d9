// k-core reduction (paper §4 T1) and the bucket-peeling core
// decomposition of Batagelj & Zaversnik (paper reference [13]).
//
// The size-threshold pruning (P2, Theorem 2) reduces the input graph to its
// k-core with k = ceil(gamma * (tau_size - 1)) before any mining; the paper
// reports this single preprocessing step as "a dominating factor to scale
// beyond a small graph" (§4 T1). Every miner applies it: SerialMiner masks
// its ego builds with KCoreMask, and every engine launcher mines
// CompactKCore -- ParallelMiner::RunUnfiltered, qcm_mine's engine path and
// qcm_cluster's pack step -- in the core's own id space, so every
// per-vertex structure of the run is sized by the core, not by the input.
// perfbench times KCoreMask as its own layer, and CoreDecomposition serves
// graph_test and bench_micro_kernels.

#ifndef QCM_GRAPH_KCORE_H_
#define QCM_GRAPH_KCORE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace qcm {

/// Core number of every vertex (the largest k such that the vertex belongs
/// to the k-core). O(n + m) time, O(n) extra space.
std::vector<uint32_t> CoreDecomposition(const Graph& g);

/// Membership mask of the k-core: out[v] != 0 iff v survives peeling with
/// threshold k. One threshold peel over one 32-bit degree per vertex,
/// O(n + m).
std::vector<uint8_t> KCoreMask(const Graph& g, uint32_t k);

/// Number of vertices in the k-core.
uint64_t KCoreSize(const Graph& g, uint32_t k);

/// The k-core in its own compact id space.
struct KCore {
  /// Vertex c is input vertex ids[c]; its list is the input's list
  /// filtered to k-core vertices and renumbered, so every degree is >= k.
  Graph graph;
  /// Compact id -> input id, ascending: the map is monotone, so a sorted
  /// set of compact ids maps to a sorted set of input ids.
  std::vector<VertexId> ids;
};

/// The k-core renumbered to [0, |core|) in ascending input-id order. Every
/// gamma-quasi-clique of at least tau_size vertices lies in it (each
/// member has >= k neighbors inside it), and so does every larger
/// quasi-clique that could make it non-maximal: mining it and mapping the
/// results through `ids` is exact, and keeps the set-enumeration order.
/// Beyond the core it returns, it holds 4 bytes per input vertex (the
/// peel's degrees, overwritten into the input -> compact map) and the
/// peel's stack.
KCore CompactKCore(const Graph& g, uint32_t k);

}  // namespace qcm

#endif  // QCM_GRAPH_KCORE_H_
