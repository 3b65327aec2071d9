// k-core reduction (paper §4 T1) and the bucket-peeling core
// decomposition of Batagelj & Zaversnik (paper reference [13]).
//
// The size-threshold pruning (P2, Theorem 2) reduces the input graph to its
// k-core with k = ceil(gamma * (tau_size - 1)) before any mining; the paper
// reports this single preprocessing step as "a dominating factor to scale
// beyond a small graph" (§4 T1). Every miner applies it: SerialMiner masks
// its ego builds with KCoreMask, and every engine launcher --
// ParallelMiner::RunUnfiltered, qcm_mine's engine path and qcm_cluster's
// pack step -- mines OrderByDegeneracy(CompactKCore(...)): the core in its
// own id space, so every per-vertex structure of the run is sized by the
// core, not by the input, and numbered smallest-last, so every root has at
// most the core's degeneracy of later neighbours (Quick+ gives root v only
// the vertices after v). qcm_mine's engine path and qcm_cluster's pack
// step load an edge list through LoadEdgeList's k-core prefilter
// (graph/edge_io.h), which drops edges outside the core from the flat
// endpoint buffer before any CSR is built: CompactKCore then peels a
// graph of every input vertex but only the edges the prefilter kept, and
// decides the core exactly. perfbench times KCoreMask as its own layer,
// and CoreDecomposition serves graph_test and bench_micro_kernels.

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
  /// Compact id -> input id: ascending from CompactKCore, a permutation
  /// of those ids from OrderByDegeneracy. A set of compact ids maps to a
  /// set of input ids that must be re-sorted (MapToInputIds does).
  std::vector<VertexId> ids;
  /// The core's largest core number, which no vertex's count of later
  /// neighbours exceeds; set by OrderByDegeneracy, 0 before it.
  uint32_t degeneracy = 0;
};

/// The k-core renumbered to [0, |core|) in ascending input-id order. Every
/// gamma-quasi-clique of at least tau_size vertices lies in it (each
/// member has >= k neighbors inside it), and so does every larger
/// quasi-clique that could make it non-maximal: mining it and mapping the
/// results through `ids` is exact, as set enumeration is under any total
/// vertex order. Beyond the core it returns, it holds 4 bytes per input
/// vertex (the peel's degrees, overwritten into the input -> compact map)
/// and the peel's stack.
KCore CompactKCore(const Graph& g, uint32_t k);

/// `core` renumbered in degeneracy (smallest-last) order: vertex c is the
/// c-th vertex the bucket peel of CoreDecomposition removes, so each
/// vertex has at most its core number of later neighbours, and `ids` maps
/// through to the same input ids. The peel starts from the given ids, so
/// the order is deterministic. Every row is rebuilt sorted by one
/// transpose fill. O(|V| + |E|) of the core. Beyond the input and output
/// cores it holds the peel's core numbers, ranks and degree buckets, at
/// most 3|V| + 2 32-bit words; `ids` reuses the peel's order array.
KCore OrderByDegeneracy(KCore core);

}  // namespace qcm

#endif  // QCM_GRAPH_KCORE_H_
