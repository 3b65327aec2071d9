// k-core reduction (paper §4 T1) and the bucket-peeling core
// decomposition of Batagelj & Zaversnik (paper reference [13]).
//
// The size-threshold pruning (P2, Theorem 2) reduces the input graph to its
// k-core with k = ceil(gamma * (tau_size - 1)) before any mining; the paper
// reports this single preprocessing step as "a dominating factor to scale
// beyond a small graph" (§4 T1). Every miner applies it: SerialMiner masks
// its ego builds with KCoreMask, and every engine launcher mines
// KCoreSubgraph -- ParallelMiner::RunUnfiltered, qcm_mine's engine path and
// qcm_cluster's pack step. perfbench times KCoreMask as its own layer, and
// CoreDecomposition serves graph_test and bench_micro_kernels.

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
/// threshold k. One threshold peel, O(n + m).
std::vector<uint8_t> KCoreMask(const Graph& g, uint32_t k);

/// Number of vertices in the k-core.
uint64_t KCoreSize(const Graph& g, uint32_t k);

/// The k-core as a graph over the same vertex ids: each k-core vertex keeps
/// its neighbors inside the k-core, and every other vertex keeps its id
/// with degree 0. So v is in the k-core iff its degree here is >= k. Every
/// gamma-quasi-clique of at least tau_size vertices lies in this subgraph
/// (each member has >= k neighbors inside it), and so does every larger
/// quasi-clique that could make it non-maximal: mining it is exact.
Graph KCoreSubgraph(const Graph& g, uint32_t k);

}  // namespace qcm

#endif  // QCM_GRAPH_KCORE_H_
