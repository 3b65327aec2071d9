// Immutable undirected graph in CSR (compressed sparse row) form.
//
// This is the "big graph" store of the system (paper §5): vertices are
// identified by dense 32-bit ids, adjacency lists are sorted, and the
// structure is immutable after construction so it can be shared read-only by
// every mining thread and partitioned across the machines of an in-process
// cluster without synchronization.

#ifndef QCM_GRAPH_GRAPH_H_
#define QCM_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/status.h"

namespace qcm {

/// Dense vertex identifier. The set-enumeration order of the mining
/// algorithm (Figure 5 of the paper) is the natural order of the mined
/// graph's ids: input order for SerialMiner, degeneracy order for the
/// engine launchers, which mine OrderByDegeneracy's core (graph/kcore.h).
using VertexId = uint32_t;

/// An undirected edge as an unordered pair of endpoints.
using Edge = std::pair<VertexId, VertexId>;

/// Immutable CSR graph. Adjacency lists are sorted ascending and contain no
/// self-loops or duplicates.
class Graph {
 public:
  Graph() = default;

  /// Builds a graph with `num_vertices` vertices from flat endpoint pairs
  /// {u0, v0, u1, v1, ...}. Self-loops are dropped, duplicate edges (in
  /// either orientation) are collapsed. Returns InvalidArgument naming the
  /// first pair with an endpoint >= num_vertices, or for an odd count.
  /// The adjacency is built inside `endpoints`' own allocation, which the
  /// graph keeps (so its capacity is the buffer's, not 2*NumEdges()); the
  /// build needs 12 bytes per vertex beyond it: the offsets and one
  /// 32-bit count per vertex.
  static StatusOr<Graph> FromEndpoints(uint32_t num_vertices,
                                       std::vector<VertexId> endpoints);

  /// FromEndpoints of the flattened `edges`.
  static StatusOr<Graph> FromEdges(uint32_t num_vertices,
                                   std::vector<Edge> edges);

  /// Adopts a ready CSR: `offsets` has NumVertices()+1 entries from 0 to
  /// adj.size(), and each vertex's range of `adj` is sorted, free of
  /// self-loops and duplicates, and symmetric. The caller guarantees this
  /// (CompactKCore filters and renumbers an existing graph's lists); only
  /// the offsets' shape is checked.
  static Graph FromCsr(std::vector<uint64_t> offsets,
                       std::vector<VertexId> adj);

  /// Number of vertices (ids are 0 .. NumVertices()-1).
  uint32_t NumVertices() const {
    return offsets_.empty() ? 0 : static_cast<uint32_t>(offsets_.size() - 1);
  }

  /// Number of undirected edges.
  uint64_t NumEdges() const { return adj_.size() / 2; }

  /// Degree of vertex v; 0 for ids outside [0, NumVertices()) -- callers
  /// probing an empty or smaller graph must not read past offsets_.
  uint32_t Degree(VertexId v) const {
    if (static_cast<size_t>(v) + 1 >= offsets_.size()) return 0;
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Sorted neighbors of v; empty for ids outside [0, NumVertices()).
  std::span<const VertexId> Neighbors(VertexId v) const {
    if (static_cast<size_t>(v) + 1 >= offsets_.size()) return {};
    return {adj_.data() + offsets_[v],
            adj_.data() + offsets_[v + 1]};
  }

  /// True iff the undirected edge (u, v) exists. O(log deg) via binary
  /// search over the smaller adjacency list.
  bool HasEdge(VertexId u, VertexId v) const;

  /// Maximum degree over all vertices (0 for the empty graph).
  uint32_t MaxDegree() const;

  /// Approximate heap footprint in bytes.
  uint64_t MemoryBytes() const {
    return offsets_.size() * sizeof(uint64_t) + adj_.size() * sizeof(VertexId);
  }

 private:
  std::vector<uint64_t> offsets_;  // size NumVertices()+1
  std::vector<VertexId> adj_;      // size 2*NumEdges()
};

}  // namespace qcm

#endif  // QCM_GRAPH_GRAPH_H_
