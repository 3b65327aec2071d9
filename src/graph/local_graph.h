// LocalGraph: the materialized subgraph a mining task works on (t.g in the
// paper, §5-§6). Vertices carry *local* ids 0..n-1 that map to global
// VertexIds through a strictly increasing table, so local-id order equals
// global-id order and the set-enumeration discipline (Figure 5) can be
// enforced on local ids directly.
//
// LocalGraphs are created two ways:
//   * by ego-network materialization (Alg. 6-7) -- the shared EgoBuilder
//     layer (graph/ego_builder.h) that both the serial miner and the
//     G-thinker compute() iterations drive;
//   * by task decomposition (Alg. 8 line 19 / Alg. 10), via Induce() --
//     whose cost is the "subgraph materialization time" measured in Table 6.
//
// They are serializable because tasks get spilled to disk and stolen across
// machines.

#ifndef QCM_GRAPH_LOCAL_GRAPH_H_
#define QCM_GRAPH_LOCAL_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/serde.h"
#include "util/status.h"

namespace qcm {

/// Local vertex index inside a LocalGraph.
using LocalId = uint32_t;

/// Compact CSR subgraph with a local->global id table.
class LocalGraph {
 public:
  LocalGraph() = default;

  /// Number of vertices in the subgraph.
  uint32_t n() const {
    return offsets_.empty() ? 0 : static_cast<uint32_t>(offsets_.size() - 1);
  }

  /// Number of undirected edges.
  uint64_t NumEdges() const { return adj_.size() / 2; }

  /// Degree of v; 0 for ids outside [0, n()) (empty graphs included).
  uint32_t Degree(LocalId v) const {
    if (static_cast<size_t>(v) + 1 >= offsets_.size()) return 0;
    return offsets_[v + 1] - offsets_[v];
  }

  /// Sorted (ascending local id) neighbors of v; empty outside [0, n()).
  std::span<const LocalId> Neighbors(LocalId v) const {
    if (static_cast<size_t>(v) + 1 >= offsets_.size()) return {};
    return {adj_.data() + offsets_[v], adj_.data() + offsets_[v + 1]};
  }

  /// Global id of local vertex v.
  VertexId GlobalId(LocalId v) const { return vids_[v]; }

  /// Full local->global table (strictly increasing).
  const std::vector<VertexId>& GlobalIds() const { return vids_; }

  /// Local id of a global vertex, or n() if absent. O(log n).
  LocalId FindLocal(VertexId global) const;

  /// True iff the local edge (u, v) exists. O(log deg).
  bool HasEdge(LocalId u, LocalId v) const;

  /// Subgraph induced on `keep` (sorted ascending local ids of *this*).
  /// Global ids are preserved. This is the decomposition materialization
  /// step whose cost Table 6 accounts separately from mining.
  LocalGraph Induce(const std::vector<LocalId>& keep) const;

  /// k-core of this subgraph (peels vertices of induced degree < k).
  /// Global ids are preserved.
  LocalGraph KCore(uint32_t k) const;

  /// Approximate heap footprint in bytes (used for RAM accounting).
  uint64_t MemoryBytes() const {
    return vids_.size() * sizeof(VertexId) +
           offsets_.size() * sizeof(uint32_t) + adj_.size() * sizeof(LocalId) +
           dense_bits_.size() * sizeof(uint64_t);
  }

  /// True iff per-vertex adjacency bitmap rows are materialized alongside
  /// the CSR (the dense half of the hybrid representation).
  bool has_dense() const { return dense_words_ != 0; }

  /// Words per dense row: ceil(n/64); 0 when rows are absent.
  uint32_t DenseWords() const { return dense_words_; }

  /// Dense adjacency row of v: DenseWords() uint64 words, bit w set iff
  /// edge (v, w) exists. Only valid when has_dense().
  const uint64_t* DenseRow(LocalId v) const {
    return dense_bits_.data() + static_cast<size_t>(v) * dense_words_;
  }

  /// Materializes the dense rows from the CSR. Idempotent; no-op when
  /// n() == 0. The rows are a derived cache: they are never serialized
  /// (Encode/Decode carry CSR only) and do not participate in equality.
  void BuildDenseRows();

  /// Binary serialization (task spill / steal).
  void Encode(Encoder* enc) const;
  static StatusOr<LocalGraph> Decode(Decoder* dec);

  /// Equality is over the serialized CSR identity only; the dense rows are
  /// a derived cache and deliberately excluded, so a decoded graph compares
  /// equal to the one that was encoded.
  bool operator==(const LocalGraph& other) const {
    return vids_ == other.vids_ && offsets_ == other.offsets_ &&
           adj_ == other.adj_;
  }

 private:
  friend class EgoBuilder;

  std::vector<VertexId> vids_;     // strictly increasing
  std::vector<uint32_t> offsets_;  // size n()+1
  std::vector<LocalId> adj_;       // sorted within each range

  // Hybrid dense representation: n() rows of dense_words_ words each,
  // materialized on demand for small subgraphs. Never serialized.
  uint32_t dense_words_ = 0;
  std::vector<uint64_t> dense_bits_;
};

}  // namespace qcm

#endif  // QCM_GRAPH_LOCAL_GRAPH_H_
