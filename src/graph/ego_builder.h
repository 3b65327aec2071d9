// EgoBuilder: the single implementation of task-subgraph materialization
// (the paper's Alg. 6-7) shared by every miner in the system.
//
// A spawned root's task subgraph is its 2-hop ego network, shrunk:
//   * iteration 1 (Alg. 6) pulls the root's 1-hop frontier, keeps only ids
//     larger than the root (set-enumeration discipline, Figure 5), splits
//     it by the Theorem-2 degree filter (deg >= k), stages the surviving
//     vertices with their adjacency, and peels the staged structure to its
//     k-core -- counting not-yet-pulled 2-hop endpoints ("phantoms")
//     toward peel degrees exactly as Alg. 6 line 10 prescribes;
//   * iteration 2 (Alg. 7) pulls the 2-hop frontier, restricts adjacency
//     to the pulled ball B (anything outside B is 3 hops from the root and
//     cannot share a diameter-2 quasi-clique with it, Theorem 1), peels
//     again, and compiles the survivors into a CSR LocalGraph.
//
// The builder is parameterized over EgoVertexSource so the serial miner
// (direct CSR reads) and the G-thinker ComputeContext (vertex pulling,
// metrics-counted) drive the identical code.
//
// All intermediate state lives in an EgoScratch of flat epoch-marked
// arrays: after warm-up, building an ego network performs zero heap
// allocations besides the returned LocalGraph itself. One scratch is meant
// to be owned per mining thread (per comper) and reused across tasks.

#ifndef QCM_GRAPH_EGO_BUILDER_H_
#define QCM_GRAPH_EGO_BUILDER_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/local_graph.h"

namespace qcm {

/// Read access to the big graph's vertices, from whatever medium the caller
/// mines over. Adjacency spans are valid only until the next Adjacency()
/// call on the same source.
class EgoVertexSource {
 public:
  virtual ~EgoVertexSource() = default;

  /// Degree of v (vertex metadata; no adjacency transfer). A source may
  /// report 0 for vertices it wants excluded from materialization.
  virtual uint32_t Degree(VertexId v) = 0;

  /// Sorted adjacency list of v.
  virtual std::span<const VertexId> Adjacency(VertexId v) = 0;
};

/// EgoVertexSource over an in-memory CSR Graph, optionally masked: vertices
/// with mask[v] == 0 report degree 0 and are therefore never staged (the
/// serial miner passes its global k-core mask so egos never contain
/// globally peeled vertices).
class GraphVertexSource final : public EgoVertexSource {
 public:
  explicit GraphVertexSource(const Graph* graph,
                             const std::vector<uint8_t>* mask = nullptr)
      : graph_(graph), mask_(mask) {}

  uint32_t Degree(VertexId v) override {
    if (mask_ != nullptr && !(*mask_)[v]) return 0;
    return graph_->Degree(v);
  }

  std::span<const VertexId> Adjacency(VertexId v) override {
    return graph_->Neighbors(v);
  }

 private:
  const Graph* graph_;
  const std::vector<uint8_t>* mask_;
};

/// Reusable flat scratch for EgoBuilder. Per-vertex arrays are invalidated
/// wholesale by bumping an epoch counter, so resetting between tasks is
/// O(1) and staging never touches a hash map. Grows monotonically to the
/// largest vertex-id space seen; steady-state use allocates nothing.
class EgoScratch {
 public:
  EgoScratch() = default;

  /// Ensures per-vertex arrays cover ids [0, num_vertices) and starts a
  /// fresh task (previous marks and staged entries all become invalid).
  void Reset(uint32_t num_vertices);

  /// Approximate heap footprint in bytes.
  uint64_t MemoryBytes() const;

 private:
  friend class EgoBuilder;

  // Guards against the (never expected in practice) epoch wrap-around: on
  // wrap every per-vertex array is cleared explicitly.
  void HandleEpochWrap();
  // Grows per-vertex arrays to cover id v.
  void EnsureVertex(VertexId v);

  uint32_t epoch_ = 0;

  // ---- Per-vertex arrays (indexed by global VertexId) ----
  std::vector<uint32_t> mark_epoch_;  // epoch in which flags_[v] is valid
  std::vector<uint8_t> flags_;        // kOneHop / kExcluded / kInBall bits
  std::vector<uint32_t> slot_epoch_;  // epoch in which slot_of_[v] is valid
  std::vector<uint32_t> slot_of_;     // staged slot index of v

  // ---- Per-slot arrays (one slot per staged vertex, dense) ----
  std::vector<VertexId> slot_vid_;
  std::vector<uint8_t> slot_alive_;
  std::vector<uint32_t> slot_adj_begin_;  // [begin, end) into adj_pool_
  std::vector<uint32_t> slot_adj_end_;

  // ---- Pools and work buffers ----
  std::vector<VertexId> adj_pool_;     // staged adjacency, bump-allocated
  std::vector<VertexId> frontier_;     // V1 / second-hop staging lists
  std::vector<VertexId> filter_buf_;   // per-vertex filtered adjacency
  std::vector<VertexId> phantom_buf_;  // sorted distinct phantom targets
  std::vector<VertexId> vids_buf_;     // sorted alive vids at compile time
  std::vector<uint32_t> local_buf_;    // slot -> local id at compile time
  std::vector<uint32_t> cursor_buf_;   // CSR fill cursors at compile time
  std::vector<uint64_t> edge_buf_;     // packed (min,max) local edge list
};

/// Builds LocalGraphs from staged per-vertex adjacency. Two usage modes:
///
///   * BuildEgo() runs Alg. 6-7 end to end against an EgoVertexSource --
///     the one call every miner's materialization path goes through;
///   * the Stage / PeelToKCore / Build primitives are exposed directly for
///     tests and ad-hoc LocalGraph construction (they are the same
///     primitives BuildEgo is made of).
///
/// A default-constructed builder owns a private scratch; hot paths pass a
/// long-lived per-thread scratch instead.
class EgoBuilder {
 public:
  /// Uses an internally owned scratch (convenience for tests/tools).
  EgoBuilder();

  /// Borrows `scratch` (must outlive the builder). The scratch is reset
  /// lazily by BuildEgo()/Reset(); a freshly borrowed scratch can be used
  /// for staging immediately after construction.
  explicit EgoBuilder(EgoScratch* scratch);

  EgoBuilder(const EgoBuilder&) = delete;
  EgoBuilder& operator=(const EgoBuilder&) = delete;

  /// Materializes the task subgraph of `root` (Alg. 6-7): 1-hop pull with
  /// the Theorem-2 degree filter and the > root discipline, phantom-aware
  /// k-core peeling, 2-hop pull under the Theorem-1 diameter bound, final
  /// CSR compile. Returns an empty LocalGraph when the task dies (root
  /// peeled, no qualifying frontier, or fewer than `min_size` survivors).
  /// Equivalent to BuildEgoFirstHop + SecondHopPullSet + BuildEgoSecondHop
  /// run back to back.
  LocalGraph BuildEgo(EgoVertexSource& source, VertexId root, uint32_t k,
                      uint32_t min_size);

  // ---- Phased build (the pull-based engine's iteration boundaries) ----
  //
  // The G-thinker compute model runs Alg. 6 and Alg. 7 in separate
  // iterations with a batched vertex pull (and a task suspension) between
  // them. These three calls expose that boundary: FirstHop stages and
  // peels the 1-hop structure, SecondHopPullSet names exactly the
  // vertices Alg. 7 will read (so the caller can Request() them and
  // suspend), and SecondHop finishes the build. State lives in the
  // scratch, so the trio must run on one builder without interleaving
  // other builds; a caller that suspended in between instead re-runs
  // BuildEgo from its (now pinned) vertices.

  /// Alg. 6 alone: stages root + the qualifying 1-hop frontier with
  /// filtered adjacency and peels to the k-core. Returns false when the
  /// task dies here (no qualifying frontier or root peeled).
  bool BuildEgoFirstHop(EgoVertexSource& source, VertexId root, uint32_t k);

  /// The vertices Alg. 7 will pull: 2-hop frontier members (marked into
  /// the ball as a side effect) passing the Theorem-2 degree filter,
  /// ascending. Call exactly once, after a successful BuildEgoFirstHop.
  std::vector<VertexId> SecondHopPullSet(EgoVertexSource& source,
                                         uint32_t k);

  /// Alg. 7: stages the 2-hop ball computed by SecondHopPullSet, peels,
  /// and compiles. Returns an empty LocalGraph when the task dies.
  LocalGraph BuildEgoSecondHop(EgoVertexSource& source, VertexId root,
                               uint32_t k, uint32_t min_size);

  // ---- Staging primitives ----

  /// Discards all staged state and starts a fresh build.
  void Reset();

  /// Stages a vertex with its (global-id) adjacency. The adjacency may
  /// reference vertices that are never staged ("phantom" 2-hop endpoints
  /// in Alg. 6); they count toward peeling degrees but are dropped at
  /// Build() unless staged by then. Staging the same vertex twice
  /// overwrites.
  void Stage(VertexId v, std::span<const VertexId> adj);
  void Stage(VertexId v, std::initializer_list<VertexId> adj) {
    Stage(v, std::span<const VertexId>(adj.begin(), adj.size()));
  }

  /// True iff v has been staged and not peeled.
  bool IsStaged(VertexId v) const;

  /// Number of staged (alive) vertices.
  size_t StagedCount() const;

  /// Current adjacency length of a staged vertex (phantoms included);
  /// 0 if not staged.
  size_t AdjLength(VertexId v) const;

  /// Distinct adjacency targets of alive entries that are not themselves
  /// staged-alive ("phantom" endpoints -- the 2-hop frontier Alg. 6 pulls
  /// in its lines 12-15), ascending.
  std::vector<VertexId> PhantomTargets() const;

  /// Peels staged vertices whose current adjacency length is < k,
  /// cascading removals (entries pointing at peeled vertices are erased;
  /// phantom entries are never peeled). Mirrors "t.g <- k-core(t.g)" in
  /// Alg. 6 line 10 / Alg. 7 line 9.
  void PeelToKCore(uint32_t k);

  /// Compiles the staged structure into a LocalGraph. Adjacency entries
  /// whose target was never staged (or was peeled) are dropped; edges are
  /// made symmetric (an edge is kept iff either endpoint listed it).
  /// When a dense threshold is set and the compiled subgraph has
  /// 0 < n <= threshold vertices, its adjacency bitmap rows are
  /// materialized too (LocalGraph::BuildDenseRows).
  LocalGraph Build() const;

  /// Subgraphs compiled with n <= `threshold` vertices get dense bitmap
  /// rows; <= 0 disables dense materialization (the default).
  void set_dense_threshold(int64_t threshold) {
    dense_threshold_ = threshold > 0 ? static_cast<uint64_t>(threshold) : 0;
  }

 private:
  // Phantom targets of alive entries, sorted distinct, into
  // scratch->phantom_buf_.
  void CollectPhantomTargets() const;

  // Epoch-validated per-vertex flag helpers (kOneHop/kExcluded/kInBall).
  void MarkFlag(VertexId v, uint8_t bit);
  bool HasFlag(VertexId v, uint8_t bit) const;

  // Computes the 2-hop ball into the scratch frontier and marks kInBall
  // (the allocation-free core of SecondHopPullSet).
  void MarkSecondHopBall();

  std::unique_ptr<EgoScratch> owned_;
  EgoScratch* scratch_;
  uint64_t dense_threshold_ = 0;
};

}  // namespace qcm

#endif  // QCM_GRAPH_EGO_BUILDER_H_
