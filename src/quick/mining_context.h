// MiningContext: per-task state shared by the pruning machinery --
// the task's LocalGraph, options, scratch arrays (degree buffers, vertex
// state flags, epoch marks), statistics counters, the result sink, and the
// time-delayed decomposition hook (deadline + subtask sink).
//
// One context is created per mining task; it is not thread-safe and not
// shared across tasks. Its scratch arrays live in a MiningScratch that is
// meant to be pooled per mining thread (per comper) and reused across
// tasks: per-vertex arrays, one search frame per depth of the Quick+
// recursion and the kernels' working buffers all grow to the largest task
// seen. Once warm, a search node allocates only the result sets it emits
// (0.19 malloc calls per node for the serial miner on the benchmark's
// `heavy` graph, result sets and per-root ego builds included).
//
// Hybrid dense/sparse kernels: when the task subgraph is small enough
// (MiningOptions::dense_threshold) the context switches the four pruning
// hot paths -- degree recomputation, two-hop filtering, cover-vertex
// intersection, validity checking -- to word-parallel popcounts over
// per-vertex adjacency bitmap rows, maintaining S/ext membership bitsets
// incrementally via SetVState(). Every dense kernel is arithmetic-identical
// to its scalar CSR twin, so emitted sets, pruning counters, and therefore
// cluster digests are bit-identical in both modes.

#ifndef QCM_QUICK_MINING_CONTEXT_H_
#define QCM_QUICK_MINING_CONTEXT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "graph/local_graph.h"
#include "quick/gamma.h"
#include "quick/quasi_clique.h"
#include "util/timer.h"

namespace qcm {

/// Membership state of a local vertex during iterative bounding.
enum class VState : uint8_t {
  kOut = 0,
  kInS = 1,
  kInExt = 2,
};

/// The MiningStats registry: X(name) declares one work or pruning counter.
/// Every row is a uint64_t that sums across tasks, threads and ranks; the
/// rows generate the struct, Add, the report codec and the `mining_<name>`
/// keys of --stats-json (gthinker/metrics.cc).
#define QCM_MINING_STATS(X)                                                \
  X(nodes_explored)       /* recursive_mine invocations */                 \
  X(bounding_iterations)  /* Alg. 1 loop iterations */                     \
  X(emitted)              /* candidate quasi-cliques emitted */            \
  X(subsumed)             /* emitted ones the task's own filter dropped */ \
  X(type1_degree_pruned)  /* Theorem 3 */                                  \
  X(type1_upper_pruned)   /* Theorem 5 */                                  \
  X(type1_lower_pruned)   /* Theorem 7 */                                  \
  X(type2_prunes)         /* Theorems 4/6/8 subtree prunes */              \
  X(bound_fail_prunes)    /* Eq. (4)/(7)/(8) infeasible or U < L */        \
  X(critical_moves)       /* Theorem 9 expansions */                       \
  X(cover_skipped)        /* vertices skipped via CS(u) (P7) */            \
  X(lookahead_hits)       /* Alg. 2 lines 8-10 */                          \
  X(diameter_filtered)    /* ext(S') candidates cut by B(v) (P1) */        \
  X(size_prunes)          /* Alg. 2 line 6 */                              \
  X(subtasks_spawned)     /* time-delayed decomposition wraps */           \
  X(dense_tasks)          /* tasks mined with bitmap rows */               \
  X(sparse_tasks)         /* tasks mined over CSR scans only */            \
  X(bitset_words_touched) /* uint64 words the dense kernels read */

/// Work and pruning counters (merged across tasks/threads for reports).
struct MiningStats {
#define QCM_MINING_STAT_FIELD(name) uint64_t name = 0;
  QCM_MINING_STATS(QCM_MINING_STAT_FIELD)
#undef QCM_MINING_STAT_FIELD

  void Add(const MiningStats& other);
};

/// Calls visit(name, s.<row>...) for every QCM_MINING_STATS row, in order;
/// several MiningStats are walked in step.
template <typename Visit, typename... Stats>
void VisitMiningStats(Visit&& visit, Stats&... s) {
#define QCM_VISIT_MINING_STAT(name) visit(#name, s.name...);
  QCM_MINING_STATS(QCM_VISIT_MINING_STAT)
#undef QCM_VISIT_MINING_STAT
}

/// Signature of the time-delayed decomposition hook: receives <S', ext(S')>
/// in *local ids* of the context's graph and wraps them into a new task
/// (Alg. 10 lines 19-22).
using SubtaskSink = std::function<void(const std::vector<LocalId>& s,
                                       const std::vector<LocalId>& ext)>;

/// One depth of the Quick+ search (Alg. 2): the node's S, ext(S), and the
/// cover set C_S(u*) whose members it never branches on (lines 2-4).
struct SearchFrame {
  std::vector<LocalId> s;
  std::vector<LocalId> ext;
  std::vector<LocalId> cover;
};

/// Working buffers of the pruning kernels. Each is live only inside one
/// kernel call, so one set serves every depth.
struct KernelBuffers {
  std::vector<int64_t> ds_s, ds_ext;  // FindBestCoverSet: dS over S, ext
  std::vector<LocalId> cover;         // its scalar path's working cover
  std::vector<uint32_t> sorted_ds;    // ComputeBounds: dS(ext), descending
  std::vector<int64_t> prefix;        // ComputeBounds: its prefix sums
  std::vector<LocalId> tail;          // MoveCoverToTail's partition
};

/// Reusable per-thread scratch backing MiningContext: per-vertex state and
/// degree arrays, epoch-marked tag arrays, the word buffers of the dense
/// bitset kernels, the search frames and the kernels' working buffers.
/// Everything grows monotonically to the largest task seen and epochs
/// persist across tasks, so steady-state reuse allocates nothing. Owned by
/// one mining thread (one comper); never shared.
class MiningScratch {
 public:
  MiningScratch() = default;

  /// Approximate heap footprint in bytes. Capacities, not sizes: several
  /// arrays are assign()ed down for small tasks but their allocations
  /// persist (that persistence is the point of pooling).
  uint64_t MemoryBytes() const;

 private:
  friend class MiningContext;

  std::vector<uint8_t> state_;
  std::vector<uint32_t> ds_, dext_;
  std::vector<uint32_t> mark1_, mark2_;
  uint32_t epoch1_ = 0, epoch2_ = 0;

  // ---- Dense-kernel buffers (sized in words = ceil(n/64)) ----
  std::vector<uint64_t> in_s_mask_;    // bit v set iff state[v] == kInS
  std::vector<uint64_t> in_ext_mask_;  // bit v set iff state[v] == kInExt
  std::vector<uint64_t> word_buf_;     // kNumWordBufs task-local slots
  std::vector<uint64_t> rows_;  // adjacency rows when the graph has none

  // A deque, so adding a depth never moves the frames a shallower node
  // still holds.
  std::deque<SearchFrame> frames_;
  KernelBuffers buffers_;
};

class MiningContext {
 public:
  /// `graph` and `sink` must outlive the context. `scratch` (optional)
  /// is the pooled per-thread arena; when null the context owns a private
  /// one (convenience for tests/tools -- it then allocates per task).
  /// REQUIRES: options.Validate().ok() and gamma successfully created,
  /// enforced by the callers that construct contexts (miners/engine).
  MiningContext(const LocalGraph* graph, const MiningOptions& options,
                ResultSink* sink, MiningScratch* scratch = nullptr);

  const LocalGraph& g() const { return *graph_; }
  const MiningOptions& opts() const { return options_; }
  const Gamma& gamma() const { return gamma_; }

  /// ceil(gamma * x), exact.
  int64_t CeilGamma(int64_t x) const { return gamma_.CeilMul(x); }

  // ---- time-delayed decomposition hook (Alg. 9-10) ----

  /// Arms the timeout: tasks may mine for `tau_time_seconds` before the
  /// remaining workload is wrapped into subtasks through `sink`.
  void ArmTimeout(double tau_time_seconds, SubtaskSink sink);

  /// True iff a timeout is armed and has expired.
  bool TimedOut() const {
    return deadline_micros_ >= 0 && NowMicros() > deadline_micros_;
  }
  const SubtaskSink& subtask_sink() const { return subtask_sink_; }

  // ---- candidate emission ----

  /// If |s| >= tau_size and G(s) is a gamma-quasi-clique, emits the global
  /// id set and returns true.
  bool CheckAndEmit(std::span<const LocalId> s);

  /// Emits without checking (caller already verified validity).
  void EmitVerified(std::span<const LocalId> s);

  /// Validity of G(A ∪ B) by Definition 1 (degree condition only; gamma >=
  /// 0.5 implies connectivity). A and B must be disjoint.
  bool IsQuasiCliqueUnion(std::span<const LocalId> a,
                          std::span<const LocalId> b);

  bool IsQuasiClique(std::span<const LocalId> s) {
    return IsQuasiCliqueUnion(s, {});
  }

  // ---- scratch shared by the pruning machinery ----
  // state_/ds_/dext_ are owned by IterativeBounding while it runs; the
  // helpers outside it (cover vertex, two-hop filter, validity checks) use
  // only the epoch marks and the dense word buffers.

  std::vector<uint8_t>& state() { return scratch_->state_; }
  std::vector<uint32_t>& ds() { return scratch_->ds_; }
  std::vector<uint32_t>& dext() { return scratch_->dext_; }

  /// The one sanctioned writer of state(): updates the byte AND, on the
  /// dense path, the incremental S/ext membership bitsets the word-parallel
  /// degree kernel popcounts against. All state transitions (StateGuard
  /// setup/restore, critical-vertex moves, Type-I prunes) go through here.
  void SetVState(LocalId v, VState st) {
    scratch_->state_[v] = static_cast<uint8_t>(st);
    if (!dense_) return;
    const size_t w = v >> 6;
    const uint64_t bit = uint64_t{1} << (v & 63);
    scratch_->in_s_mask_[w] &= ~bit;
    scratch_->in_ext_mask_[w] &= ~bit;
    if (st == VState::kInS) {
      scratch_->in_s_mask_[w] |= bit;
    } else if (st == VState::kInExt) {
      scratch_->in_ext_mask_[w] |= bit;
    }
  }

  /// Starts a fresh epoch on mark array 1 and returns its tag.
  uint32_t NewMark() {
    if (++scratch_->epoch1_ == 0) HandleMarkWrap(&scratch_->mark1_);
    return scratch_->epoch1_;
  }
  void Mark(LocalId v, uint32_t tag) { scratch_->mark1_[v] = tag; }
  bool Marked(LocalId v, uint32_t tag) const {
    return scratch_->mark1_[v] == tag;
  }

  /// Second, independent mark array (for nested set operations).
  uint32_t NewMark2() {
    if (++scratch_->epoch2_ == 0) HandleMarkWrap(&scratch_->mark2_);
    return scratch_->epoch2_;
  }
  void Mark2(LocalId v, uint32_t tag) { scratch_->mark2_[v] = tag; }
  bool Marked2(LocalId v, uint32_t tag) const {
    return scratch_->mark2_[v] == tag;
  }

  // ---- dense bitset kernels ----

  /// True iff this task runs the word-parallel kernels (subgraph within
  /// dense_threshold; rows materialized).
  bool dense() const { return dense_; }

  /// Words per row/mask: ceil(n/64). 0 when sparse.
  uint32_t words() const { return words_; }

  /// Adjacency bitmap row of v (words() uint64s, bit w = edge v-w).
  /// Only valid when dense().
  const uint64_t* Row(LocalId v) const {
    return rows_ + static_cast<size_t>(v) * words_;
  }

  /// Membership bitsets maintained by SetVState(). Only valid when dense().
  const uint64_t* in_s_mask() const { return scratch_->in_s_mask_.data(); }
  const uint64_t* in_ext_mask() const { return scratch_->in_ext_mask_.data(); }

  // ---- pooled search frames and kernel buffers ----

  /// The frame of search depth `depth` (0 = the task's root node), added on
  /// first use. A reference stays valid while deeper frames are added.
  SearchFrame& Frame(size_t depth) {
    std::deque<SearchFrame>& frames = scratch_->frames_;
    while (frames.size() <= depth) frames.emplace_back();
    return frames[depth];
  }

  KernelBuffers& buffers() { return scratch_->buffers_; }

  /// Distinct task-local word buffers (words() words each) for the dense
  /// kernels. Slot ownership: 0 = two-hop reach mask / union member mask
  /// (never live simultaneously), 1-3 = cover-vertex (S mask, ext/working
  /// cover, best cover). Only valid when dense().
  static constexpr int kNumWordBufs = 4;
  uint64_t* WordBuf(int slot) {
    return scratch_->word_buf_.data() + static_cast<size_t>(slot) * words_;
  }

  MiningStats stats;

 private:
  void HandleMarkWrap(std::vector<uint32_t>* marks);

  const LocalGraph* graph_;
  MiningOptions options_;
  Gamma gamma_;
  ResultSink* sink_;

  int64_t deadline_micros_ = -1;
  SubtaskSink subtask_sink_;

  std::unique_ptr<MiningScratch> owned_scratch_;
  MiningScratch* scratch_;

  bool dense_ = false;
  uint32_t words_ = 0;
  const uint64_t* rows_ = nullptr;  // graph rows or scratch-built copy
};

/// Recomputes ds/dext for every vertex of S and ext. REQUIRES: state() set
/// (via SetVState) to kInS / kInExt for exactly the members of S / ext.
/// Dense path: two masked popcounts per member over the row bitsets.
void ComputeDegrees(MiningContext& ctx, const std::vector<LocalId>& s,
                    const std::vector<LocalId>& ext);

}  // namespace qcm

#endif  // QCM_QUICK_MINING_CONTEXT_H_
