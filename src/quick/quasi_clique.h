// Problem definitions (paper §3.1): gamma-quasi-cliques, mining options,
// result sinks, and validity checking.

#ifndef QCM_QUICK_QUASI_CLIQUE_H_
#define QCM_QUICK_QUASI_CLIQUE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "quick/gamma.h"
#include "util/status.h"

namespace qcm {

/// A quasi-clique result: sorted ascending global vertex ids.
using VertexSet = std::vector<VertexId>;

/// Mining parameters and pruning-rule toggles.
///
/// All toggles default to on (the paper's full algorithm). Turning a rule
/// off never changes the reported maximal result set -- rules only prune
/// work -- which is what the pruning-ablation benchmark exploits.
struct MiningOptions {
  /// Minimum degree ratio gamma (Definition 1). Must be in [0.5, 1]: the
  /// diameter-2 pruning (P1) that both the serial ego-network construction
  /// and the parallel two-hop task spawning rely on requires gamma >= 0.5
  /// (Theorem 1), matching the paper's setting.
  double gamma = 0.9;

  /// Minimum result size tau_size (Definition 3). Must be >= 2.
  uint32_t min_size = 10;

  /// (P7) Cover-vertex pruning in the recursive miner.
  bool use_cover_vertex = true;
  /// (P6) Critical-vertex expansion inside iterative bounding.
  bool use_critical_vertex = true;
  /// (P4) Upper-bound rules (Theorems 5, 6 and the U_S computation).
  bool use_upper_bound = true;
  /// (P5) Lower-bound rules (Theorems 7, 8 and the L_S computation).
  bool use_lower_bound = true;
  /// (P3) Degree-based rules (Theorems 3, 4).
  bool use_degree_pruning = true;
  /// Lookahead: emit S + ext(S) wholesale when it already qualifies
  /// (Alg. 2 lines 8-10).
  bool use_lookahead = true;

  /// Hybrid dense/sparse kernel selection: a task whose subgraph has
  /// n <= dense_threshold vertices additionally materializes per-vertex
  /// adjacency bitmap rows (ceil(n/64) uint64 words each) and runs the
  /// word-parallel pruning kernels (degree recomputation, two-hop
  /// filtering, cover-vertex intersection, validity checking) over
  /// popcounts instead of CSR scans. Larger tasks fall back to the scalar
  /// CSR twins. Both paths emit bit-identical result sets and pruning
  /// counters, so the knob is pure performance: 0 disables the dense path
  /// entirely. Must be >= 0.
  int64_t dense_threshold = 4096;

  /// Reproduces the original Quick algorithm's two missed result checks
  /// (the paper's remarks in §4 T5/T6): skips the G(S) examination before
  /// critical-vertex expansion and the G(S') check when ext(S') shrinks to
  /// empty after diameter filtering. With this flag the miner can MISS
  /// maximal quasi-cliques, exactly like Quick; used by regression tests
  /// and the ablation benchmark.
  bool quick_compat = false;

  /// Checks parameter domains; returns InvalidArgument on violation.
  Status Validate() const;

  /// k = ceil(gamma * (min_size - 1)): the degree every member of a valid
  /// result must have (Theorem 2); drives all k-core pruning.
  uint32_t MinDegreeK() const;
};

/// Receives emitted candidate quasi-cliques. Emission order is unspecified;
/// candidates may include non-maximal sets (the paper's postprocessing
/// removes them, see maximality_filter.h).
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  /// `set` is sorted ascending.
  virtual void Emit(VertexSet set) = 0;
};

/// Collects results into a vector (not thread-safe; use one per thread).
class VectorSink : public ResultSink {
 public:
  void Emit(VertexSet set) override { results_.push_back(std::move(set)); }
  std::vector<VertexSet>& results() { return results_; }
  const std::vector<VertexSet>& results() const { return results_; }

 private:
  std::vector<VertexSet> results_;
};

/// Counts results without storing them.
class CountingSink : public ResultSink {
 public:
  void Emit(VertexSet set) override {
    ++count_;
    (void)set;
  }
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

/// Checks Definition 1 on the induced subgraph G(S) of a global graph:
/// every member's induced degree is >= ceil(gamma * (|S|-1)) and G(S) is
/// connected. (For gamma >= 0.5 the degree condition implies connectivity;
/// the explicit check makes this usable as a test oracle for any gamma.)
bool IsQuasiCliqueGlobal(const Graph& g, const VertexSet& s,
                         const Gamma& gamma);

}  // namespace qcm

#endif  // QCM_QUICK_QUASI_CLIQUE_H_
