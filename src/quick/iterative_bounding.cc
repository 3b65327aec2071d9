#include "quick/iterative_bounding.h"

#include <algorithm>

#include "quick/bounds.h"

namespace qcm {

namespace {

/// Flags S as kInS and ext as kInExt while Algorithm 1 runs, then clears
/// the final S and ext. The flagged vertices are always exactly S ∪ ext:
/// a critical move takes a vertex from ext to S, and a Type-I prune resets
/// it to kOut as it leaves ext.
class StateGuard {
 public:
  StateGuard(MiningContext& ctx, const std::vector<LocalId>& s,
             const std::vector<LocalId>& ext)
      : ctx_(ctx), s_(s), ext_(ext) {
    for (LocalId v : s) ctx_.SetVState(v, VState::kInS);
    for (LocalId u : ext) ctx_.SetVState(u, VState::kInExt);
  }
  ~StateGuard() {
    // SetVState also clears the dense membership bitsets bit by bit, so
    // they end the task all-zero, ready for the next one.
    for (LocalId v : s_) ctx_.SetVState(v, VState::kOut);
    for (LocalId u : ext_) ctx_.SetVState(u, VState::kOut);
  }

 private:
  MiningContext& ctx_;
  const std::vector<LocalId>& s_;
  const std::vector<LocalId>& ext_;
};

}  // namespace

BoundingResult IterativeBounding(MiningContext& ctx, std::vector<LocalId>& s,
                                 std::vector<LocalId>& ext) {
  BoundingResult result;
  const MiningOptions& opts = ctx.opts();
  StateGuard guard(ctx, s, ext);

  auto& state = ctx.state();
  auto& ds = ctx.ds();
  auto& dext = ctx.dext();

  while (true) {
    if (ext.empty()) break;  // case C1
    ++ctx.stats.bounding_iterations;

    // Line 2: recompute dS / dext for all members.
    ComputeDegrees(ctx, s, ext);

    // Line 3: bounds; their computation may trigger Type-II pruning.
    Bounds bounds = ComputeBounds(ctx, s, ext);
    if (bounds.outcome == BoundOutcome::kPruneExtCheckS) {
      result.emitted |= ctx.CheckAndEmit(s);
      result.pruned = true;
      return result;
    }
    if (bounds.outcome == BoundOutcome::kPruneAll) {
      result.pruned = true;
      return result;
    }
    const int64_t s_size = static_cast<int64_t>(s.size());
    const int64_t u_bound = bounds.upper;
    const int64_t l_bound = bounds.lower;

    // Lines 4-8: critical-vertex expansion (Theorem 9). The paper examines
    // G(S) *before* the expansion (T5: Quick misses this check).
    if (opts.use_critical_vertex && opts.use_lower_bound) {
      const int64_t crit = ctx.CeilGamma(s_size + l_bound - 1);
      LocalId crit_vertex = ctx.g().n();
      for (LocalId v : s) {
        if (static_cast<int64_t>(ds[v]) + dext[v] == crit && dext[v] > 0) {
          crit_vertex = v;
          break;
        }
      }
      if (crit_vertex != ctx.g().n()) {
        if (!opts.quick_compat) {
          result.emitted |= ctx.CheckAndEmit(s);
        }
        // Move I = Gamma(v) ∩ ext into S (stable removal from ext).
        size_t kept = 0;
        for (LocalId w : ctx.g().Neighbors(crit_vertex)) {
          if (state[w] == static_cast<uint8_t>(VState::kInExt)) {
            ctx.SetVState(w, VState::kInS);
            s.push_back(w);
          }
        }
        for (LocalId u : ext) {
          if (state[u] == static_cast<uint8_t>(VState::kInExt)) {
            ext[kept++] = u;
          }
        }
        ext.resize(kept);
        ++ctx.stats.critical_moves;
        // Line 8: degrees and bounds must be recomputed; if ext became
        // empty we exit to the C1 handling at the loop top.
        continue;
      }
    }

    // Lines 9-16: Type-II rules over S (Theorems 4, 6, 8).
    bool cond_4i = false;
    for (LocalId v : s) {
      const int64_t dsv = ds[v];
      const int64_t dev = dext[v];
      if (opts.use_degree_pruning) {
        // Theorem 4 (ii): prunes S and extensions.
        if (dsv + dev < ctx.CeilGamma(s_size - 1 + dev)) {
          ++ctx.stats.type2_prunes;
          result.pruned = true;
          return result;
        }
        // Theorem 4 (i): prunes extensions only.
        if (dev == 0 && dsv < ctx.CeilGamma(s_size)) {
          cond_4i = true;
        }
      }
      if (opts.use_upper_bound &&
          dsv + u_bound < ctx.CeilGamma(s_size + u_bound - 1)) {
        ++ctx.stats.type2_prunes;  // Theorem 6: prunes S and extensions.
        result.pruned = true;
        return result;
      }
      if (opts.use_lower_bound &&
          dsv + dev < ctx.CeilGamma(s_size + l_bound - 1)) {
        ++ctx.stats.type2_prunes;  // Theorem 8: prunes S and extensions.
        result.pruned = true;
        return result;
      }
    }
    if (cond_4i) {
      // Extensions cannot qualify, but G(S) itself might (lines 13-16).
      result.emitted |= ctx.CheckAndEmit(s);
      result.pruned = true;
      return result;
    }

    // Lines 17-20: Type-I rules over ext (Theorems 3, 5, 7).
    size_t kept = 0;
    for (LocalId u : ext) {
      const int64_t dsu = ds[u];
      const int64_t deu = dext[u];
      bool prune = false;
      if (opts.use_degree_pruning &&
          dsu + deu < ctx.CeilGamma(s_size + deu)) {
        ++ctx.stats.type1_degree_pruned;  // Theorem 3
        prune = true;
      } else if (opts.use_upper_bound &&
                 dsu + u_bound - 1 < ctx.CeilGamma(s_size + u_bound - 1)) {
        ++ctx.stats.type1_upper_pruned;  // Theorem 5
        prune = true;
      } else if (opts.use_lower_bound &&
                 dsu + deu < ctx.CeilGamma(s_size + l_bound - 1)) {
        ++ctx.stats.type1_lower_pruned;  // Theorem 7
        prune = true;
      }
      if (prune) {
        ctx.SetVState(u, VState::kOut);
      } else {
        ext[kept++] = u;
      }
    }
    const bool shrunk = kept != ext.size();
    ext.resize(kept);
    // Line 21: iterate while Type-I pruning makes progress.
    if (!shrunk) break;  // case C2 (if ext non-empty)
  }

  if (ext.empty()) {
    // Case C1 (lines 22-25): nothing to extend with; examine G(S).
    result.emitted |= ctx.CheckAndEmit(s);
    result.pruned = true;
    return result;
  }
  // Case C2: caller continues the recursion with the shrunk ext.
  result.pruned = false;
  return result;
}

}  // namespace qcm
