#include "quick/bounds.h"

#include <algorithm>

namespace qcm {

namespace {

/// Shared input of Eq. (4) and Eq. (8): fills the pooled `prefix` buffer
/// with prefix[t] = sum of the t largest dS(u) over ext (Figures 6 and 7)
/// and returns the sum of dS over S.
int64_t BuildPrefixSums(MiningContext& ctx, const std::vector<LocalId>& s,
                        const std::vector<LocalId>& ext) {
  int64_t sum_ds_s = 0;
  for (LocalId v : s) sum_ds_s += ctx.ds()[v];
  std::vector<uint32_t>& sorted_ds = ctx.buffers().sorted_ds;
  std::vector<int64_t>& prefix = ctx.buffers().prefix;
  sorted_ds.clear();
  for (LocalId u : ext) sorted_ds.push_back(ctx.ds()[u]);
  std::sort(sorted_ds.begin(), sorted_ds.end(), std::greater<>());
  prefix.resize(ext.size() + 1);
  prefix[0] = 0;
  for (size_t i = 0; i < sorted_ds.size(); ++i) {
    prefix[i + 1] = prefix[i] + sorted_ds[i];
  }
  return sum_ds_s;
}

}  // namespace

Bounds ComputeBounds(MiningContext& ctx, const std::vector<LocalId>& s,
                     const std::vector<LocalId>& ext) {
  Bounds out;
  const int64_t s_size = static_cast<int64_t>(s.size());
  const int64_t n_ext = static_cast<int64_t>(ext.size());
  const MiningOptions& opts = ctx.opts();

  const bool need_prefix = opts.use_upper_bound || opts.use_lower_bound;
  const int64_t sum_ds_s = need_prefix ? BuildPrefixSums(ctx, s, ext) : 0;
  const std::vector<int64_t>& prefix = ctx.buffers().prefix;

  // Lemma 2 feasibility of adding exactly t vertices:
  //   sum_{v in S} dS(v) + sum_{i<=t} dS(u_i) >= |S| * ceil(gamma(|S|+t-1))
  auto feasible = [&](int64_t t) {
    return sum_ds_s + prefix[static_cast<size_t>(t)] >=
           s_size * ctx.CeilGamma(s_size + t - 1);
  };

  // ---- Upper bound U_S (Eqs. 1-4). ----
  if (opts.use_upper_bound) {
    int64_t dmin = INT64_MAX;  // Eq. (1): min over S of dS + dext
    for (LocalId v : s) {
      dmin = std::min(dmin,
                      static_cast<int64_t>(ctx.ds()[v]) + ctx.dext()[v]);
    }
    // Eq. (3): U_S^min = floor(dmin / gamma) + 1 - |S|.
    const int64_t u_min = ctx.gamma().FloorDiv(dmin) + 1 - s_size;
    // Eq. (4): largest feasible t in [1, min(U_S^min, |ext|)].
    int64_t u = -1;
    for (int64_t t = std::min(u_min, n_ext); t >= 1; --t) {
      if (feasible(t)) {
        u = t;
        break;
      }
    }
    if (u < 0) {
      // No extension count is feasible: extensions pruned, but G(S) itself
      // is still a candidate (paper: "we still need to examine G(S)").
      ++ctx.stats.bound_fail_prunes;
      out.outcome = BoundOutcome::kPruneExtCheckS;
      return out;
    }
    out.upper = u;
  } else {
    out.upper = n_ext;
  }

  // ---- Lower bound L_S (Eqs. 6-8). ----
  if (opts.use_lower_bound) {
    int64_t dmin_s = INT64_MAX;  // Eq. (6): min over S of dS
    for (LocalId v : s) {
      dmin_s = std::min(dmin_s, static_cast<int64_t>(ctx.ds()[v]));
    }
    // Eq. (7): smallest t in [0, |ext|] with dmin_s + t >= ceil(gamma(|S|+t-1)).
    int64_t l_min = -1;
    for (int64_t t = 0; t <= n_ext; ++t) {
      if (dmin_s + t >= ctx.CeilGamma(s_size + t - 1)) {
        l_min = t;
        break;
      }
    }
    if (l_min < 0) {
      // Even adding all of ext cannot repair the worst member: S and all
      // extensions are pruned (t = 0 included, so S itself is invalid).
      ++ctx.stats.bound_fail_prunes;
      out.outcome = BoundOutcome::kPruneAll;
      return out;
    }
    // Eq. (8): smallest feasible t in [L_S^min, |ext|].
    int64_t l = -1;
    for (int64_t t = l_min; t <= n_ext; ++t) {
      if (feasible(t)) {
        l = t;
        break;
      }
    }
    if (l < 0) {
      ++ctx.stats.bound_fail_prunes;
      out.outcome = BoundOutcome::kPruneAll;
      return out;
    }
    out.lower = l;
  } else {
    out.lower = 0;
  }

  // U_S < L_S: needs at least L_S additions but can take at most U_S.
  // L_S >= 1 then (U_S >= 1 when computed... see below), so S itself is
  // invalid too and everything is pruned.
  if (opts.use_upper_bound && opts.use_lower_bound &&
      out.upper < out.lower) {
    ++ctx.stats.bound_fail_prunes;
    out.outcome = BoundOutcome::kPruneAll;
    return out;
  }
  return out;
}

}  // namespace qcm
