#include "quick/recursive_mine.h"

#include <algorithm>

#include "quick/cover_vertex.h"
#include "quick/iterative_bounding.h"

namespace qcm {

std::vector<LocalId> TwoHopFilter(MiningContext& ctx,
                                  std::span<const LocalId> candidates,
                                  LocalId v) {
  const LocalGraph& g = ctx.g();
  // reach starts as {v} ∪ Gamma(v). When v has fewer neighbors than there
  // are candidates, it grows to the whole ball B(v) = reach ∪
  // Gamma(Gamma(v)) once, and each candidate costs one test. Otherwise a
  // candidate outside reach is within 2 hops iff one of its neighbors is
  // in reach. Intermediate hops may pass through any vertex of the task
  // subgraph, exactly like B(v) in the paper (computed on t.g).
  const bool whole_ball = g.Degree(v) < candidates.size();
  std::vector<LocalId> kept;
  kept.reserve(candidates.size());
  if (ctx.dense()) {
    const uint32_t words = ctx.words();
    const uint64_t* row_v = ctx.Row(v);
    uint64_t* reach = ctx.WordBuf(0);
    std::copy(row_v, row_v + words, reach);
    reach[v >> 6] |= uint64_t{1} << (v & 63);
    uint64_t touched = words;
    if (whole_ball) {
      for (LocalId w : g.Neighbors(v)) {
        const uint64_t* row_w = ctx.Row(w);
        for (uint32_t i = 0; i < words; ++i) reach[i] |= row_w[i];
      }
      touched += uint64_t{g.Degree(v)} * words;
    }
    for (LocalId u : candidates) {
      bool within = (reach[u >> 6] >> (u & 63)) & 1;
      if (!within && !whole_ball) {
        const uint64_t* row_u = ctx.Row(u);
        for (uint32_t w = 0; w < words; ++w) {
          ++touched;
          if (row_u[w] & reach[w]) {
            within = true;
            break;
          }
        }
      }
      if (within) {
        kept.push_back(u);
      } else {
        ++ctx.stats.diameter_filtered;
      }
    }
    ctx.stats.bitset_words_touched += touched;
    return kept;
  }
  // The scalar twin marks reach under one epoch tag.
  const uint32_t tag = ctx.NewMark();
  ctx.Mark(v, tag);
  for (LocalId w : g.Neighbors(v)) ctx.Mark(w, tag);
  if (whole_ball) {
    for (LocalId w : g.Neighbors(v)) {
      for (LocalId x : g.Neighbors(w)) ctx.Mark(x, tag);
    }
  }
  for (LocalId u : candidates) {
    bool within = ctx.Marked(u, tag);
    if (!within && !whole_ball) {
      for (LocalId w : g.Neighbors(u)) {
        if (ctx.Marked(w, tag)) {
          within = true;
          break;
        }
      }
    }
    if (within) {
      kept.push_back(u);
    } else {
      ++ctx.stats.diameter_filtered;
    }
  }
  return kept;
}

namespace {

/// Reorders ext so the members of `cover` form the tail, preserving the
/// relative order of the rest (Alg. 2 line 4). Returns the loop bound
/// |ext| - |cover|.
size_t MoveCoverToTail(MiningContext& ctx, std::vector<LocalId>& ext,
                       const std::vector<LocalId>& cover) {
  if (cover.empty()) return ext.size();
  const uint32_t tag = ctx.NewMark2();
  for (LocalId w : cover) ctx.Mark2(w, tag);
  std::stable_partition(ext.begin(), ext.end(), [&](LocalId u) {
    return !ctx.Marked2(u, tag);
  });
  return ext.size() - cover.size();
}

}  // namespace

bool RecursiveMine(MiningContext& ctx, std::vector<LocalId> s,
                   std::vector<LocalId> ext) {
  ++ctx.stats.nodes_explored;
  bool found = false;
  const MiningOptions& opts = ctx.opts();

  // Lines 2-4: cover-vertex pruning (P7). Vertices covered by the best
  // cover vertex are never used as the branching vertex v.
  const std::vector<LocalId> cover = FindBestCoverSet(ctx, s, ext);
  const size_t loop_end = MoveCoverToTail(ctx, ext, cover);
  ctx.stats.cover_skipped += cover.size();

  for (size_t i = 0; i < loop_end; ++i) {
    // ext(S) at this point is the suffix ext[i..); earlier branching
    // vertices are excluded for good (the set-enumeration discipline,
    // Alg. 2 line 11).
    const size_t remaining = ext.size() - i;

    // Lines 6-7: size-threshold subtree cut.
    if (s.size() + remaining < opts.min_size) {
      ++ctx.stats.size_prunes;
      return found;
    }

    // Lines 8-10: lookahead -- if S ∪ ext(S) is already a quasi-clique it
    // is the unique maximal result of this subtree.
    if (opts.use_lookahead &&
        ctx.IsQuasiCliqueUnion(s, std::span(ext).subspan(i))) {
      std::vector<LocalId> whole(s);
      whole.insert(whole.end(), ext.begin() + static_cast<int64_t>(i),
                   ext.end());
      ctx.EmitVerified(whole);
      ++ctx.stats.lookahead_hits;
      return true;
    }

    // Line 11: branch on v.
    const LocalId v = ext[i];
    std::vector<LocalId> s_child(s);
    s_child.push_back(v);

    // Line 12: ext(S') = ext(S) ∩ B(v) (P1).
    std::vector<LocalId> ext_child =
        TwoHopFilter(ctx, std::span(ext).subspan(i + 1), v);

    if (ext_child.empty()) {
      // Lines 13-16. The original Quick misses this check (§4 T6 remark).
      if (!opts.quick_compat) {
        found |= ctx.CheckAndEmit(s_child);
      }
      continue;
    }

    // Line 18: Algorithm 1. May shrink ext_child, may expand s_child
    // (critical vertices), may emit candidates.
    BoundingResult bounding = IterativeBounding(ctx, s_child, ext_child);
    found |= bounding.emitted;
    if (bounding.pruned) continue;
    // Line 20 guard: even taking all of ext(S') cannot reach tau_size.
    if (s_child.size() + ext_child.size() < opts.min_size) continue;

    if (ctx.TimedOut() && ctx.subtask_sink()) {
      // Algorithm 10 lines 18-24: wrap <S', ext(S')> as a new task and
      // examine G(S') immediately -- this task will never see the
      // subtask's results, so skipping the check could lose a maximal
      // result. (This is the extra checking that inflates result counts
      // for small tau_time in Tables 3/4.)
      ctx.subtask_sink()(s_child, ext_child);
      ++ctx.stats.subtasks_spawned;
      found |= ctx.CheckAndEmit(s_child);
      continue;
    }

    // Line 21: recurse. s_child is kept alive: if the subtree finds
    // nothing, lines 23-25 examine G(S') -- and S' here is the
    // critical-vertex-expanded set, not merely S ∪ {v}.
    const bool child_found =
        RecursiveMine(ctx, s_child, std::move(ext_child));
    found |= child_found;
    if (!child_found) {
      found |= ctx.CheckAndEmit(s_child);
    }
  }
  return found;
}

}  // namespace qcm
