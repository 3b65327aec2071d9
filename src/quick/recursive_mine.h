// Algorithm 2 (recursive_mine) and its time-delayed variant (Algorithm 10).
//
// The two algorithms share all structure; Algorithm 10 differs only in the
// branch taken when the task's mining deadline has passed: instead of
// recursing into <S', ext(S')>, the pair is wrapped into a new task through
// the context's SubtaskSink, and G(S') is examined immediately because the
// current task loses track of the subtask's findings (Alg. 10 lines 18-24).
// Arming MiningContext::ArmTimeout therefore *is* the time-delayed strategy;
// without it this function is exactly Algorithm 2.
//
// The recursion runs in the context's pooled search frames, one per depth
// (MiningContext::Frame): the node at depth d writes S' = S ∪ {v} and
// ext(S') into frame d+1, bounds them there in place and recurses. No node
// changes its own S, so the G(S') check after a subtree reads frame d+1
// intact. Once the frames are warm a node allocates only the sets it emits.

#ifndef QCM_QUICK_RECURSIVE_MINE_H_
#define QCM_QUICK_RECURSIVE_MINE_H_

#include <span>
#include <vector>

#include "quick/mining_context.h"

namespace qcm {

/// Mines all valid quasi-cliques Q ⊇ S with Q ⊆ S ∪ ext (set-enumeration
/// subtree T_S). Returns true iff some valid Q ⊋ S was found and emitted.
/// Candidates are emitted through ctx's sink; non-maximal candidates are
/// possible and removed by postprocessing (maximality_filter.h).
///
/// REQUIRES: s non-empty and disjoint from ext; all ids local to ctx.g().
/// s and ext are copied into search frame 0 first, so they may be any
/// caller storage except that frame.
bool RecursiveMine(MiningContext& ctx, std::span<const LocalId> s,
                   std::span<const LocalId> ext);

/// Diameter-based candidate filter (P1 / Alg. 2 line 12): replaces *kept
/// with the members of `candidates` within 2 hops of v in ctx.g(),
/// preserving order. `kept` must not alias `candidates`.
void TwoHopFilter(MiningContext& ctx, std::span<const LocalId> candidates,
                  LocalId v, std::vector<LocalId>* kept);

}  // namespace qcm

#endif  // QCM_QUICK_RECURSIVE_MINE_H_
