// The steal planner: the balancing plan behind the cluster Coordinator's
// kStealCmd mastering (net/coordinator.h), the one steal master of every
// deployment.
//
// Base plan (paper §5): collect per-machine pending big-task counts,
// compute the average, and move at most one batch per donor per planning
// round toward the average, always into the currently most starved
// receiver.
//
// Latency awareness (ROADMAP "latency-aware steal planning"): each
// message on a slow link pays its round-trip time regardless of batch
// size, so the per-task cost of a steal falls as the batch grows. The
// planner therefore scales the per-move batch cap with the link's RTT
// EWMA (LinkRttTracker, fed from the delivery latencies the ranks
// publish) -- slow links carry LARGER batches -- and suppresses moves
// whose gain would not fill half a cap on a link slower than the
// reference RTT -- slow links carry RARER batches. With an unmeasured or
// sub-reference RTT the plan degenerates to the flat-batch plan.

#ifndef QCM_SCHED_STEAL_PLANNER_H_
#define QCM_SCHED_STEAL_PLANNER_H_

#include <cstdint>
#include <vector>

#include "sched/rtt.h"

namespace qcm {

/// One planned transfer of big tasks between machines.
struct StealMove {
  int donor = 0;
  int receiver = 0;
  uint64_t want = 0;
};

struct StealPlannerOptions {
  /// The engine's batch size C: the per-move cap on a zero-latency link.
  uint64_t base_batch = 16;
  /// Link RTT granting one extra base batch of cap (and the threshold
  /// past which sub-half-cap moves are suppressed).
  double rtt_reference_sec = 1e-3;
  /// Hard cap multiplier: a move never exceeds base_batch * this.
  uint64_t max_batch_factor = 8;
};

/// Per-move batch cap for a link with the given RTT estimate:
/// base_batch * (1 + floor(rtt / rtt_reference)), clamped to
/// base_batch * max_batch_factor. An RTT of 0 (unmeasured) or below the
/// reference yields exactly base_batch -- the legacy flat cap.
uint64_t LatencyAwareBatchCap(const StealPlannerOptions& opts,
                              double rtt_sec);

/// Plans one balancing round over per-machine pending big-task counts.
/// `rtt` may be null (all links treated as unmeasured). Deterministic:
/// donors are visited in machine order and counts are adjusted move by
/// move, exactly like the legacy inline planners.
std::vector<StealMove> PlanSteals(const std::vector<uint64_t>& pending_big,
                                  const StealPlannerOptions& opts,
                                  const LinkRttTracker* rtt);

}  // namespace qcm

#endif  // QCM_SCHED_STEAL_PLANNER_H_
