// The steal planner: the balancing plan behind the cluster Coordinator's
// kStealCmd mastering (net/coordinator.h), the one steal master of every
// deployment.
//
// The plan is the paper's (§5): collect per-machine pending big-task
// counts, compute the average, and move at most one batch of C tasks per
// donor per planning round toward the average, always into the currently
// most starved receiver.

#ifndef QCM_SCHED_STEAL_PLANNER_H_
#define QCM_SCHED_STEAL_PLANNER_H_

#include <cstdint>
#include <vector>

namespace qcm {

/// One planned transfer of big tasks between machines.
struct StealMove {
  int donor = 0;
  int receiver = 0;
  uint64_t want = 0;
};

/// Plans one balancing round over per-machine pending big-task counts,
/// moving at most `batch_cap` (the engine's batch size C) tasks per move.
/// Deterministic: donors are visited in machine order and counts are
/// adjusted move by move.
std::vector<StealMove> PlanSteals(const std::vector<uint64_t>& pending_big,
                                  uint64_t batch_cap);

}  // namespace qcm

#endif  // QCM_SCHED_STEAL_PLANNER_H_
