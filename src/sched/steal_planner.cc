#include "sched/steal_planner.h"

#include <algorithm>

namespace qcm {

std::vector<StealMove> PlanSteals(const std::vector<uint64_t>& pending_big,
                                  uint64_t batch_cap) {
  std::vector<StealMove> moves;
  const size_t n = pending_big.size();
  if (n < 2) return moves;

  std::vector<uint64_t> counts = pending_big;
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  const uint64_t avg = total / n;

  for (size_t donor = 0; donor < n; ++donor) {
    if (counts[donor] <= avg + 1) continue;
    // Most starved receiver, given the moves already planned this round.
    size_t receiver = donor;
    for (size_t r = 0; r < n; ++r) {
      if (counts[r] < counts[receiver]) receiver = r;
    }
    if (receiver == donor || counts[receiver] >= avg) continue;

    const uint64_t want = std::min<uint64_t>(
        {counts[donor] - avg, avg - counts[receiver], batch_cap});
    if (want == 0) continue;
    moves.push_back(StealMove{static_cast<int>(donor),
                              static_cast<int>(receiver), want});
    counts[donor] -= want;
    counts[receiver] += want;
  }
  return moves;
}

}  // namespace qcm
