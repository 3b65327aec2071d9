// steal_planner_probe: prints (as JSON) the steal planner's behavior over
// an RTT sweep -- the deterministic, policy-level half of the cluster
// latency bench (bench_cluster_latency.sh). For each RTT it plans one
// balancing round over a fixed skewed pending-big distribution and
// reports the per-move batch caps and planned batch sizes, demonstrating
// the "larger, rarer batches on slow links" policy without depending on
// a live run happening to trigger steals.
//
// Usage: steal_planner_probe [base_batch] [max_factor]

#include <cstdio>
#include <vector>

#include "sched/rtt.h"
#include "sched/steal_planner.h"
#include "util/parse.h"

int main(int argc, char** argv) {
  using namespace qcm;
  StealPlannerOptions opts;  // defaults: base batch 16, factor 8
  if ((argc > 1 && !ParseNumber(argv[1], &opts.base_batch).ok()) ||
      (argc > 2 && !ParseNumber(argv[2], &opts.max_batch_factor).ok()) ||
      argc > 3) {
    std::fprintf(stderr,
                 "usage: steal_planner_probe [base_batch] [max_factor]\n");
    return 2;
  }

  // A heavily skewed 3-machine cluster: machine 0 holds all big tasks.
  const std::vector<uint64_t> pending = {600, 0, 0};
  const double rtts[] = {0.0, 0.0005, 0.001, 0.002, 0.005, 0.010, 0.050};

  std::printf("{\n  \"base_batch\": %llu,\n  \"max_batch_factor\": %llu,\n",
              static_cast<unsigned long long>(opts.base_batch),
              static_cast<unsigned long long>(opts.max_batch_factor));
  std::printf("  \"pending_big\": [600, 0, 0],\n  \"sweep\": [\n");
  for (size_t i = 0; i < sizeof(rtts) / sizeof(rtts[0]); ++i) {
    const double rtt = rtts[i];
    LinkRttTracker tracker(3, 1.0);
    for (int a = 0; a < 3; ++a) {
      for (int b = 0; b < 3; ++b) {
        if (a != b) tracker.RecordOneWay(a, b, rtt / 2.0);
      }
    }
    const uint64_t cap = LatencyAwareBatchCap(opts, rtt);
    auto moves = PlanSteals(pending, opts, &tracker);
    uint64_t planned = 0;
    for (const StealMove& m : moves) planned += m.want;
    std::printf(
        "    {\"rtt_sec\": %g, \"batch_cap\": %llu, \"moves\": %zu, "
        "\"tasks_per_move\": %g}%s\n",
        rtt, static_cast<unsigned long long>(cap), moves.size(),
        moves.empty() ? 0.0
                      : static_cast<double>(planned) /
                            static_cast<double>(moves.size()),
        i + 1 < sizeof(rtts) / sizeof(rtts[0]) ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}
