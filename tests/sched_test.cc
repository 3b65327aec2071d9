// The src/sched/ scheduling layer in isolation and end to end: the task
// lifecycle state machine (legality table, transition counting, spill and
// steal round trips, illegal-transition assertions), the per-link RTT
// EWMA tracker, the latency-aware steal planner (flat-parity at zero
// RTT, cap growth and move suppression with synthetic RTTs), EngineConfig
// validation rejects (file:line, contradictions), and the engine-level
// parity guarantee: spawn-time prefetch must not change one bit of the
// mined result set at nonzero network latency -- only availability.

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.h"
#include "gthinker/engine_config.h"
#include "mining/parallel_miner.h"
#include "mining/qc_task.h"
#include "sched/lifecycle.h"
#include "sched/rtt.h"
#include "sched/steal_planner.h"

namespace qcm {
namespace {

// ---------------------------------------------------------------------------
// Lifecycle state machine
// ---------------------------------------------------------------------------

TEST(LifecycleTest, StateNamesAreStable) {
  EXPECT_STREQ(TaskStateName(TaskState::kSpawned), "spawned");
  EXPECT_STREQ(TaskStateName(TaskState::kPrefetching), "prefetching");
  EXPECT_STREQ(TaskStateName(TaskState::kReady), "ready");
  EXPECT_STREQ(TaskStateName(TaskState::kRunning), "running");
  EXPECT_STREQ(TaskStateName(TaskState::kSuspended), "suspended");
  EXPECT_STREQ(TaskStateName(TaskState::kSpilled), "spilled");
  EXPECT_STREQ(TaskStateName(TaskState::kStolen), "stolen");
  EXPECT_STREQ(TaskStateName(TaskState::kDone), "done");
}

TEST(LifecycleTest, LegalityTableMatchesTheDiagram) {
  using S = TaskState;
  // The full legal set, row by row.
  const std::pair<S, S> legal[] = {
      {S::kSpawned, S::kReady},      {S::kSpawned, S::kPrefetching},
      {S::kPrefetching, S::kReady},  {S::kReady, S::kRunning},
      {S::kReady, S::kSpilled},      {S::kReady, S::kStolen},
      {S::kRunning, S::kReady},      {S::kRunning, S::kSuspended},
      {S::kRunning, S::kDone},       {S::kSuspended, S::kReady},
      {S::kSpilled, S::kReady},      {S::kStolen, S::kReady},
  };
  int legal_count = 0;
  for (int from = 0; from < kNumTaskStates; ++from) {
    for (int to = 0; to < kNumTaskStates; ++to) {
      const bool expect =
          std::find(std::begin(legal), std::end(legal),
                    std::make_pair(static_cast<S>(from),
                                   static_cast<S>(to))) != std::end(legal);
      EXPECT_EQ(IsLegalTransition(static_cast<S>(from), static_cast<S>(to)),
                expect)
          << TaskStateName(static_cast<S>(from)) << " -> "
          << TaskStateName(static_cast<S>(to));
      legal_count += expect ? 1 : 0;
    }
  }
  EXPECT_EQ(legal_count, 12);
  // kDone is terminal: nothing leaves it.
  for (int to = 0; to < kNumTaskStates; ++to) {
    EXPECT_FALSE(IsLegalTransition(S::kDone, static_cast<S>(to)));
  }
}

TEST(LifecycleTest, AdvanceCountsEveryTransition) {
  LifecycleCounters counters;
  TaskPtr t = QCTask::MakeSpawn(7, 3);
  EXPECT_EQ(t->sched_info().state, TaskState::kSpawned);

  AdvanceTaskState(*t, TaskState::kReady, &counters);
  AdvanceTaskState(*t, TaskState::kRunning, &counters);
  AdvanceTaskState(*t, TaskState::kSuspended, &counters);
  AdvanceTaskState(*t, TaskState::kReady, &counters);
  AdvanceTaskState(*t, TaskState::kRunning, &counters);
  AdvanceTaskState(*t, TaskState::kDone, &counters);

  EXPECT_EQ(counters.Transitions(TaskState::kSpawned, TaskState::kReady),
            1u);
  EXPECT_EQ(counters.Transitions(TaskState::kReady, TaskState::kRunning),
            2u);
  EXPECT_EQ(
      counters.Transitions(TaskState::kRunning, TaskState::kSuspended), 1u);
  EXPECT_EQ(counters.Transitions(TaskState::kSuspended, TaskState::kReady),
            1u);
  EXPECT_EQ(counters.Transitions(TaskState::kRunning, TaskState::kDone),
            1u);
  EXPECT_EQ(counters.TotalEntering(TaskState::kReady), 2u);
  EXPECT_EQ(counters.TotalEntering(TaskState::kDone), 1u);
}

TEST(LifecycleTest, SpillRoundTripIsVisibleInTheMatrix) {
  LifecycleCounters counters;
  // Donor side: a queued task is serialized to disk ...
  TaskPtr original = QCTask::MakeSpawn(3, 2);
  AdvanceTaskState(*original, TaskState::kReady, &counters);
  AdvanceTaskState(*original, TaskState::kSpilled, &counters);
  Encoder enc;
  original->Encode(&enc);
  original.reset();
  // ... and the refill decodes a fresh object whose round trip counts as
  // kSpilled -> kReady, not as a new spawn.
  const std::string blob = enc.Release();
  Decoder dec(blob);
  TaskPtr reloaded = std::move(QCTask::Decode(&dec)).value();
  RehydrateTaskState(*reloaded, TaskState::kSpilled, &counters);
  EXPECT_EQ(reloaded->sched_info().state, TaskState::kReady);
  EXPECT_EQ(counters.Transitions(TaskState::kReady, TaskState::kSpilled),
            1u);
  EXPECT_EQ(counters.Transitions(TaskState::kSpilled, TaskState::kReady),
            1u);
  EXPECT_EQ(counters.Transitions(TaskState::kSpawned, TaskState::kReady),
            1u);  // only the original admission
}

TEST(LifecycleTest, StealRoundTripIsVisibleInTheMatrix) {
  LifecycleCounters counters;
  TaskPtr task = QCTask::MakeSpawn(9, 200);
  AdvanceTaskState(*task, TaskState::kReady, &counters);
  AdvanceTaskState(*task, TaskState::kStolen, &counters);
  Encoder enc;
  task->Encode(&enc);
  task.reset();
  const std::string blob = enc.Release();
  Decoder dec(blob);
  TaskPtr arrived = std::move(QCTask::Decode(&dec)).value();
  RehydrateTaskState(*arrived, TaskState::kStolen, &counters);
  EXPECT_EQ(arrived->sched_info().state, TaskState::kReady);
  EXPECT_EQ(counters.Transitions(TaskState::kReady, TaskState::kStolen),
            1u);
  EXPECT_EQ(counters.Transitions(TaskState::kStolen, TaskState::kReady),
            1u);
}

using LifecycleDeathTest = ::testing::Test;

TEST(LifecycleDeathTest, IllegalTransitionsAssert) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // kSpawned may not run before admission.
  TaskPtr t1 = QCTask::MakeSpawn(1, 1);
  EXPECT_DEATH(AdvanceTaskState(*t1, TaskState::kRunning, nullptr),
               "illegal task lifecycle transition spawned -> running");
  // kDone is terminal.
  TaskPtr t2 = QCTask::MakeSpawn(2, 1);
  AdvanceTaskState(*t2, TaskState::kReady, nullptr);
  AdvanceTaskState(*t2, TaskState::kRunning, nullptr);
  AdvanceTaskState(*t2, TaskState::kDone, nullptr);
  EXPECT_DEATH(AdvanceTaskState(*t2, TaskState::kReady, nullptr),
               "illegal task lifecycle transition done -> ready");
  // Only serialized states rehydrate.
  TaskPtr t3 = QCTask::MakeSpawn(3, 1);
  EXPECT_DEATH(RehydrateTaskState(*t3, TaskState::kSuspended, nullptr),
               "rehydrate from non-serialized state");
}

// ---------------------------------------------------------------------------
// LinkRttTracker
// ---------------------------------------------------------------------------

TEST(LinkRttTrackerTest, FirstSampleSeedsThenEwmaConverges) {
  LinkRttTracker rtt(3, /*alpha=*/0.5);
  EXPECT_DOUBLE_EQ(rtt.OneWay(0, 1), 0.0);  // unmeasured
  rtt.RecordOneWay(0, 1, 0.010);
  EXPECT_DOUBLE_EQ(rtt.OneWay(0, 1), 0.010);  // seeded, not halved
  rtt.RecordOneWay(0, 1, 0.020);
  EXPECT_DOUBLE_EQ(rtt.OneWay(0, 1), 0.015);  // 0.5*20ms + 0.5*10ms
  // Directionality: the reverse link is independent.
  EXPECT_DOUBLE_EQ(rtt.OneWay(1, 0), 0.0);
  rtt.RecordOneWay(1, 0, 0.001);
  EXPECT_DOUBLE_EQ(rtt.Rtt(0, 1), 0.015 + 0.001);
}

TEST(LinkRttTrackerTest, InboundFallbackFillsUnmeasuredLinks) {
  LinkRttTracker rtt(3, 0.5);
  // The coordinator only knows per-rank scalars.
  rtt.RecordInbound(1, 0.004);
  rtt.RecordInbound(2, 0.002);
  EXPECT_DOUBLE_EQ(rtt.OneWay(0, 1), 0.004);  // any src -> 1
  EXPECT_DOUBLE_EQ(rtt.OneWay(2, 1), 0.004);
  EXPECT_DOUBLE_EQ(rtt.Rtt(1, 2), 0.004 + 0.002);
  // A direct per-link measurement beats the fallback.
  rtt.RecordOneWay(0, 1, 0.010);
  EXPECT_DOUBLE_EQ(rtt.OneWay(0, 1), 0.010);
  EXPECT_DOUBLE_EQ(rtt.OneWay(2, 1), 0.004);  // still the fallback
}

// ---------------------------------------------------------------------------
// Steal planner
// ---------------------------------------------------------------------------

StealPlannerOptions Opts(uint64_t base, double ref = 1e-3,
                         uint64_t factor = 8) {
  StealPlannerOptions opts;
  opts.base_batch = base;
  opts.rtt_reference_sec = ref;
  opts.max_batch_factor = factor;
  return opts;
}

TEST(StealPlannerTest, ZeroRttMatchesTheLegacyFlatPlan) {
  // counts {10, 0}: avg 5, one move of min(10-5, 5-0, batch 4) = 4.
  auto moves = PlanSteals({10, 0}, Opts(4), nullptr);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].donor, 0);
  EXPECT_EQ(moves[0].receiver, 1);
  EXPECT_EQ(moves[0].want, 4u);

  // Balanced inputs plan nothing.
  EXPECT_TRUE(PlanSteals({5, 5, 5}, Opts(4), nullptr).empty());
  EXPECT_TRUE(PlanSteals({6, 5}, Opts(4), nullptr).empty());  // <= avg+1
  EXPECT_TRUE(PlanSteals({42}, Opts(4), nullptr).empty());    // one machine

  // Multiple donors adjust counts move by move: {12, 12, 0} -> avg 8;
  // donor 0 moves 4 into machine 2 (now 4), donor 1 moves
  // min(12-8, 8-4, 4) = 4 into machine 2 as well.
  moves = PlanSteals({12, 12, 0}, Opts(4), nullptr);
  ASSERT_EQ(moves.size(), 2u);
  EXPECT_EQ(moves[0].donor, 0);
  EXPECT_EQ(moves[0].receiver, 2);
  EXPECT_EQ(moves[0].want, 4u);
  EXPECT_EQ(moves[1].donor, 1);
  EXPECT_EQ(moves[1].receiver, 2);
  EXPECT_EQ(moves[1].want, 4u);
}

TEST(StealPlannerTest, BatchCapGrowsWithLinkRtt) {
  const auto opts = Opts(4, /*ref=*/1e-3, /*factor=*/8);
  EXPECT_EQ(LatencyAwareBatchCap(opts, 0.0), 4u);      // unmeasured
  EXPECT_EQ(LatencyAwareBatchCap(opts, 0.5e-3), 4u);   // below reference
  EXPECT_EQ(LatencyAwareBatchCap(opts, 1.0e-3), 8u);   // 1 ref -> 2 batches
  EXPECT_EQ(LatencyAwareBatchCap(opts, 3.5e-3), 16u);  // 3.5 refs -> 4
  EXPECT_EQ(LatencyAwareBatchCap(opts, 1.0), 32u);     // clamped at 8x

  // Absurd factors saturate instead of wrapping to a tiny/zero cap (a
  // wrapped cap of 0 would silently disable stealing on slow links).
  auto absurd = Opts(16, 1e-3, uint64_t{1} << 60);
  EXPECT_EQ(LatencyAwareBatchCap(absurd, 0.0), 16u);
  EXPECT_GE(LatencyAwareBatchCap(absurd, 1.0), 16u * 1001u);
}

TEST(StealPlannerTest, SlowLinksCarryLargerBatches) {
  // A heavily skewed pair; on a fast link the move is one base batch...
  auto fast = PlanSteals({100, 0}, Opts(4), nullptr);
  ASSERT_EQ(fast.size(), 1u);
  EXPECT_EQ(fast[0].want, 4u);

  // ... while a 5 ms RTT link (5x the 1 ms reference) carries 6 batches.
  LinkRttTracker rtt(2, 1.0);
  rtt.RecordOneWay(0, 1, 0.0025);
  rtt.RecordOneWay(1, 0, 0.0025);
  auto slow = PlanSteals({100, 0}, Opts(4), &rtt);
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].want, 24u);
  EXPECT_GT(slow[0].want, fast[0].want);
}

TEST(StealPlannerTest, SlowLinksSuppressDribbleMoves) {
  LinkRttTracker rtt(2, 1.0);
  rtt.RecordOneWay(0, 1, 0.005);
  rtt.RecordOneWay(1, 0, 0.005);
  // Surplus of 3 over the average: a fast link would move it ...
  auto fast = PlanSteals({9, 0}, Opts(8), nullptr);
  ASSERT_EQ(fast.size(), 1u);
  EXPECT_EQ(fast[0].want, 4u);
  // ... but at 10 ms RTT the cap is 8 * (1 + 10) = 88 -> clamped to 64,
  // and a 4-task move cannot fill half of it: not worth one RTT.
  EXPECT_TRUE(PlanSteals({9, 0}, Opts(8), &rtt).empty());
  // A real imbalance still moves, and moves big.
  auto big = PlanSteals({200, 0}, Opts(8), &rtt);
  ASSERT_EQ(big.size(), 1u);
  EXPECT_EQ(big[0].want, 64u);
}

// ---------------------------------------------------------------------------
// EngineConfig validation (file:line, contradictions)
// ---------------------------------------------------------------------------

EngineConfig ValidBase() {
  EngineConfig config;
  config.mining.gamma = 0.9;
  config.mining.min_size = 3;
  return config;
}

TEST(EngineConfigValidationTest, RejectsNegativeLatencyWithFileLine) {
  EngineConfig config = ValidBase();
  config.net_latency_sec = -0.001;
  Status s = config.Validate();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("engine_config.cc:"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find("net_latency_sec"), std::string::npos);
}

TEST(EngineConfigValidationTest, RejectsContradictoryStealSettings) {
  EngineConfig config = ValidBase();
  config.steal_max_batch_factor = 0;
  Status s = config.Validate();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("contradictory"), std::string::npos);

  config = ValidBase();
  config.steal_rtt_reference_sec = 0.0;
  s = config.Validate();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("steal_rtt_reference_sec"), std::string::npos);
}

TEST(EngineConfigValidationTest, RejectsContradictoryCoalescingSettings) {
  // Threshold without a linger bound: a lone frame could park forever.
  EngineConfig config = ValidBase();
  config.net_coalesce_bytes = 1400;
  Status s = config.Validate();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("contradictory"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find("engine_config.cc:"), std::string::npos);

  // Linger without a threshold: the bound bounds nothing.
  config = ValidBase();
  config.net_linger_usec = 100;
  s = config.Validate();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("contradictory"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find("net_linger_usec"), std::string::npos);

  // Both set or both zero are the only valid combinations.
  config = ValidBase();
  config.net_coalesce_bytes = 1400;
  config.net_linger_usec = 100;
  EXPECT_TRUE(config.Validate().ok());
  EXPECT_TRUE(ValidBase().Validate().ok());
}

TEST(EngineConfigValidationTest, RejectsOutOfRangeCoalescingSettings) {
  EngineConfig config = ValidBase();
  config.net_coalesce_bytes = -1;
  Status s = config.Validate();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("net_coalesce_bytes"), std::string::npos);
  EXPECT_NE(s.message().find("engine_config.cc:"), std::string::npos);

  config = ValidBase();
  config.net_linger_usec = -5;
  s = config.Validate();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("net_linger_usec"), std::string::npos);

  // A buffer larger than the largest legal frame could never flush by
  // size at all.
  config = ValidBase();
  config.net_coalesce_bytes = (int64_t{1} << 30) + 1;
  config.net_linger_usec = 100;
  s = config.Validate();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("frame cap"), std::string::npos)
      << s.ToString();
}

TEST(EngineConfigValidationTest, NewKnobsRoundTripThroughTheCodec) {
  EngineConfig config = ValidBase();
  config.spawn_prefetch = true;
  config.steal_rtt_reference_sec = 0.005;
  config.steal_max_batch_factor = 3;
  config.net_coalesce_bytes = 2800;
  config.net_linger_usec = 250;
  Encoder enc;
  EncodeEngineConfig(config, &enc);
  const std::string blob = enc.Release();
  Decoder dec(blob);
  EngineConfig decoded;
  ASSERT_TRUE(DecodeEngineConfig(&dec, &decoded).ok());
  EXPECT_TRUE(decoded.spawn_prefetch);
  EXPECT_DOUBLE_EQ(decoded.steal_rtt_reference_sec, 0.005);
  EXPECT_EQ(decoded.steal_max_batch_factor, 3u);
  EXPECT_EQ(decoded.net_coalesce_bytes, 2800);
  EXPECT_EQ(decoded.net_linger_usec, 250);
}

// ---------------------------------------------------------------------------
// Engine-level prefetch parity: bit-identical results, pins at first
// schedule
// ---------------------------------------------------------------------------

TEST(SchedEngineTest, PrefetchParityAtNonzeroLatency) {
  PlantedConfig spec;
  spec.num_vertices = 600;
  spec.num_communities = 4;
  spec.community_min = 9;
  spec.community_max = 12;
  spec.intra_density = 0.95;
  spec.seed = 5;
  auto graph = std::move(GenPlantedCommunities(spec)).value();

  EngineConfig base;
  base.mining.gamma = 0.85;
  base.mining.min_size = 8;
  base.num_machines = 2;
  base.threads_per_machine = 2;
  base.net_latency_sec = 0.0005;  // every pull really rides the fabric

  EngineConfig off = base;
  off.spawn_prefetch = false;
  EngineConfig on = base;
  on.spawn_prefetch = true;

  auto run_off = ParallelMiner(off).Run(graph);
  ASSERT_TRUE(run_off.ok()) << run_off.status().ToString();
  auto run_on = ParallelMiner(on).Run(graph);
  ASSERT_TRUE(run_on.ok()) << run_on.status().ToString();

  // Bit-identical maximal sets (ParallelMiner canonicalizes order).
  EXPECT_EQ(run_on->maximal, run_off->maximal);
  ASSERT_FALSE(run_on->maximal.empty());

  // The pipeline demonstrably ran: tasks entered kPrefetching, their
  // first compute rounds found pins, and the transition matrix shows the
  // stage.
  const EngineCountersSnapshot& c_on = run_on->report.counters;
  const EngineCountersSnapshot& c_off = run_off->report.counters;
  EXPECT_GT(c_on.prefetch_tasks, 0u);
  EXPECT_GT(c_on.prefetch_issued, 0u);
  EXPECT_GT(c_on.first_schedule_pins, 0u);
  EXPECT_GT(c_on.prefetch_hits, 0u);
  EXPECT_EQ(c_off.prefetch_tasks, 0u);
  EXPECT_EQ(c_off.first_schedule_pins, 0u);
  EXPECT_EQ(c_on.LifecycleTransitions(TaskState::kSpawned,
                                      TaskState::kPrefetching),
            c_on.LifecycleTransitions(TaskState::kPrefetching,
                                      TaskState::kReady));
  EXPECT_EQ(c_off.LifecycleTransitions(TaskState::kSpawned,
                                       TaskState::kPrefetching),
            0u);

  // Lifecycle bookkeeping closes: every task that ever ran eventually
  // retired, on both sides.
  for (const EngineCountersSnapshot* c : {&c_on, &c_off}) {
    EXPECT_EQ(c->LifecycleTransitions(TaskState::kRunning, TaskState::kDone),
              c->tasks_completed);
  }
}

}  // namespace
}  // namespace qcm
