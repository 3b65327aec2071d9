// The src/sched/ scheduling layer in isolation: the task lifecycle state
// machine (legality table, transition counting, spill and steal round
// trips, illegal-transition assertions), the paper's flat steal plan, and
// EngineConfig validation rejects (file:line, contradictions).

#include <gtest/gtest.h>

#include <algorithm>

#include "gthinker/engine_config.h"
#include "gthinker/task_queue.h"
#include "mining/qc_app.h"
#include "mining/qc_task.h"
#include "sched/lifecycle.h"
#include "sched/steal_planner.h"

namespace qcm {
namespace {

// ---------------------------------------------------------------------------
// Lifecycle state machine
// ---------------------------------------------------------------------------

TEST(LifecycleTest, StateNamesAreStable) {
  EXPECT_STREQ(TaskStateName(TaskState::kSpawned), "spawned");
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
      {S::kSpawned, S::kReady},      {S::kReady, S::kRunning},
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
  EXPECT_EQ(legal_count, 10);
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
  const QCApp app{EngineConfig{}};
  // Donor side: a queued task is encoded into a spill batch ...
  std::vector<TaskPtr> batch;
  batch.push_back(QCTask::MakeSpawn(3, 2));
  AdvanceTaskState(*batch[0], TaskState::kReady, &counters);
  const std::string bytes =
      EncodeTaskBatch(batch, TaskState::kSpilled, &counters);
  batch.clear();
  // ... and the refill decodes a fresh object whose round trip counts as
  // kSpilled -> kReady, not as a new spawn.
  auto reloaded =
      DecodeTaskBatch(bytes, app, TaskState::kSpilled, &counters);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_EQ(reloaded->size(), 1u);
  EXPECT_EQ((*reloaded)[0]->sched_info().state, TaskState::kReady);
  EXPECT_EQ(counters.Transitions(TaskState::kReady, TaskState::kSpilled),
            1u);
  EXPECT_EQ(counters.Transitions(TaskState::kSpilled, TaskState::kReady),
            1u);
  EXPECT_EQ(counters.Transitions(TaskState::kSpawned, TaskState::kReady),
            1u);  // only the original admission
}

TEST(LifecycleTest, StealRoundTripIsVisibleInTheMatrix) {
  LifecycleCounters counters;
  const QCApp app{EngineConfig{}};
  std::vector<TaskPtr> batch;
  batch.push_back(QCTask::MakeSpawn(9, 200));
  AdvanceTaskState(*batch[0], TaskState::kReady, &counters);
  const std::string bytes =
      EncodeTaskBatch(batch, TaskState::kStolen, &counters);
  batch.clear();
  auto arrived = DecodeTaskBatch(bytes, app, TaskState::kStolen, &counters);
  ASSERT_TRUE(arrived.ok()) << arrived.status().ToString();
  ASSERT_EQ(arrived->size(), 1u);
  EXPECT_EQ((*arrived)[0]->sched_info().state, TaskState::kReady);
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
// Steal planner
// ---------------------------------------------------------------------------

TEST(StealPlannerTest, ZeroRttMatchesTheLegacyFlatPlan) {
  // counts {10, 0}: avg 5, one move of min(10-5, 5-0, batch 4) = 4.
  auto moves = PlanSteals({10, 0}, 4);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].donor, 0);
  EXPECT_EQ(moves[0].receiver, 1);
  EXPECT_EQ(moves[0].want, 4u);

  // Balanced inputs plan nothing.
  EXPECT_TRUE(PlanSteals({5, 5, 5}, 4).empty());
  EXPECT_TRUE(PlanSteals({6, 5}, 4).empty());  // <= avg+1
  EXPECT_TRUE(PlanSteals({42}, 4).empty());    // one machine

  // Multiple donors adjust counts move by move: {12, 12, 0} -> avg 8;
  // donor 0 moves 4 into machine 2 (now 4), donor 1 moves
  // min(12-8, 8-4, 4) = 4 into machine 2 as well.
  moves = PlanSteals({12, 12, 0}, 4);
  ASSERT_EQ(moves.size(), 2u);
  EXPECT_EQ(moves[0].donor, 0);
  EXPECT_EQ(moves[0].receiver, 2);
  EXPECT_EQ(moves[0].want, 4u);
  EXPECT_EQ(moves[1].donor, 1);
  EXPECT_EQ(moves[1].receiver, 2);
  EXPECT_EQ(moves[1].want, 4u);

  // However skewed the pair, one round moves at most one batch C, and a
  // small surplus moves whole: nothing is suppressed.
  moves = PlanSteals({100, 0}, 4);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].want, 4u);
  moves = PlanSteals({9, 0}, 8);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].want, 4u);
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

}  // namespace
}  // namespace qcm
