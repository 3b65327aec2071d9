// The src/sched/ scheduling layer in isolation: the task lifecycle state
// machine (legality table, the batch round trip, illegal-transition
// assertions), the paper's flat steal plan, and EngineConfig validation
// rejects (file:line, contradictions).

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
  EXPECT_STREQ(TaskStateName(TaskState::kDone), "done");
}

TEST(LifecycleTest, LegalityTableMatchesTheDiagram) {
  using S = TaskState;
  // The full legal set, row by row.
  const std::pair<S, S> legal[] = {
      {S::kSpawned, S::kReady},      {S::kReady, S::kRunning},
      {S::kRunning, S::kReady},      {S::kRunning, S::kSuspended},
      {S::kRunning, S::kDone},       {S::kSuspended, S::kReady},
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
  EXPECT_EQ(legal_count, 6);
  // kDone is terminal: nothing leaves it.
  for (int to = 0; to < kNumTaskStates; ++to) {
    EXPECT_FALSE(IsLegalTransition(S::kDone, static_cast<S>(to)));
  }
}

// A spill file and a steal batch carry queued tasks as bytes; the far side
// decodes new objects and admits each one, ready to run.
TEST(LifecycleTest, BatchRoundTripAdmitsEachDecodedTask) {
  const QCApp app{EngineConfig{}};
  std::vector<TaskPtr> batch;
  batch.push_back(QCTask::MakeSpawn(3, 2));
  batch.push_back(QCTask::MakeSpawn(9, 200));
  for (TaskPtr& t : batch) AdvanceTaskState(*t, TaskState::kReady);
  const std::string bytes = EncodeTaskBatch(batch);
  EXPECT_EQ(batch[0]->sched_info().state, TaskState::kReady);  // untouched

  auto decoded = DecodeTaskBatch(bytes, app);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), 2u);
  for (const TaskPtr& t : *decoded) {
    EXPECT_EQ(t->sched_info().state, TaskState::kReady);
  }
  EXPECT_EQ((*decoded)[1]->root(), 9u);
}

using LifecycleDeathTest = ::testing::Test;

TEST(LifecycleDeathTest, IllegalTransitionsAssert) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // kSpawned may not run before admission.
  TaskPtr t1 = QCTask::MakeSpawn(1, 1);
  EXPECT_DEATH(AdvanceTaskState(*t1, TaskState::kRunning),
               "illegal task lifecycle transition spawned -> running");
  // kDone is terminal.
  TaskPtr t2 = QCTask::MakeSpawn(2, 1);
  AdvanceTaskState(*t2, TaskState::kReady);
  AdvanceTaskState(*t2, TaskState::kRunning);
  AdvanceTaskState(*t2, TaskState::kDone);
  EXPECT_DEATH(AdvanceTaskState(*t2, TaskState::kReady),
               "illegal task lifecycle transition done -> ready");
  // Only a queued task leaves memory: a running one is mid-compute.
  std::vector<TaskPtr> running;
  running.push_back(QCTask::MakeSpawn(3, 1));
  AdvanceTaskState(*running[0], TaskState::kReady);
  AdvanceTaskState(*running[0], TaskState::kRunning);
  EXPECT_DEATH(EncodeTaskBatch(running), "batching a task in state running");
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
