// Unit tests for the engine substrates: spill manager, global queue,
// partitioned vertex table, and the QCTask codec. (The vertex cache and
// pull broker are covered in vertex_cache_test.cc.)

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "graph/ego_builder.h"
#include "graph/generators.h"
#include "gthinker/spill.h"
#include "gthinker/task_queue.h"
#include "gthinker/vertex_table.h"
#include "mining/qc_task.h"
#include "sched/lifecycle.h"

namespace qcm {
namespace {

std::string TempSpillDir() {
  std::string dir = testing::TempDir() + "/qcm_spill_test";
  mkdir(dir.c_str(), 0755);
  return dir;
}

/// GlobalQueue's contract (enforced by the lifecycle state machine) is
/// that entering tasks are kReady -- the scheduler admits every task
/// before routing it. Mirror that admission here.
TaskPtr ReadyTask(VertexId root, uint64_t hint) {
  TaskPtr t = QCTask::MakeSpawn(root, hint);
  AdvanceTaskState(*t, TaskState::kReady, nullptr);
  return t;
}

TEST(SpillManagerTest, BatchRoundTripLifo) {
  EngineCounters counters;
  SpillManager spill(TempSpillDir(), "t1", &counters);
  ASSERT_TRUE(spill.SpillBatch({"alpha", "beta"}).ok());
  ASSERT_TRUE(spill.SpillBatch({"gamma"}).ok());
  EXPECT_EQ(spill.FileCount(), 2u);
  EXPECT_EQ(spill.PendingTasks(), 3u);

  // LIFO: most recent batch first.
  auto batch = spill.PopBatch();
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(*batch, (std::vector<std::string>{"gamma"}));
  batch = spill.PopBatch();
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(*batch, (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_EQ(spill.FileCount(), 0u);

  // Empty pop is not an error.
  batch = spill.PopBatch();
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->empty());

  EXPECT_EQ(counters.spill_files.load(), 2u);
  EXPECT_EQ(counters.spilled_tasks.load(), 3u);
  EXPECT_GT(counters.spill_bytes_written.load(), 0u);
  EXPECT_EQ(counters.spill_bytes_read.load(),
            counters.spill_bytes_written.load());
}

TEST(SpillManagerTest, EmptyBatchIsNoop) {
  EngineCounters counters;
  SpillManager spill(TempSpillDir(), "t2", &counters);
  ASSERT_TRUE(spill.SpillBatch({}).ok());
  EXPECT_EQ(spill.FileCount(), 0u);
}

TEST(SpillManagerTest, RemoveAllCleansDisk) {
  EngineCounters counters;
  SpillManager spill(TempSpillDir(), "t3", &counters);
  ASSERT_TRUE(spill.SpillBatch({"x"}).ok());
  spill.RemoveAll();
  EXPECT_EQ(spill.FileCount(), 0u);
  auto batch = spill.PopBatch();
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->empty());
}

TEST(SpillManagerTest, PopBatchOnEmptyDirectoryIsCleanNoop) {
  // A manager that never spilled anything (its directory is empty -- or
  // does not even exist yet) must pop empty batches without error.
  EngineCounters counters;
  SpillManager fresh(TempSpillDir(), "t4_fresh", &counters);
  auto batch = fresh.PopBatch();
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->empty());
  EXPECT_EQ(fresh.FileCount(), 0u);
  EXPECT_EQ(fresh.PendingTasks(), 0u);

  SpillManager ghost(testing::TempDir() + "/qcm_spill_nonexistent",
                     "t4_ghost", &counters);
  batch = ghost.PopBatch();
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->empty());
}

TEST(SpillManagerTest, RemoveAllWithFilesStillPendingDeletesThem) {
  EngineCounters counters;
  const std::string dir = TempSpillDir();
  SpillManager spill(dir, "t5", &counters);
  ASSERT_TRUE(spill.SpillBatch({"a", "b"}).ok());
  ASSERT_TRUE(spill.SpillBatch({"c"}).ok());
  EXPECT_EQ(spill.FileCount(), 2u);
  EXPECT_EQ(spill.PendingTasks(), 3u);

  spill.RemoveAll();
  EXPECT_EQ(spill.FileCount(), 0u);
  EXPECT_EQ(spill.PendingTasks(), 0u);
  // The files are gone from disk, not just from the index.
  for (uint64_t seq = 0; seq < 2; ++seq) {
    const std::string path =
        dir + "/t5_" + std::to_string(seq) + ".spill";
    EXPECT_NE(::access(path.c_str(), F_OK), 0) << path << " still exists";
  }
  // The manager remains usable after the purge.
  ASSERT_TRUE(spill.SpillBatch({"d"}).ok());
  auto batch = spill.PopBatch();
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(*batch, (std::vector<std::string>{"d"}));
}

TEST(VertexTableTest, PartitionsCoverAllVertices) {
  auto g = std::move(GenErdosRenyi(100, 300, 1)).value();
  size_t total = 0;
  for (int m = 0; m < 4; ++m) {
    VertexTable table(&g, 4, m);
    for (VertexId v : table.OwnedVertices()) {
      EXPECT_EQ(table.Owner(v), m);
      EXPECT_TRUE(table.IsLocal(v));
    }
    total += table.OwnedVertices().size();
  }
  EXPECT_EQ(total, g.NumVertices());
}

TEST(QCTaskTest, SpawnTaskRoundTrip) {
  TaskPtr t = QCTask::MakeSpawn(42, 17);
  Encoder enc;
  t->Encode(&enc);
  Decoder dec(enc.buffer());
  auto decoded = QCTask::Decode(&dec);
  ASSERT_TRUE(decoded.ok());
  auto* qt = static_cast<QCTask*>(decoded->get());
  EXPECT_EQ(qt->root(), 42u);
  EXPECT_EQ(qt->iteration(), 1);
  EXPECT_EQ(qt->SizeHint(), 17u);
}

TEST(QCTaskTest, SubtaskRoundTripWithGraph) {
  EgoBuilder builder;
  builder.Stage(5, {7, 9});
  builder.Stage(7, {5, 9});
  builder.Stage(9, {5, 7});
  LocalGraph g = builder.Build();
  TaskPtr t = QCTask::MakeSubtask(5, {5, 7}, {9}, g);
  Encoder enc;
  t->Encode(&enc);
  Decoder dec(enc.buffer());
  auto decoded = QCTask::Decode(&dec);
  ASSERT_TRUE(decoded.ok());
  auto* qt = static_cast<QCTask*>(decoded->get());
  EXPECT_EQ(qt->iteration(), 3);
  EXPECT_EQ(qt->s(), (std::vector<VertexId>{5, 7}));
  EXPECT_EQ(qt->ext(), (std::vector<VertexId>{9}));
  EXPECT_EQ(qt->g(), g);
  EXPECT_EQ(qt->SizeHint(), 1u);
}

TEST(QCTaskTest, DecodeRejectsBadIteration) {
  TaskPtr t = QCTask::MakeSpawn(1, 2);
  Encoder enc;
  t->Encode(&enc);
  std::string bytes = enc.Release();
  bytes[4] = 9;  // iteration byte follows the u32 root
  Decoder dec(bytes);
  EXPECT_FALSE(QCTask::Decode(&dec).ok());
}

class QueueApp : public App {
 public:
  TaskPtr Spawn(VertexId, ComputeContext&) override { return nullptr; }
  ComputeStatus Compute(Task&, ComputeContext&) override {
    return ComputeStatus::kDone;
  }
  StatusOr<TaskPtr> DecodeTask(Decoder* dec) const override {
    return QCTask::Decode(dec);
  }
};

TEST(GlobalQueueTest, FifoWithinCapacity) {
  EngineCounters counters;
  SpillManager spill(TempSpillDir(), "q1", &counters);
  QueueApp app;
  GlobalQueue q(/*capacity=*/100, /*batch=*/4, &spill, &app, &counters);
  q.Push(ReadyTask(1, 10));
  q.Push(ReadyTask(2, 10));
  TaskPtr t = q.TryPop();
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->root(), 1u);
  t = q.TryPop();
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->root(), 2u);
  EXPECT_EQ(q.TryPop(), nullptr);
}

TEST(GlobalQueueTest, OverflowSpillsAndRefills) {
  EngineCounters counters;
  SpillManager spill(TempSpillDir(), "q2", &counters);
  QueueApp app;
  GlobalQueue q(/*capacity=*/8, /*batch=*/4, &spill, &app, &counters);
  for (VertexId v = 0; v < 32; ++v) {
    q.Push(ReadyTask(v, 10));
  }
  EXPECT_GT(spill.FileCount(), 0u);
  // Draining the queue must recover every task exactly once.
  std::vector<bool> seen(32, false);
  for (int i = 0; i < 32; ++i) {
    TaskPtr t = q.TryPop();
    ASSERT_NE(t, nullptr) << "lost tasks after spill, i=" << i;
    ASSERT_LT(t->root(), 32u);
    EXPECT_FALSE(seen[t->root()]) << "duplicate task " << t->root();
    seen[t->root()] = true;
  }
  EXPECT_EQ(q.TryPop(), nullptr);
  EXPECT_EQ(spill.FileCount(), 0u);
}

TEST(GlobalQueueTest, StealBatchMovesTail) {
  EngineCounters counters;
  SpillManager spill(TempSpillDir(), "q3", &counters);
  QueueApp app;
  GlobalQueue q(100, 4, &spill, &app, &counters);
  for (VertexId v = 0; v < 10; ++v) q.Push(ReadyTask(v, 10));
  auto stolen = q.StealBatch(3);
  EXPECT_EQ(stolen.size(), 3u);
  EXPECT_EQ(q.ApproxSize(), 7u);

  GlobalQueue q2(100, 4, &spill, &app, &counters);
  q2.Push(ReadyTask(99, 10));
  q2.PushStolenFront(std::move(stolen));
  // Stolen tasks are prioritized: popped before the resident task.
  TaskPtr t = q2.TryPop();
  ASSERT_NE(t, nullptr);
  EXPECT_NE(t->root(), 99u);
}

TEST(GlobalQueueTest, StealRoundTripPreservesTaskOrder) {
  EngineCounters counters;
  SpillManager spill(TempSpillDir(), "q4", &counters);
  QueueApp app;
  GlobalQueue donor(100, 4, &spill, &app, &counters);
  for (VertexId v = 0; v < 8; ++v) donor.Push(ReadyTask(v, 10));

  // StealBatch removes from the tail, most-recent first: 7, 6, 5.
  auto stolen = donor.StealBatch(3);
  ASSERT_EQ(stolen.size(), 3u);
  EXPECT_EQ(stolen[0]->root(), 7u);
  EXPECT_EQ(stolen[1]->root(), 6u);
  EXPECT_EQ(stolen[2]->root(), 5u);
  // The donor's remaining FIFO order is untouched.
  for (VertexId v = 0; v < 5; ++v) {
    TaskPtr t = donor.TryPop();
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->root(), v);
  }
  EXPECT_EQ(donor.TryPop(), nullptr);

  // PushStolenFront preserves the batch's order ahead of resident tasks:
  // the receiver pops 7, 6, 5, then its own.
  GlobalQueue receiver(100, 4, &spill, &app, &counters);
  receiver.Push(ReadyTask(99, 10));
  receiver.PushStolenFront(std::move(stolen));
  const VertexId expected[] = {7, 6, 5, 99};
  for (VertexId want : expected) {
    TaskPtr t = receiver.TryPop();
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->root(), want);
  }
  EXPECT_EQ(receiver.TryPop(), nullptr);
}

}  // namespace
}  // namespace qcm
