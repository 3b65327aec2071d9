// A warm search node allocates nothing but the sets it emits. This suite
// replaces the global operator new with a counting one, so it is a binary
// of its own: it mines a fixed set of roots twice through one pooled
// MiningScratch, and on the second pass every operator new inside
// RecursiveMine must be one emitted result set (EmitVerified's output).
// It also holds a comper's per-pop "anything spilled?" check to no
// allocation.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "gthinker/spill.h"
#include "gthinker/task_queue.h"
#include "mining/qc_app.h"
#include "quick/mining_context.h"
#include "quick/recursive_mine.h"
#include "search_fixture.h"

namespace {

std::atomic<uint64_t> g_news{0};

void* CountedAlloc(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace qcm {
namespace {

struct Pass {
  uint64_t news = 0;  // operator new calls inside RecursiveMine
  MiningStats stats;
};

Pass MineRoots(const LocalGraph& g, const MiningOptions& opts,
               const std::vector<std::vector<LocalId>>& exts,
               MiningScratch* scratch) {
  Pass pass;
  CountingSink sink;
  for (LocalId root = 0; root < exts.size(); ++root) {
    MiningContext ctx(&g, opts, &sink, scratch);
    const uint64_t before = g_news.load(std::memory_order_relaxed);
    RecursiveMine(ctx, std::span(&root, 1), exts[root]);
    pass.news += g_news.load(std::memory_order_relaxed) - before;
    pass.stats.Add(ctx.stats);
  }
  return pass;
}

TEST(MiningAllocTest, WarmSearchAllocatesOnlyItsResults) {
  const LocalGraph g = PlantedSearchGraph();
  std::vector<std::vector<LocalId>> exts;
  for (LocalId root = 0; root < kSearchRoots; ++root) {
    exts.push_back(LaterTwoHopBall(g, root));
  }
  for (const bool dense : {false, true}) {
    SCOPED_TRACE(dense ? "dense" : "sparse");
    const MiningOptions opts = SearchOptions(dense);
    MiningScratch scratch;
    const Pass cold = MineRoots(g, opts, exts, &scratch);
    const Pass warm = MineRoots(g, opts, exts, &scratch);
    // The counter sees this binary's allocations: a cold pass grows the
    // frames and buffers, a warm one must not.
    EXPECT_GT(cold.news, cold.stats.emitted);
    ASSERT_GT(warm.stats.emitted, 0u);
    EXPECT_EQ(warm.stats.nodes_explored, cold.stats.nodes_explored);
    EXPECT_EQ(warm.news, warm.stats.emitted)
        << warm.stats.nodes_explored << " search nodes";
  }
}

// Below C tasks in memory, every pop first asks the queue's spill list
// for a batch (TaskQueue::Refill, under GlobalQueue::TryPop for the
// global queue). With nothing on disk that costs a lock and no
// allocation.
TEST(QueueAllocTest, NothingSpilledCheckAllocatesNothing) {
  EngineCounters counters;
  SpillManager spill(::testing::TempDir(), "alloc_check", &counters);
  const QCApp app{EngineConfig{}};
  TaskQueue local(/*capacity=*/8, /*batch=*/4, &spill, &app);
  GlobalQueue global(/*capacity=*/8, /*batch=*/4, &spill, &app);
  TaskPtr task = QCTask::MakeSpawn(1, 1);
  AdvanceTaskState(*task, TaskState::kReady);
  local.Push(std::move(task));

  int refilled = 0;
  int popped = 0;
  const uint64_t before = g_news.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    refilled += local.Refill() ? 1 : 0;
    popped += global.TryPop() != nullptr ? 1 : 0;
  }
  const uint64_t news = g_news.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(news, 0u);
  EXPECT_EQ(refilled, 0);
  EXPECT_EQ(popped, 0);
  EXPECT_EQ(local.size(), 1u);
}

}  // namespace
}  // namespace qcm
