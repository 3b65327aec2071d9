// Engine behavior tests with a small toy application (triangle listing):
// termination, requeue, subtask fan-out, result completeness under
// machine/thread sweeps, forced spilling, stealing, and a pull answered
// while the owner's only comper is busy. Every run is an in-process
// cluster (net/local_cluster.h): one engine per rank over loopback TCP
// under the coordinator. The toy apps keep the mining logic out so these
// tests isolate the engine itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>

#include "graph/generators.h"
#include "gthinker/engine.h"
#include "memory_transport.h"
#include "mining/qc_task.h"
#include "net/local_cluster.h"

namespace qcm {
namespace {

/// Toy task: enumerate triangles {v, u, w} with v < u < w where v is the
/// root. The spawned task (iteration 1) reads Gamma(root) and requeues
/// itself (exercising the requeue path); iteration 2 fans out one subtask
/// per pivot u (exercising AddTask bursts, the overflow/spill path and
/// big/small routing); each subtask (iteration 3) emits the triangles of
/// its pivot. Every adjacency read follows the pull protocol: Request()
/// first, and suspend until the engine has delivered a remote vertex (a
/// stolen or spilled task re-requests after reload, since pins are not
/// serialized).
class TriTask : public Task {
 public:
  TriTask(VertexId root, uint64_t hint) : root_(root), hint_(hint) {}

  VertexId root() const override { return root_; }
  uint64_t SizeHint() const override { return hint_; }
  void Encode(Encoder* enc) const override {
    enc->PutU32(root_);
    enc->PutU64(hint_);
    enc->PutU8(iteration_);
    enc->PutU32(pivot_);
    enc->PutU32Vector(frontier_);
  }
  static StatusOr<TaskPtr> Decode(Decoder* dec) {
    VertexId root = 0;
    uint64_t hint = 0;
    QCM_RETURN_IF_ERROR(dec->GetU32(&root));
    QCM_RETURN_IF_ERROR(dec->GetU64(&hint));
    auto t = std::make_unique<TriTask>(root, hint);
    QCM_RETURN_IF_ERROR(dec->GetU8(&t->iteration_));
    QCM_RETURN_IF_ERROR(dec->GetU32(&t->pivot_));
    QCM_RETURN_IF_ERROR(dec->GetU32Vector(&t->frontier_));
    return TaskPtr(std::move(t));
  }

  uint8_t iteration_ = 1;
  VertexId pivot_ = 0;
  std::vector<VertexId> frontier_;  // Gamma(root) restricted to ids > root

 private:
  VertexId root_;
  uint64_t hint_;
};

class TriApp : public App {
 public:
  TaskPtr Spawn(VertexId v, ComputeContext& ctx) override {
    if (ctx.Degree(v) < 2) return nullptr;
    return std::make_unique<TriTask>(v, ctx.Degree(v));
  }

  ComputeStatus Compute(Task& task, ComputeContext& ctx) override {
    auto& t = static_cast<TriTask&>(task);
    if (t.iteration_ == 1) {
      // The root is local unless the task was stolen to another machine.
      if (!ctx.Request(t.root())) return ComputeStatus::kSuspended;
      AdjRef adj = ctx.Fetch(t.root());
      for (VertexId u : adj.adj) {
        if (u > t.root()) t.frontier_.push_back(u);
      }
      t.iteration_ = 2;
      return ComputeStatus::kRequeue;  // exercises the requeue path
    }
    if (t.iteration_ == 2) {
      // Fan out one subtask per pivot.
      for (VertexId pivot : t.frontier_) {
        auto sub = std::make_unique<TriTask>(t.root(), /*hint=*/1);
        sub->iteration_ = 3;
        sub->pivot_ = pivot;
        sub->frontier_ = t.frontier_;
        ctx.AddTask(std::move(sub));
      }
      return ComputeStatus::kDone;
    }
    // Iteration 3: emit triangles {root, pivot, w}.
    if (!ctx.Request(t.pivot_)) return ComputeStatus::kSuspended;
    AdjRef au = ctx.Fetch(t.pivot_);
    std::set<VertexId> au_set(au.adj.begin(), au.adj.end());
    for (VertexId w : t.frontier_) {
      if (w > t.pivot_ && au_set.count(w) != 0) {
        ctx.sink().Emit({t.root(), t.pivot_, w});
      }
    }
    return ComputeStatus::kDone;
  }

  StatusOr<TaskPtr> DecodeTask(Decoder* dec) const override {
    return TriTask::Decode(dec);
  }
};

std::vector<VertexSet> BruteForceTriangles(const Graph& g) {
  std::vector<VertexSet> out;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (VertexId u : g.Neighbors(v)) {
      if (u <= v) continue;
      for (VertexId w : g.Neighbors(u)) {
        if (w <= u) continue;
        if (g.HasEdge(v, w)) out.push_back({v, u, w});
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

EngineConfig BaseConfig() {
  EngineConfig config;
  config.mining.gamma = 0.9;   // unused by TriApp but must validate
  config.mining.min_size = 3;
  config.steal_period_sec = 0.005;
  return config;
}

std::vector<VertexSet> RunTriangles(const Graph& g, EngineConfig config) {
  TriApp app;
  auto report = RunLocalCluster(g, config, &app);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  auto results = std::move(report->results);
  std::sort(results.begin(), results.end());
  return results;
}

TEST(EngineTest, SingleThreadFindsAllTriangles) {
  auto g = std::move(GenErdosRenyi(60, 300, 7)).value();
  EngineConfig config = BaseConfig();
  config.num_machines = 1;
  config.threads_per_machine = 1;
  EXPECT_EQ(RunTriangles(g, config), BruteForceTriangles(g));
}

struct EngineSweepParam {
  int machines;
  int threads;
  uint32_t tau_split;
  size_t local_capacity;
  bool stealing;
};

class EngineSweep : public testing::TestWithParam<EngineSweepParam> {};

TEST_P(EngineSweep, TriangleResultsInvariant) {
  const auto& p = GetParam();
  auto g = std::move(GenBarabasiAlbert(150, 4, 11)).value();
  EngineConfig config = BaseConfig();
  config.num_machines = p.machines;
  config.threads_per_machine = p.threads;
  config.tau_split = p.tau_split;
  config.local_queue_capacity = p.local_capacity;
  config.batch_size = 4;
  config.global_queue_capacity = std::max<size_t>(p.local_capacity, 8);
  config.enable_stealing = p.stealing;
  EXPECT_EQ(RunTriangles(g, config), BruteForceTriangles(g));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EngineSweep,
    testing::Values(
        EngineSweepParam{1, 2, 100, 256, false},
        EngineSweepParam{2, 2, 100, 256, true},
        EngineSweepParam{4, 1, 100, 256, true},
        EngineSweepParam{4, 2, 100, 256, false},
        // tau_split = 0: every task is "big" -> global queue path.
        EngineSweepParam{2, 2, 0, 256, true},
        // Tiny local queues force L_small spilling.
        EngineSweepParam{1, 2, 1000000, 4, false},
        // Tiny global queue capacity forces L_big spilling.
        EngineSweepParam{2, 2, 0, 8, true}))
;

TEST(EngineTest, SpillCountersMoveWhenForced) {
  auto g = std::move(GenBarabasiAlbert(200, 4, 13)).value();
  EngineConfig config = BaseConfig();
  config.num_machines = 1;
  config.threads_per_machine = 1;
  config.tau_split = 1000000;  // everything small
  config.local_queue_capacity = 4;
  config.batch_size = 4;
  TriApp app;
  auto report = RunLocalCluster(g, config, &app);
  ASSERT_TRUE(report.ok());
  // The iteration-2 fan-out (one subtask per pivot) bursts past the tiny
  // local queue capacity and must spill to L_small ...
  EXPECT_GT(report->counters.spill_files, 0u);
  EXPECT_GT(report->counters.spilled_tasks, 0u);
  // ... and every spilled byte is read back.
  EXPECT_EQ(report->counters.spill_bytes_read,
            report->counters.spill_bytes_written);
}

TEST(EngineTest, BigTaskRoutingBySizeHint) {
  auto g = std::move(GenBarabasiAlbert(200, 4, 13)).value();
  EngineConfig config = BaseConfig();
  config.num_machines = 1;
  config.threads_per_machine = 2;
  config.tau_split = 10;  // spawned tasks with degree > 10 are big
  TriApp app;
  auto report = RunLocalCluster(g, config, &app);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->counters.big_tasks, 0u);
  EXPECT_GT(report->counters.small_tasks, 0u);
}

TEST(EngineTest, StealingKeepsResultsCorrect) {
  auto g = std::move(GenBarabasiAlbert(400, 5, 17)).value();
  EngineConfig config = BaseConfig();
  config.num_machines = 4;
  config.threads_per_machine = 1;
  config.tau_split = 0;  // all tasks big -> all balancing via global queues
  config.steal_period_sec = 0.001;
  config.enable_stealing = true;
  EXPECT_EQ(RunTriangles(g, config), BruteForceTriangles(g));
}

/// TriApp variant that skews all spawning onto machine 0 (only vertices
/// it owns spawn tasks) and burns a little CPU per compute round, so the
/// coordinator reliably moves big-task batches to the starved machines.
class SkewedSlowTriApp : public TriApp {
 public:
  explicit SkewedSlowTriApp(int machines) : machines_(machines) {}

  TaskPtr Spawn(VertexId v, ComputeContext& ctx) override {
    if (v % static_cast<uint32_t>(machines_) != 0) return nullptr;
    return TriApp::Spawn(v, ctx);
  }

  ComputeStatus Compute(Task& task, ComputeContext& ctx) override {
    // Busy-wait (not sleep) so the coordinator sees a loaded donor.
    WallTimer t;
    while (t.Seconds() < 0.0003) {
    }
    return TriApp::Compute(task, ctx);
  }

 private:
  int machines_;
};

/// Triangles rooted at vertices owned by machine 0 of `machines`.
std::vector<VertexSet> SkewedReference(const Graph& g, int machines) {
  std::vector<VertexSet> out;
  for (const VertexSet& t : BruteForceTriangles(g)) {
    if (t[0] % static_cast<uint32_t>(machines) == 0) out.push_back(t);
  }
  return out;
}

/// Steal-path end-to-end: stolen big-task batches must arrive through
/// the CommFabric (kStealBatch messages) and results must be identical
/// whatever delivery latency the fabric models.
TEST(EngineTest, StealBatchesBitIdenticalAcrossLatencies) {
  const int kMachines = 4;
  auto g = std::move(GenBarabasiAlbert(150, 4, 11)).value();
  const auto expected = SkewedReference(g, kMachines);
  ASSERT_FALSE(expected.empty());

  for (const double latency_sec : {0.0, 0.002}) {
    EngineConfig config = BaseConfig();
    config.num_machines = kMachines;
    config.threads_per_machine = 1;
    config.tau_split = 0;  // every task is big -> stealable
    config.steal_period_sec = 0.001;
    config.enable_stealing = true;
    // The subtasks' pivot pulls feed the per-link RTT estimates; keep the
    // planner at its flat batch cap so a slow (or merely loaded) link
    // cannot suppress every move. Latency-aware suppression is pinned by
    // StealPlannerTest.SlowLinksSuppressDribbleMoves.
    config.steal_rtt_reference_sec = 1.0;
    config.net_latency_sec = latency_sec;
    SkewedSlowTriApp app(kMachines);
    auto report = RunLocalCluster(g, config, &app);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    auto results = std::move(report->results);
    std::sort(results.begin(), results.end());
    EXPECT_EQ(results, expected)
        << "latency sec=" << latency_sec;

    const int steal = static_cast<int>(MessageType::kStealBatch);
    EXPECT_GT(report->counters.stolen_tasks, 0u)
        << "skewed load must force steals";
    EXPECT_GT(report->counters.msg_sent[steal], 0u);
    // Every steal batch was delivered; none drained at termination.
    EXPECT_EQ(report->counters.msg_sent[steal],
              report->counters.msg_delivered[steal]);
    EXPECT_EQ(report->counters.msg_drained, 0u);
    EXPECT_GT(report->counters.steal_bytes, 0u);
  }
}

// With stealing off, or with one machine, there is nothing to balance:
// a long steal period must not delay termination, and nothing moves.
TEST(EngineTest, NoStealingNeverWaitsOutTheStealPeriod) {
  auto g = std::move(GenErdosRenyi(60, 300, 7)).value();
  for (const int machines : {1, 2}) {
    EngineConfig config = BaseConfig();
    config.num_machines = machines;
    config.threads_per_machine = 2;
    config.enable_stealing = machines == 1;
    config.steal_period_sec = 10.0;  // would stall termination if waited on
    TriApp app;
    WallTimer wall;
    auto report = RunLocalCluster(g, config, &app);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_LT(wall.Seconds(), 5.0) << "machines=" << machines;
    EXPECT_EQ(report->counters.steal_events, 0u) << "machines=" << machines;
    EXPECT_EQ(report->counters.stolen_tasks, 0u) << "machines=" << machines;
  }
}

TEST(EngineTest, RemoteFetchesHappenWithMultipleMachines) {
  auto g = std::move(GenErdosRenyi(100, 600, 19)).value();
  EngineConfig config = BaseConfig();
  config.num_machines = 4;
  config.threads_per_machine = 1;
  TriApp app;
  auto report = RunLocalCluster(g, config, &app);
  ASSERT_TRUE(report.ok());
  // Remote pivots arrive through batched pulls the subtasks suspend on.
  EXPECT_GT(report->counters.cache_misses, 0u);
  EXPECT_GT(report->counters.task_suspensions, 0u);
  EXPECT_GT(report->counters.pulled_vertices, 0u);
}

// A two-task probe app for where vertex pulls are answered (paper §5: a
// communication thread serves vertex requests, never a comper). The
// owner machine's only comper blocks inside Compute until the requester's
// task has had its pull of an owner vertex delivered. If only a comper
// could answer the request, the owner waits out its bound instead and
// records that the pull was not answered while it was busy -- a broken
// build fails rather than hangs.
struct BusyOwnerProbe {
  /// The owner's task is inside Compute, holding its machine's comper.
  std::atomic<bool> owner_busy{false};
  /// The requester's task read the pulled adjacency.
  std::atomic<bool> pull_delivered{false};
  /// The owner's verdict: the pull was delivered while it was busy.
  std::atomic<bool> answered_while_busy{false};
};

class BusyOwnerApp : public App {
 public:
  /// `requester_root`'s task pulls `pulled`, a vertex of
  /// `owner_root`'s machine, once `owner_root`'s task is busy; every wait
  /// gives up after `wait_sec`.
  BusyOwnerApp(BusyOwnerProbe* probe, VertexId requester_root,
               VertexId owner_root, VertexId pulled, double wait_sec)
      : probe_(probe),
        requester_root_(requester_root),
        owner_root_(owner_root),
        pulled_(pulled),
        wait_sec_(wait_sec) {}

  TaskPtr Spawn(VertexId v, ComputeContext& ctx) override {
    (void)ctx;
    if (v != requester_root_ && v != owner_root_) return nullptr;
    return std::make_unique<ProbeTask>(v);
  }

  ComputeStatus Compute(Task& task, ComputeContext& ctx) override {
    if (task.root() == owner_root_) {
      probe_->owner_busy.store(true);
      probe_->answered_while_busy.store(Await(probe_->pull_delivered));
      return ComputeStatus::kDone;
    }
    Await(probe_->owner_busy);
    if (!ctx.Request(pulled_)) return ComputeStatus::kSuspended;
    // Emits the pair when the delivered adjacency holds the edge back to
    // the root (the tests' graphs have it).
    AdjRef adj = ctx.Fetch(pulled_);
    for (VertexId u : adj.adj) {
      if (u == task.root()) ctx.sink().Emit({task.root(), pulled_});
    }
    probe_->pull_delivered.store(true);
    return ComputeStatus::kDone;
  }

  StatusOr<TaskPtr> DecodeTask(Decoder* dec) const override {
    VertexId root = 0;
    QCM_RETURN_IF_ERROR(dec->GetU32(&root));
    return TaskPtr(std::make_unique<ProbeTask>(root));
  }

 private:
  class ProbeTask : public Task {
   public:
    explicit ProbeTask(VertexId root) : root_(root) {}
    VertexId root() const override { return root_; }
    uint64_t SizeHint() const override { return 1; }
    void Encode(Encoder* enc) const override { enc->PutU32(root_); }

   private:
    VertexId root_;
  };

  /// Waits until `flag` is set or the bound runs out; returns the flag.
  bool Await(const std::atomic<bool>& flag) const {
    WallTimer waited;
    while (!flag.load() && waited.Seconds() < wait_sec_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return flag.load();
  }

  BusyOwnerProbe* probe_;
  VertexId requester_root_;
  VertexId owner_root_;
  VertexId pulled_;
  double wait_sec_;
};

// Machine 1's only comper is stuck in a long task; machine 0's task pulls
// a machine-1 vertex meanwhile. The pull responder answers it at once
// instead of after the comper's task.
TEST(EngineTest, PullIsAnsweredWhileTheOwnersOnlyComperIsBusy) {
  // Owner(v) = v % 2: roots 0 (machine 0) and 1 (machine 1); vertex 3
  // (machine 1) is pulled.
  auto g = Graph::FromEdges(4, {{0, 1}, {0, 3}, {1, 3}, {2, 3}});
  ASSERT_TRUE(g.ok());
  EngineConfig config = BaseConfig();
  config.num_machines = 2;
  config.threads_per_machine = 1;
  config.enable_stealing = false;
  BusyOwnerProbe probe;
  BusyOwnerApp app(&probe, /*requester_root=*/0, /*owner_root=*/1,
                   /*pulled=*/3, /*wait_sec=*/10.0);
  auto report = RunLocalCluster(g.value(), config, &app);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(probe.answered_while_busy.load())
      << "the pull waited for the owner's busy comper";
  EXPECT_EQ(report->counters.pulled_vertices, 1u);
  EXPECT_EQ(report->results, std::vector<VertexSet>({{0, 3}}));
}

TEST(EngineTest, RunTwiceIsAnError) {
  auto g = std::move(GenErdosRenyi(20, 40, 1)).value();
  EngineConfig config = BaseConfig();
  TriApp app;
  // A world of one needs no coordinator: idle is globally quiescent.
  MemoryNetwork net(1);
  net.TerminateWhenIdle();
  Engine engine(std::make_unique<VertexTable>(&g, 1, 0), config, &app,
                net.at(0));
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_FALSE(engine.Run().ok());
}

TEST(EngineTest, InvalidConfigRejected) {
  auto g = std::move(GenErdosRenyi(20, 40, 1)).value();
  EngineConfig config = BaseConfig();
  config.num_machines = 0;
  TriApp app;
  WallTimer wall;
  EXPECT_FALSE(RunLocalCluster(g, config, &app).ok());
  EXPECT_LT(wall.Seconds(), 5.0);
}

TEST(EngineTest, ThreadSummariesCoverAllThreads) {
  auto g = std::move(GenErdosRenyi(80, 400, 23)).value();
  EngineConfig config = BaseConfig();
  config.num_machines = 2;
  config.threads_per_machine = 3;
  TriApp app;
  auto report = RunLocalCluster(g, config, &app);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->threads.size(), 6u);
  uint64_t total_tasks = 0;
  for (const auto& t : report->threads) total_tasks += t.tasks_processed;
  // Every spawned task is processed twice (requeue), so processing rounds
  // exceed completions.
  EXPECT_GE(total_tasks, report->counters.tasks_completed);
  EXPECT_GT(report->counters.tasks_completed, 0u);
}

}  // namespace
}  // namespace qcm
