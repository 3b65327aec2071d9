// Scheduler: one machine's task-scheduling policy object -- the single
// owner of the task lifecycle (sched/lifecycle.h) that was previously
// inlined across Engine::Comper (admission, routing, spawn batching,
// local-queue spilling), the PullBroker call sites (park/resume), the
// GlobalQueue (big-task routing) and the steal paths. The engine's
// compute loop is a thin driver over this layer: a comper asks the
// scheduler for work, hands back the compute outcome, and services the
// fabric through it; every task state move funnels through the checked
// lifecycle helpers.
//
// A freshly spawned task has one admission path: kSpawned -> kReady ->
// its queue. Its first compute round Request()s what it reads and
// suspends on whatever is remote. Which machine mines a big task is the
// steal planner's call (sched/steal_planner.h), run by the cluster
// Coordinator.
//
// Threading: one Scheduler per machine, shared by that machine's compers.
// The scheduler itself holds only atomics; mutual exclusion lives where
// it always did (GlobalQueue lock, PullBroker lock, SpillManager lock,
// single-owner LocalQueue per comper).

#ifndef QCM_SCHED_SCHEDULER_H_
#define QCM_SCHED_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <unordered_set>

#include "gthinker/checkpoint.h"
#include "gthinker/comm.h"
#include "gthinker/engine_config.h"
#include "gthinker/metrics.h"
#include "gthinker/spill.h"
#include "gthinker/task.h"
#include "gthinker/task_queue.h"
#include "gthinker/vertex_table.h"
#include "sched/lifecycle.h"

namespace qcm {

/// One comper's thread-local small-task queue: a single-owner deque whose
/// overflow, refill, and spawn policy belongs to the Scheduler (the
/// paper's L_small discipline), not to the thread that happens to hold
/// it.
class LocalQueue {
 public:
  size_t size() const { return q_.size(); }
  bool empty() const { return q_.empty(); }

 private:
  friend class Scheduler;
  std::deque<TaskPtr> q_;
};

class Scheduler {
 public:
  /// Everything one machine's scheduling policy touches. All pointers
  /// must outlive the scheduler; `pending`/`active_spawners` are the
  /// engine-wide termination-accounting atomics.
  struct Deps {
    const EngineConfig* config = nullptr;
    App* app = nullptr;
    const VertexTable* table = nullptr;
    PullBroker* broker = nullptr;
    GlobalQueue* global_queue = nullptr;
    SpillManager* small_spill = nullptr;
    EngineCounters* counters = nullptr;
    std::atomic<int64_t>* pending = nullptr;
    std::atomic<int>* active_spawners = nullptr;
    /// Optional checkpoint hooks (null when checkpointing is off). The
    /// scheduler reports root-subtree progress so a root whose every task
    /// completed locally becomes durable as a root-done record.
    RootProgress* root_progress = nullptr;
    /// Optional set of spawn roots already fully mined by this rank's
    /// previous incarnation (from checkpoint replay): the spawn path
    /// skips them entirely. Read-only; must outlive the scheduler.
    const std::unordered_set<VertexId>* completed_roots = nullptr;
  };

  explicit Scheduler(Deps deps);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// One fabric service round for this machine: deliver every due inbox
  /// message (accept pull responses and resume the tasks that were parked
  /// on them, inject stolen big-task batches into the global queue), then
  /// pump the broker's outstanding requests onto the fabric. Resumed
  /// tasks route through `local` when small. Peer pull requests never
  /// come here: the fabric's pull responder answers them.
  void ServiceFabric(CommFabric* fabric, LocalQueue& local);

  /// Next task for a comper (marked kRunning): the machine's global
  /// big-task queue first, then the comper's local queue -- refilled from
  /// L_small or, failing that, by spawning a fresh batch from the
  /// machine's unspawned vertices. Null when nothing is available.
  TaskPtr NextTask(LocalQueue& local, ComputeContext& ctx);

  /// Folds one compute round's outcome back into the lifecycle:
  /// kRequeue re-routes, kSuspended parks on the broker (or degenerates
  /// to a requeue when nothing is actually outstanding), kDone retires
  /// the task and its pending count.
  void OnComputeResult(TaskPtr task, ComputeStatus status,
                       LocalQueue& local);

  /// Admits a task freshly created by a UDF (ComputeContext::AddTask):
  /// counts it pending and routes it.
  void SubmitNew(TaskPtr task, LocalQueue& local);

  /// Every owned vertex has been offered to Spawn.
  bool SpawnExhausted() const;

 private:
  /// Routes a kReady task already counted in pending_: big tasks to the
  /// machine's global queue, small ones to `local`.
  void Enqueue(TaskPtr task, LocalQueue& local);

  /// A task released by the PullBroker (suspension pull complete):
  /// advance it to kReady and route it.
  void OnResumed(TaskPtr task, LocalQueue& local);

  /// Admission of one freshly spawned task. Returns true when the task
  /// was big (the spawn batch stops early, the paper's "avoid generating
  /// many big tasks").
  bool AdmitSpawned(TaskPtr task, LocalQueue& local);

  void PushLocal(LocalQueue& local, TaskPtr task);
  TaskPtr PopLocal(LocalQueue& local, ComputeContext& ctx);
  void RefillLocal(LocalQueue& local, ComputeContext& ctx);

  LifecycleCounters* lifecycle() { return &deps_.counters->lifecycle; }

  Deps deps_;
  std::atomic<size_t> spawn_cursor_{0};
};

}  // namespace qcm

#endif  // QCM_SCHED_SCHEDULER_H_
