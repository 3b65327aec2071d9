// Scheduler: one machine's task-scheduling policy object and the owner of
// the task lifecycle (sched/lifecycle.h): admission, routing between the
// global and the local queues, spawn batching and park/resume. Spilling a
// queue's tail and refilling it belong to the queue itself (TaskQueue,
// gthinker/task_queue.h). The engine's compute loop is a thin driver over
// this layer: a comper asks the scheduler for work, hands back the compute
// outcome, and services the fabric through it; every task state move
// funnels through the checked AdvanceTaskState.
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
// single-owner TaskQueue per comper).

#ifndef QCM_SCHED_SCHEDULER_H_
#define QCM_SCHED_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <unordered_set>

#include "gthinker/checkpoint.h"
#include "gthinker/comm.h"
#include "gthinker/engine_config.h"
#include "gthinker/metrics.h"
#include "gthinker/task.h"
#include "gthinker/task_queue.h"
#include "gthinker/vertex_table.h"
#include "sched/lifecycle.h"

namespace qcm {

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
  void ServiceFabric(CommFabric* fabric, TaskQueue& local);

  /// Next task for a comper (marked kRunning): the machine's global
  /// big-task queue first, then the comper's local queue -- refilled from
  /// L_small or, failing that, by spawning a fresh batch from the
  /// machine's unspawned vertices. Null when nothing is available.
  TaskPtr NextTask(TaskQueue& local, ComputeContext& ctx);

  /// Folds one compute round's outcome back into the lifecycle:
  /// kRequeue re-routes, kSuspended parks on the broker (or degenerates
  /// to a requeue when nothing is actually outstanding), kDone retires
  /// the task and its pending count.
  void OnComputeResult(TaskPtr task, ComputeStatus status,
                       TaskQueue& local);

  /// Admits a task freshly created by a UDF (ComputeContext::AddTask):
  /// counts it pending and routes it.
  void SubmitNew(TaskPtr task, TaskQueue& local);

  /// Every owned vertex has been offered to Spawn.
  bool SpawnExhausted() const;

 private:
  /// Routes a kReady task already counted in pending_: big tasks to the
  /// machine's global queue, small ones to `local`.
  void Enqueue(TaskPtr task, TaskQueue& local);

  /// A task released by the PullBroker (suspension pull complete):
  /// advance it to kReady and route it.
  void OnResumed(TaskPtr task, TaskQueue& local);

  /// Admission of one freshly spawned task. Returns true when the task
  /// was big (the spawn batch stops early, the paper's "avoid generating
  /// many big tasks").
  bool AdmitSpawned(TaskPtr task, TaskQueue& local);

  /// Spawns a batch of up to C small tasks from the machine's unspawned
  /// vertices into `local`, stopping early after a big one.
  void SpawnBatch(TaskQueue& local, ComputeContext& ctx);

  Deps deps_;
  std::atomic<size_t> spawn_cursor_{0};
};

}  // namespace qcm

#endif  // QCM_SCHED_SCHEDULER_H_
