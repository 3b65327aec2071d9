#include "sched/scheduler.h"

#include "util/logging.h"
#include "util/trace.h"

namespace qcm {

Scheduler::Scheduler(Deps deps) : deps_(deps) {
  QCM_CHECK(deps_.config != nullptr && deps_.app != nullptr &&
            deps_.table != nullptr && deps_.broker != nullptr &&
            deps_.global_queue != nullptr && deps_.counters != nullptr &&
            deps_.pending != nullptr && deps_.active_spawners != nullptr)
      << "Scheduler constructed with missing dependencies";
}

void Scheduler::ServiceFabric(CommFabric* fabric, TaskQueue& local) {
  for (Message& m : fabric->Service()) {
    switch (m.type) {
      case MessageType::kPullRequest:
        // The fabric's pull responder answers every request; one here
        // means a message was routed past it.
        QCM_CHECK(false) << "pull request from machine " << m.src
                         << " reached a comper of machine "
                         << deps_.table->rank();
        break;
      case MessageType::kPullResponse:
        for (TaskPtr& task : deps_.broker->AcceptResponse(m.payload)) {
          OnResumed(std::move(task), local);
        }
        break;
      case MessageType::kStealBatch: {
        // Stolen big tasks arrive for this machine's global queue; they
        // stayed counted in pending_ during flight.
        auto tasks = DecodeTaskBatch(m.payload, *deps_.app);
        QCM_CHECK(tasks.ok()) << "corrupt steal batch from machine " << m.src
                              << ": " << tasks.status().ToString();
        deps_.global_queue->PushStolenFront(std::move(tasks).value());
        break;
      }
    }
  }
  for (TaskPtr& task : deps_.broker->PumpRequests(fabric)) {
    OnResumed(std::move(task), local);
  }
}

TaskPtr Scheduler::NextTask(TaskQueue& local, ComputeContext& ctx) {
  TaskPtr task = deps_.global_queue->TryPop();
  if (task == nullptr) {
    // Refill priority (paper §5 "third change"): L_small first, then
    // spawn a batch of fresh tasks.
    if (!local.Refill()) SpawnBatch(local, ctx);
    task = local.PopFront();
  }
  if (task != nullptr) {
    AdvanceTaskState(*task, TaskState::kRunning);
  }
  return task;
}

void Scheduler::OnComputeResult(TaskPtr task, ComputeStatus status,
                                TaskQueue& local) {
  if (status == ComputeStatus::kRequeue) {
    AdvanceTaskState(*task, TaskState::kReady);
    Enqueue(std::move(task), local);  // still counted in pending_
  } else if (status == ComputeStatus::kSuspended &&
             task->pulls().HasWanted()) {
    // The task's pull is outstanding: yield the comper (Alg. 3's "add t
    // back to the queue"). The task stays counted in pending_ while it
    // is parked, so termination cannot race past it; a broker flush
    // resumes it.
    deps_.counters->task_suspensions.fetch_add(1,
                                               std::memory_order_relaxed);
    AdvanceTaskState(*task, TaskState::kSuspended);
    deps_.broker->Park(std::move(task));
  } else if (status == ComputeStatus::kSuspended) {
    // Nothing actually outstanding: degenerate to a requeue.
    AdvanceTaskState(*task, TaskState::kReady);
    Enqueue(std::move(task), local);
  } else {
    AdvanceTaskState(*task, TaskState::kDone);
    deps_.counters->tasks_completed.fetch_add(1, std::memory_order_relaxed);
    // Root-progress update happens-after the comper appended this round's
    // results to the checkpoint log, so a root-done record can never
    // become durable ahead of its subtree's results.
    if (deps_.root_progress != nullptr) {
      deps_.root_progress->OnTaskDone(task->root());
    }
    deps_.pending->fetch_sub(1);
  }
}

void Scheduler::SubmitNew(TaskPtr task, TaskQueue& local) {
  deps_.pending->fetch_add(1);
  // Registered before the parent's own kDone can decrement the root's
  // outstanding count (AddTask runs inside the parent's compute round),
  // so a tracked root's subtree count never touches zero early.
  if (deps_.root_progress != nullptr) {
    deps_.root_progress->OnSubtask(task->root());
  }
  AdvanceTaskState(*task, TaskState::kReady);
  Enqueue(std::move(task), local);
}

bool Scheduler::SpawnExhausted() const {
  return spawn_cursor_.load() >= deps_.table->OwnedVertices().size();
}

void Scheduler::Enqueue(TaskPtr task, TaskQueue& local) {
  QCM_CHECK(task->sched_info().state == TaskState::kReady)
      << "enqueue of a task in state "
      << TaskStateName(task->sched_info().state);
  if (task->SizeHint() > deps_.config->tau_split) {
    deps_.counters->big_tasks.fetch_add(1, std::memory_order_relaxed);
    deps_.global_queue->Push(std::move(task));
  } else {
    deps_.counters->small_tasks.fetch_add(1, std::memory_order_relaxed);
    local.Push(std::move(task));
  }
}

void Scheduler::OnResumed(TaskPtr task, TaskQueue& local) {
  AdvanceTaskState(*task, TaskState::kReady);
  Enqueue(std::move(task), local);
}

bool Scheduler::AdmitSpawned(TaskPtr task, TaskQueue& local) {
  deps_.pending->fetch_add(1);
  const bool big = task->SizeHint() > deps_.config->tau_split;
  AdvanceTaskState(*task, TaskState::kReady);
  Enqueue(std::move(task), local);
  return big;
}

void Scheduler::SpawnBatch(TaskQueue& local, ComputeContext& ctx) {
  // The span is emitted retroactively so an exhausted spawn cursor (the
  // common idle case) records nothing.
  const uint64_t spawn_begin_usec =
      trace::Enabled() ? trace::TraceNowMicros() : 0;
  size_t admitted = 0;
  const std::vector<VertexId>& owned = deps_.table->OwnedVertices();
  deps_.active_spawners->fetch_add(1);
  size_t spawned_small = 0;
  while (spawned_small < deps_.config->batch_size) {
    const size_t idx = spawn_cursor_.fetch_add(1);
    if (idx >= owned.size()) break;
    // Checkpoint replay: roots the previous incarnation fully mined are
    // already in the recovered results; spawning them again would only
    // manufacture duplicates for the dedup to discard.
    if (deps_.completed_roots != nullptr &&
        deps_.completed_roots->count(owned[idx]) != 0) {
      deps_.counters->completed_roots_skipped.fetch_add(
          1, std::memory_order_relaxed);
      continue;
    }
    TaskPtr task = deps_.app->Spawn(owned[idx], ctx);
    if (task == nullptr) continue;
    if (deps_.root_progress != nullptr) {
      deps_.root_progress->OnSpawn(owned[idx]);
    }
    const bool big = AdmitSpawned(std::move(task), local);
    ++admitted;
    if (big) break;  // avoid generating many big tasks out of one refill
    ++spawned_small;
  }
  deps_.active_spawners->fetch_sub(1);
  if (admitted > 0 && trace::Enabled()) {
    trace::EmitSpan(QCM_TRACE_NAME("spawn_batch"), trace::kLifecycle,
                    spawn_begin_usec,
                    trace::TraceNowMicros() - spawn_begin_usec,
                    static_cast<uint32_t>(admitted));
  }
}

}  // namespace qcm
