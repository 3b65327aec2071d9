#include "sched/scheduler.h"

#include "util/logging.h"
#include "util/serde.h"
#include "util/trace.h"

namespace qcm {

// ---------------------------------------------------------------------------
// Spawn-time prefetch oracle: the PrefetchContext App::SpawnPrefetch runs
// against. Want() mirrors ComputeContext::Request exactly -- local, pinned
// and cached vertices are available without a transfer (cache hits are
// pinned into the task so eviction cannot lose them before the first
// round) -- except that a miss queues the id for the task's SPAWN-TIME
// pull instead of suspending a compute round.
// ---------------------------------------------------------------------------

class Scheduler::SpawnPrefetchOracle : public PrefetchContext {
 public:
  SpawnPrefetchOracle(DataService* data, Task* task,
                      EngineCounters* counters)
      : data_(data), task_(task), counters_(counters) {}

  bool IsLocal(VertexId v) const override { return data_->IsLocal(v); }

  uint32_t Degree(VertexId v) const override { return data_->Degree(v); }

  AdjRef LocalAdjacency(VertexId v) const override {
    QCM_CHECK(data_->IsLocal(v))
        << "SpawnPrefetch read of non-local adjacency " << v;
    return data_->table().Adjacency(v);
  }

  bool Want(VertexId v) override {
    if (data_->IsLocal(v)) return true;
    TaskPullState& pulls = task_->pulls();
    if (pulls.Find(v) != nullptr) return true;
    if (auto cached = data_->TryCached(v)) {
      pulls.Pin(v, std::move(cached));
      return true;
    }
    pulls.Want(v);
    counters_->prefetch_issued.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

 private:
  DataService* data_;
  Task* task_;
  EngineCounters* counters_;
};

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

Scheduler::Scheduler(Deps deps) : deps_(deps) {
  QCM_CHECK(deps_.config != nullptr && deps_.app != nullptr &&
            deps_.table != nullptr && deps_.data != nullptr &&
            deps_.broker != nullptr && deps_.global_queue != nullptr &&
            deps_.small_spill != nullptr && deps_.counters != nullptr &&
            deps_.pending != nullptr && deps_.active_spawners != nullptr)
      << "Scheduler constructed with missing dependencies";
}

void Scheduler::ServiceFabric(CommFabric* fabric, LocalQueue& local) {
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
        // Stolen big tasks arrive as prefetched work for this machine's
        // global queue; they stayed counted in pending_ during flight.
        Decoder dec(m.payload);
        uint32_t count = 0;
        Status s = dec.GetU32(&count);
        QCM_CHECK(s.ok()) << "corrupt steal batch: " << s.ToString();
        std::vector<TaskPtr> tasks;
        tasks.reserve(count);
        for (uint32_t i = 0; i < count; ++i) {
          auto task = deps_.app->DecodeTask(&dec);
          QCM_CHECK(task.ok()) << "steal transfer decode failed: "
                               << task.status().ToString();
          RehydrateTaskState(*task.value(), TaskState::kStolen,
                             lifecycle());
          tasks.push_back(std::move(task).value());
        }
        deps_.global_queue->PushStolenFront(std::move(tasks));
        break;
      }
    }
  }
  for (TaskPtr& task : deps_.broker->PumpRequests(fabric)) {
    OnResumed(std::move(task), local);
  }
}

TaskPtr Scheduler::NextTask(LocalQueue& local, ComputeContext& ctx) {
  TaskPtr task = deps_.global_queue->TryPop();
  if (task == nullptr) task = PopLocal(local, ctx);
  if (task != nullptr) {
    AdvanceTaskState(*task, TaskState::kRunning, lifecycle());
  }
  return task;
}

void Scheduler::OnComputeResult(TaskPtr task, ComputeStatus status,
                                LocalQueue& local) {
  task->sched_info().computed_once = true;
  if (status == ComputeStatus::kRequeue) {
    AdvanceTaskState(*task, TaskState::kReady, lifecycle());
    Enqueue(std::move(task), local);  // still counted in pending_
  } else if (status == ComputeStatus::kSuspended &&
             task->pulls().HasWanted()) {
    // The task's pull is outstanding: yield the comper (Alg. 3's "add t
    // back to the queue"). The task stays counted in pending_ while it
    // is parked, so termination cannot race past it; a broker flush
    // resumes it.
    deps_.counters->task_suspensions.fetch_add(1,
                                               std::memory_order_relaxed);
    AdvanceTaskState(*task, TaskState::kSuspended, lifecycle());
    deps_.broker->Park(std::move(task));
  } else if (status == ComputeStatus::kSuspended) {
    // Nothing actually outstanding: degenerate to a requeue.
    AdvanceTaskState(*task, TaskState::kReady, lifecycle());
    Enqueue(std::move(task), local);
  } else {
    AdvanceTaskState(*task, TaskState::kDone, lifecycle());
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

void Scheduler::SubmitNew(TaskPtr task, LocalQueue& local) {
  deps_.pending->fetch_add(1);
  // Registered before the parent's own kDone can decrement the root's
  // outstanding count (AddTask runs inside the parent's compute round),
  // so a tracked root's subtree count never touches zero early.
  if (deps_.root_progress != nullptr) {
    deps_.root_progress->OnSubtask(task->root());
  }
  AdvanceTaskState(*task, TaskState::kReady, lifecycle());
  Enqueue(std::move(task), local);
}

bool Scheduler::SpawnExhausted() const {
  return spawn_cursor_.load() >= deps_.table->OwnedVertices().size();
}

void Scheduler::Enqueue(TaskPtr task, LocalQueue& local) {
  QCM_CHECK(task->sched_info().state == TaskState::kReady)
      << "enqueue of a task in state "
      << TaskStateName(task->sched_info().state);
  if (task->SizeHint() > deps_.config->tau_split) {
    deps_.counters->big_tasks.fetch_add(1, std::memory_order_relaxed);
    deps_.global_queue->Push(std::move(task));
  } else {
    deps_.counters->small_tasks.fetch_add(1, std::memory_order_relaxed);
    PushLocal(local, std::move(task));
  }
}

void Scheduler::OnResumed(TaskPtr task, LocalQueue& local) {
  const bool was_prefetching =
      task->sched_info().state == TaskState::kPrefetching;
  AdvanceTaskState(*task, TaskState::kReady, lifecycle());
  if (was_prefetching) {
    prefetching_.fetch_sub(1, std::memory_order_relaxed);
    // The pipeline's payoff, measured: these pins are sitting in the
    // task BEFORE its first schedule.
    deps_.counters->first_schedule_pins.fetch_add(
        task->pulls().PinCount(), std::memory_order_relaxed);
  }
  Enqueue(std::move(task), local);
}

bool Scheduler::AdmitSpawned(TaskPtr task, LocalQueue& local) {
  deps_.pending->fetch_add(1);
  const bool big = task->SizeHint() > deps_.config->tau_split;
  if (deps_.config->spawn_prefetch &&
      prefetching_.load(std::memory_order_relaxed) < kSpawnPrefetchLimit) {
    SpawnPrefetchOracle oracle(deps_.data, task.get(), deps_.counters);
    deps_.app->SpawnPrefetch(*task, oracle);
    task->sched_info().prefetched = true;
    if (task->pulls().HasWanted()) {
      // Transfer needed: enter the prefetch pipeline stage. The task
      // parks in the broker exactly like a suspended one; the next
      // request pump ships its wants as batched kPullRequests, and the
      // task is first scheduled only once every response has pinned.
      deps_.counters->prefetch_tasks.fetch_add(1,
                                               std::memory_order_relaxed);
      prefetching_.fetch_add(1, std::memory_order_relaxed);
      AdvanceTaskState(*task, TaskState::kPrefetching, lifecycle());
      deps_.broker->Park(std::move(task));
      return big;
    }
    // Everything the first round needs is already here; any cache hits
    // Want() pinned count as first-schedule pins too.
    deps_.counters->first_schedule_pins.fetch_add(
        task->pulls().PinCount(), std::memory_order_relaxed);
  }
  AdvanceTaskState(*task, TaskState::kReady, lifecycle());
  Enqueue(std::move(task), local);
  return big;
}

void Scheduler::PushLocal(LocalQueue& local, TaskPtr task) {
  local.q_.push_back(std::move(task));
  if (local.q_.size() > deps_.config->local_queue_capacity) {
    QCM_TRACE_SPAN(trace::kLifecycle, "spill_batch",
                   deps_.config->batch_size);
    // Spill a batch of C tasks from the tail of the queue.
    std::vector<std::string> blobs;
    blobs.reserve(deps_.config->batch_size);
    while (blobs.size() < deps_.config->batch_size &&
           local.q_.size() > 1) {
      AdvanceTaskState(*local.q_.back(), TaskState::kSpilled, lifecycle());
      Encoder enc;
      local.q_.back()->Encode(&enc);
      blobs.push_back(enc.Release());
      local.q_.pop_back();
    }
    Status s = deps_.small_spill->SpillBatch(blobs);
    QCM_CHECK(s.ok()) << "local queue spill failed: " << s.ToString();
  }
}

TaskPtr Scheduler::PopLocal(LocalQueue& local, ComputeContext& ctx) {
  if (local.q_.size() < deps_.config->batch_size) RefillLocal(local, ctx);
  if (local.q_.empty()) return nullptr;
  TaskPtr t = std::move(local.q_.front());
  local.q_.pop_front();
  return t;
}

/// Refill priority (paper §5 "third change"): L_small first, then spawn a
/// batch of fresh tasks, stopping as soon as a spawned task is big.
void Scheduler::RefillLocal(LocalQueue& local, ComputeContext& ctx) {
  auto blobs = deps_.small_spill->PopBatch();
  QCM_CHECK(blobs.ok()) << "L_small refill failed: "
                        << blobs.status().ToString();
  if (!blobs->empty()) {
    // Traced only when a batch actually rehydrates: an idle comper polls
    // this path constantly and must not flood the ring.
    QCM_TRACE_SPAN(trace::kLifecycle, "refill_spill", blobs->size());
    for (const std::string& blob : blobs.value()) {
      Decoder dec(blob);
      auto task = deps_.app->DecodeTask(&dec);
      QCM_CHECK(task.ok()) << "task decode from L_small failed: "
                           << task.status().ToString();
      RehydrateTaskState(*task.value(), TaskState::kSpilled, lifecycle());
      local.q_.push_back(std::move(task).value());
    }
    return;
  }
  // Spawn from the machine's unspawned vertices. The span is emitted
  // retroactively so an exhausted spawn cursor (the common idle case)
  // records nothing.
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
    ++ctx.metrics().tasks_spawned;
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
