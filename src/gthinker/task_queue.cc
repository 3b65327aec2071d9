#include "gthinker/task_queue.h"

#include <algorithm>

#include "sched/lifecycle.h"
#include "util/logging.h"
#include "util/trace.h"

namespace qcm {

std::string EncodeTaskBatch(const std::vector<TaskPtr>& tasks) {
  Encoder enc;
  enc.PutU32(static_cast<uint32_t>(tasks.size()));
  for (const TaskPtr& t : tasks) {
    QCM_CHECK(t->sched_info().state == TaskState::kReady)
        << "batching a task in state " << TaskStateName(t->sched_info().state)
        << " (root " << t->root() << ")";
    t->Encode(&enc);
  }
  return enc.Release();
}

StatusOr<uint32_t> TaskBatchCount(const std::string& batch) {
  Decoder dec(batch);
  uint32_t count = 0;
  QCM_RETURN_IF_ERROR(dec.GetU32(&count));
  return count;
}

StatusOr<std::vector<TaskPtr>> DecodeTaskBatch(const std::string& batch,
                                               const App& app) {
  Decoder dec(batch);
  uint32_t count = 0;
  QCM_RETURN_IF_ERROR(dec.GetU32(&count));
  std::vector<TaskPtr> tasks;
  // Every encoded task takes at least one byte, so a forged count cannot
  // reserve more than the batch's size.
  tasks.reserve(std::min<size_t>(count, dec.Remaining()));
  for (uint32_t i = 0; i < count; ++i) {
    StatusOr<TaskPtr> task = app.DecodeTask(&dec);
    if (!task.ok()) {
      return Status::Corruption("task batch: task " + std::to_string(i) +
                                " of " + std::to_string(count) + ": " +
                                task.status().message());
    }
    tasks.push_back(std::move(task).value());
  }
  if (!dec.Done()) {
    return Status::Corruption("task batch: " +
                              std::to_string(dec.Remaining()) +
                              " bytes after its " + std::to_string(count) +
                              " tasks");
  }
  for (TaskPtr& t : tasks) AdvanceTaskState(*t, TaskState::kReady);
  return tasks;
}

TaskQueue::TaskQueue(size_t capacity, size_t batch, SpillManager* spill,
                     const App* app)
    : capacity_(capacity), batch_(batch), spill_(spill), app_(app) {}

void TaskQueue::Push(TaskPtr task) {
  q_.push_back(std::move(task));
  if (q_.size() <= capacity_) return;
  QCM_TRACE_SPAN(trace::kLifecycle, "spill_batch", batch_);
  std::vector<TaskPtr> tail;
  tail.reserve(batch_);
  while (tail.size() < batch_ && q_.size() > 1) {
    tail.push_back(std::move(q_.back()));
    q_.pop_back();
  }
  // The tasks exist only in the batch now: a failed write cannot be
  // recovered mid-run.
  const Status s = spill_->SpillBatch(EncodeTaskBatch(tail), tail.size());
  QCM_CHECK(s.ok()) << "task queue spill failed: " << s.ToString();
}

bool TaskQueue::Refill() {
  if (q_.size() >= batch_) return true;
  StatusOr<std::string> batch = spill_->PopBatch();
  QCM_CHECK(batch.ok()) << "task queue refill failed: "
                        << batch.status().ToString();
  if (batch->empty()) return false;
  // Traced only when a batch comes back: an idle comper polls this path
  // constantly and must not flood the ring.
  QCM_TRACE_SPAN(trace::kLifecycle, "refill_spill", batch->size());
  auto tasks = DecodeTaskBatch(*batch, *app_);
  QCM_CHECK(tasks.ok()) << "task queue refill failed: "
                        << tasks.status().ToString();
  for (TaskPtr& t : tasks.value()) q_.push_back(std::move(t));
  return true;
}

TaskPtr TaskQueue::PopFront() {
  if (q_.empty()) return nullptr;
  TaskPtr t = std::move(q_.front());
  q_.pop_front();
  return t;
}

GlobalQueue::GlobalQueue(size_t capacity, size_t batch, SpillManager* spill,
                         const App* app)
    : q_(capacity, batch, spill, app) {}

void GlobalQueue::Push(TaskPtr task) {
  std::lock_guard<std::mutex> lock(mu_);
  q_.Push(std::move(task));
  size_.store(q_.size(), std::memory_order_relaxed);
}

TaskPtr GlobalQueue::TryPop() {
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) return nullptr;  // Case (I): fall back to local
  q_.Refill();
  TaskPtr t = q_.PopFront();  // null: Case (II)
  size_.store(q_.size(), std::memory_order_relaxed);
  return t;
}

std::vector<TaskPtr> GlobalQueue::StealBatch(size_t max_tasks) {
  std::vector<TaskPtr> out;
  std::lock_guard<std::mutex> lock(mu_);
  std::deque<TaskPtr>& q = q_.tasks();
  while (out.size() < max_tasks && !q.empty()) {
    out.push_back(std::move(q.back()));
    q.pop_back();
  }
  size_.store(q.size(), std::memory_order_relaxed);
  return out;
}

void GlobalQueue::PushStolenFront(std::vector<TaskPtr> tasks) {
  std::lock_guard<std::mutex> lock(mu_);
  std::deque<TaskPtr>& q = q_.tasks();
  for (auto it = tasks.rbegin(); it != tasks.rend(); ++it) {
    q.push_front(std::move(*it));
  }
  size_.store(q.size(), std::memory_order_relaxed);
}

}  // namespace qcm
