// Task queues and the one format in which tasks leave memory (paper §5).
//
// Tasks leave a machine's memory in batches of at most C
// (EngineConfig::batch_size): an overflowing queue spills its tail to disk
// (L_small behind a comper's queue, L_big behind the global queue), and
// the steal master moves big tasks between machines. Both carry the same
// bytes, written by EncodeTaskBatch: a u32 task count, then each task's
// Task::Encode bytes back to back. A spill file holds one such batch
// (SpillManager frames it), and so does a kStealBatch message.
//
// TaskQueue is the paper's queue policy, one class for every comper's
// thread-local queue and for the machine's global big-task queue: past its
// capacity it spills a batch of C tasks from its tail, and below C tasks
// it refills from the most recently spilled batch. GlobalQueue wraps one
// TaskQueue in the lock its compers share, with the try-lock pop and the
// steal paths.

#ifndef QCM_GTHINKER_TASK_QUEUE_H_
#define QCM_GTHINKER_TASK_QUEUE_H_

#include <atomic>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "gthinker/spill.h"
#include "gthinker/task.h"

namespace qcm {

/// Encodes `tasks` as one batch. Each must be kReady: only a queued task
/// leaves memory.
std::string EncodeTaskBatch(const std::vector<TaskPtr>& tasks);

/// The task count a batch opens with, read without decoding the tasks (a
/// receiver counts a stolen batch as pending before its inbox holds it).
StatusOr<uint32_t> TaskBatchCount(const std::string& batch);

/// Decodes a batch written by EncodeTaskBatch; each decoded task is a new
/// object, admitted kSpawned -> kReady. Corruption unless exactly the
/// batch's count of tasks decodes and the last one ends where `batch`
/// ends.
StatusOr<std::vector<TaskPtr>> DecodeTaskBatch(const std::string& batch,
                                               const App& app);

/// A FIFO of ready tasks backed by one spill list. Not thread-safe: a
/// comper owns its local queue, and GlobalQueue locks around its own.
class TaskQueue {
 public:
  /// Spills to and refills from `spill`; `app` decodes refilled tasks.
  /// Both must outlive the queue.
  TaskQueue(size_t capacity, size_t batch, SpillManager* spill,
            const App* app);

  /// Appends `task`. Past capacity, up to C tasks at the tail (never the
  /// front one) are spilled as one batch.
  void Push(TaskPtr task);

  /// With fewer than C tasks in memory, appends the most recently
  /// spilled batch. Returns false when the queue is below C and nothing
  /// is on disk (a comper then spawns).
  bool Refill();

  /// Removes and returns the front task; null when empty.
  TaskPtr PopFront();

  size_t size() const { return q_.size(); }

  /// The in-memory tasks, front first (GlobalQueue's steal paths).
  std::deque<TaskPtr>& tasks() { return q_; }

 private:
  const size_t capacity_;
  const size_t batch_;
  SpillManager* spill_;
  const App* app_;
  std::deque<TaskPtr> q_;
};

/// The machine-wide queue for big tasks (|ext(S)| > tau_split), shared by
/// all compers of a machine so a thread with capacity picks them first;
/// overflow spills to L_big.
class GlobalQueue {
 public:
  /// `spill` backs L_big; `app` decodes refilled tasks; both must outlive
  /// the queue.
  GlobalQueue(size_t capacity, size_t batch, SpillManager* spill,
              const App* app);

  /// Appends a big task (TaskQueue::Push).
  void Push(TaskPtr task);

  /// Pops the task at the front, refilling from L_big first when fewer
  /// than C tasks are in memory. Returns null when the queue is locked by
  /// another thread (the paper's try-lock failure, Case I) or empty.
  TaskPtr TryPop();

  /// Steal support: removes up to `max_tasks` from the tail.
  std::vector<TaskPtr> StealBatch(size_t max_tasks);

  /// Steal support: stolen tasks go to the front so the receiving
  /// machine processes them right away.
  void PushStolenFront(std::vector<TaskPtr> tasks);

  /// Lock-free approximate size (in-memory only; excludes L_big).
  size_t ApproxSize() const {
    return size_.load(std::memory_order_relaxed);
  }

 private:
  std::mutex mu_;
  TaskQueue q_;
  std::atomic<size_t> size_{0};
};

}  // namespace qcm

#endif  // QCM_GTHINKER_TASK_QUEUE_H_
