// The machine-wide global queue for big tasks -- the centerpiece of the
// G-thinker reforge (paper §5): big tasks (|ext(S)| > tau_split) are shared
// by all mining threads of a machine so they are prioritized whenever a
// thread has capacity; overflow spills batches to L_big; the steal master
// moves batches between machines' global queues.
//
// Thread-local small-task queues need no class of their own: they are
// single-owner deques inside each Comper (see engine.cc) whose overflow
// spills to the machine's L_small.

#ifndef QCM_GTHINKER_TASK_QUEUE_H_
#define QCM_GTHINKER_TASK_QUEUE_H_

#include <atomic>
#include <deque>
#include <mutex>
#include <vector>

#include "gthinker/spill.h"
#include "gthinker/task.h"

namespace qcm {

class GlobalQueue {
 public:
  /// `spill` backs L_big; `app` decodes refilled tasks; both must outlive
  /// the queue.
  GlobalQueue(size_t capacity, size_t batch, SpillManager* spill,
              const App* app, EngineCounters* counters);

  /// Appends a big task; if the queue exceeds capacity, a batch of C tasks
  /// at the tail is spilled to L_big.
  void Push(TaskPtr task);

  /// Pops the task at the front. Returns null when the queue is locked by
  /// another thread (the paper's try-lock failure, Case I) or empty. When
  /// the in-memory count is below one batch, refills from L_big first.
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
  void SpillTailLocked();  // requires mu_ held
  void RefillLocked();     // requires mu_ held

  const size_t capacity_;
  const size_t batch_;
  SpillManager* spill_;
  const App* app_;
  EngineCounters* counters_;

  std::mutex mu_;
  std::deque<TaskPtr> q_;
  std::atomic<size_t> size_{0};
};

}  // namespace qcm

#endif  // QCM_GTHINKER_TASK_QUEUE_H_
