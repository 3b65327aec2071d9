// The task lifecycle of the reforged G-thinker engine (paper §5): every
// live task is in one of five states, and every move is legality-checked
// no matter which component makes it --
//
//     Spawned ---> Ready <---> Running --> Done
//                   ^                 |
//                   +---- Suspended <-+   (pull outstanding)
//
// A task leaves memory only as bytes: a spill file or a kStealBatch
// (EncodeTaskBatch, gthinker/task_queue.h) takes Ready tasks, and the
// object it decodes on the far side is a new one, admitted
// Spawned -> Ready. How often each move happens is the registry's
// business (tasks_completed, task_suspensions, spilled_tasks,
// stolen_tasks in gthinker/metrics.h), not this layer's.
//
// This header is a leaf: it must not include engine or task headers (they
// include it).

#ifndef QCM_SCHED_LIFECYCLE_H_
#define QCM_SCHED_LIFECYCLE_H_

#include <cstdint>

namespace qcm {

class Task;

/// Where in its lifecycle a task currently is.
enum class TaskState : uint8_t {
  /// Created by App::Spawn, ComputeContext::AddTask or a batch decode;
  /// not yet admitted.
  kSpawned = 0,
  /// Admitted to a queue (thread-local, global, or broker-released),
  /// waiting for a comper.
  kReady = 1,
  /// Inside App::Compute on a mining thread.
  kRunning = 2,
  /// A compute round Request()ed vertices that are in flight; parked in
  /// the PullBroker until the pull completes (Alg. 3's "add t back").
  kSuspended = 3,
  /// Compute returned kDone; the task is finished and destroyed.
  kDone = 4,
};

inline constexpr int kNumTaskStates = 5;

const char* TaskStateName(TaskState state);

/// The legality table of the diagram above.
bool IsLegalTransition(TaskState from, TaskState to);

/// Moves `task` to `to`, QCM_CHECK-failing (with both state names) on a
/// transition the table forbids.
void AdvanceTaskState(Task& task, TaskState to);

}  // namespace qcm

#endif  // QCM_SCHED_LIFECYCLE_H_
