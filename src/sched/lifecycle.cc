#include "sched/lifecycle.h"

#include "gthinker/task.h"
#include "util/logging.h"

namespace qcm {

const char* TaskStateName(TaskState state) {
  switch (state) {
    case TaskState::kSpawned:
      return "spawned";
    case TaskState::kReady:
      return "ready";
    case TaskState::kRunning:
      return "running";
    case TaskState::kSuspended:
      return "suspended";
    case TaskState::kDone:
      return "done";
  }
  return "?";
}

bool IsLegalTransition(TaskState from, TaskState to) {
  switch (from) {
    case TaskState::kSpawned:
      // Admission: straight to a queue.
      return to == TaskState::kReady;
    case TaskState::kReady:
      return to == TaskState::kRunning;
    case TaskState::kRunning:
      // Requeue, park on an outstanding pull, or finish.
      return to == TaskState::kReady || to == TaskState::kSuspended ||
             to == TaskState::kDone;
    case TaskState::kSuspended:
      return to == TaskState::kReady;
    case TaskState::kDone:
      return false;  // terminal
  }
  return false;
}

void AdvanceTaskState(Task& task, TaskState to) {
  const TaskState from = task.sched_info().state;
  QCM_CHECK(IsLegalTransition(from, to))
      << "illegal task lifecycle transition " << TaskStateName(from)
      << " -> " << TaskStateName(to) << " (root " << task.root() << ")";
  task.sched_info().state = to;
}

}  // namespace qcm
