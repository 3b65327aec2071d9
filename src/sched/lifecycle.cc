#include "sched/lifecycle.h"

#include "gthinker/task.h"
#include "util/logging.h"
#include "util/trace.h"

namespace qcm {

namespace {

/// Trace name id per transition target, interned once (indexed by the
/// TaskState value; order matches the enum).
uint16_t LifecycleTraceName(TaskState to) {
  static const uint16_t ids[] = {
      trace::InternName("to_spawned"),   trace::InternName("to_ready"),
      trace::InternName("to_running"),   trace::InternName("to_suspended"),
      trace::InternName("to_spilled"),   trace::InternName("to_stolen"),
      trace::InternName("to_done"),
  };
  return ids[static_cast<int>(to)];
}

}  // namespace

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
    case TaskState::kSpilled:
      return "spilled";
    case TaskState::kStolen:
      return "stolen";
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
      // Scheduled, spilled out of an overflowing queue, or stolen away.
      return to == TaskState::kRunning || to == TaskState::kSpilled ||
             to == TaskState::kStolen;
    case TaskState::kRunning:
      // Requeue, park on an outstanding pull, or finish.
      return to == TaskState::kReady || to == TaskState::kSuspended ||
             to == TaskState::kDone;
    case TaskState::kSuspended:
      return to == TaskState::kReady;
    case TaskState::kSpilled:
      return to == TaskState::kReady;  // rehydrated from disk
    case TaskState::kStolen:
      return to == TaskState::kReady;  // rehydrated on the receiver
    case TaskState::kDone:
      return false;  // terminal
  }
  return false;
}

void AdvanceTaskState(Task& task, TaskState to,
                      LifecycleCounters* counters) {
  const TaskState from = task.sched_info().state;
  QCM_CHECK(IsLegalTransition(from, to))
      << "illegal task lifecycle transition " << TaskStateName(from)
      << " -> " << TaskStateName(to) << " (root " << task.root() << ")";
  task.sched_info().state = to;
  if (counters != nullptr) counters->Count(from, to);
  if (trace::Enabled()) {
    trace::EmitInstant(LifecycleTraceName(to), trace::kLifecycle,
                       static_cast<uint32_t>(task.root()));
  }
}

void RehydrateTaskState(Task& task, TaskState origin,
                        LifecycleCounters* counters) {
  QCM_CHECK(origin == TaskState::kSpilled || origin == TaskState::kStolen)
      << "rehydrate from non-serialized state " << TaskStateName(origin);
  // The decoded object is a fresh kSpawned; stamp it with its
  // predecessor's serialized state so the round trip is visible as
  // kSpilled->kReady / kStolen->kReady in the transition matrix.
  task.sched_info().state = origin;
  AdvanceTaskState(task, TaskState::kReady, counters);
}

}  // namespace qcm
