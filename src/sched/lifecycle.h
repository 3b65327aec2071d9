// The task lifecycle of the reforged G-thinker engine, made explicit
// (paper §5 codesign): every task moves through one state machine no
// matter which component currently holds it --
//
//     Spawned ---> Ready <---> Running --> Done
//                   ^  |          |
//                   |  +--> Spilled   (disk round trip)
//                   |  +--> Stolen    (machine round trip)
//                   |                 |
//                   +---- Suspended <-+   (pull outstanding)
//
// Before this layer existed the same lifecycle was implicit and scattered:
// the Engine's compute loop knew about running/requeue, the PullBroker
// about parked tasks, the GlobalQueue/SpillManager about disk round
// trips, and the steal paths about machine round trips -- none of them
// could see (let alone assert) the whole picture. Centralizing the state
// vocabulary and the legality table here lets every component record its
// transition through one checked helper, gives the metrics layer a full
// transition matrix for free, and keeps a new pipeline stage down to a
// new state plus a few table rows, not a hunt through five files.
//
// This header is a leaf: it must not include engine or task headers (they
// include it).

#ifndef QCM_SCHED_LIFECYCLE_H_
#define QCM_SCHED_LIFECYCLE_H_

#include <atomic>
#include <cstdint>

namespace qcm {

class Task;

/// Where in its lifecycle a task currently is. Values index the transition
/// matrix, which EngineReport encodes by index (changing them bumps
/// kWireProtocolVersion); JSON reports name states by TaskStateName.
enum class TaskState : uint8_t {
  /// Created by App::Spawn or ComputeContext::AddTask; not yet admitted.
  kSpawned = 0,
  /// Admitted to a queue (thread-local, global, or broker-released),
  /// waiting for a comper.
  kReady = 1,
  /// Inside App::Compute on a mining thread.
  kRunning = 2,
  /// A compute round Request()ed vertices that are in flight; parked in
  /// the PullBroker until the pull completes (Alg. 3's "add t back").
  kSuspended = 3,
  /// Serialized into an L_small/L_big spill file (disk round trip; the
  /// in-memory object is destroyed and rehydrated on refill).
  kSpilled = 4,
  /// Serialized into a kStealBatch transfer to another machine (the
  /// receiving machine rehydrates it into its global queue).
  kStolen = 5,
  /// Compute returned kDone; the task is finished and destroyed.
  kDone = 6,
};

inline constexpr int kNumTaskStates = 7;

const char* TaskStateName(TaskState state);

/// The legality table of the diagram above.
bool IsLegalTransition(TaskState from, TaskState to);

/// Full transition matrix (atomics; relaxed ordering suffices -- read only
/// after the engine quiesces, exactly like EngineCounters).
struct LifecycleCounters {
  std::atomic<uint64_t> transitions[kNumTaskStates][kNumTaskStates]{};

  void Count(TaskState from, TaskState to) {
    transitions[static_cast<int>(from)][static_cast<int>(to)].fetch_add(
        1, std::memory_order_relaxed);
  }

  uint64_t Transitions(TaskState from, TaskState to) const {
    return transitions[static_cast<int>(from)][static_cast<int>(to)].load(
        std::memory_order_relaxed);
  }

  /// Total transitions entering `to` from any state.
  uint64_t TotalEntering(TaskState to) const {
    uint64_t total = 0;
    for (int from = 0; from < kNumTaskStates; ++from) {
      total += transitions[from][static_cast<int>(to)].load(
          std::memory_order_relaxed);
    }
    return total;
  }
};

/// Moves `task` to `to`, QCM_CHECK-failing (with both state names) on a
/// transition the table forbids, and counts it. `counters` may be null.
void AdvanceTaskState(Task& task, TaskState to, LifecycleCounters* counters);

/// Re-establishes the lifecycle of a task that was serialized away and
/// decoded back (spill refill, steal arrival): the fresh object is stamped
/// with the `origin` state its predecessor was serialized in (kSpilled or
/// kStolen), then advanced to kReady -- so a disk or machine round trip
/// counts as kSpilled->kReady / kStolen->kReady, not as a new spawn.
void RehydrateTaskState(Task& task, TaskState origin,
                        LifecycleCounters* counters);

}  // namespace qcm

#endif  // QCM_SCHED_LIFECYCLE_H_
