// The engine's task and application abstractions -- the G-thinker
// programming model (paper §5): a user writes an application by
// implementing two UDFs, task spawning and task computation, plus a task
// codec so the engine can spill tasks to disk and move ("steal") them
// between machines.

#ifndef QCM_GTHINKER_TASK_H_
#define QCM_GTHINKER_TASK_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "gthinker/engine_config.h"
#include "gthinker/metrics.h"
#include "graph/ego_builder.h"
#include "graph/graph.h"
#include "quick/quasi_clique.h"
#include "sched/lifecycle.h"
#include "util/serde.h"
#include "util/status.h"

namespace qcm {
class MiningScratch;  // quick/mining_context.h
}

namespace qcm {

/// Transient pull bookkeeping attached to every task (paper §5's vertex
/// pulling): the vertex ids whose batched pull is outstanding, and the
/// pinned responses delivered so far. Pins are shared_ptr references into
/// pulled adjacency copies, so a vertex a task requested stays available
/// to it even after the vertex cache evicts the entry. Engine-managed;
/// never serialized -- a task spilled to disk (or stolen to another
/// machine as a kStealBatch message) must Request() its remote vertices
/// again after reload. While a pull is outstanding the task
/// stays parked in its machine's PullBroker until the CommFabric delivers
/// the kPullResponse, however long the modeled network latency delays it.
class TaskPullState {
 public:
  using AdjPtr = std::shared_ptr<const std::vector<VertexId>>;

  /// Queues v for the next batched pull round (the caller already checked
  /// that v is neither local, pinned, nor cached).
  void Want(VertexId v) { wanted_.push_back(v); }

  bool HasWanted() const { return !wanted_.empty(); }

  /// Hands the outstanding request ids to the pull broker.
  std::vector<VertexId> TakeWanted() {
    std::vector<VertexId> out = std::move(wanted_);
    wanted_.clear();
    return out;
  }

  /// Records a delivered adjacency for v.
  void Pin(VertexId v, AdjPtr adj) { pins_[v] = std::move(adj); }

  /// The pinned adjacency of v, or null if v was never delivered.
  const AdjPtr* Find(VertexId v) const {
    auto it = pins_.find(v);
    return it == pins_.end() ? nullptr : &it->second;
  }

  /// Releases all pins and outstanding requests. Call once the task no
  /// longer reads the big graph (e.g. its subgraph is materialized), so
  /// pulled adjacency memory is reclaimable during the mining phase.
  void Clear() {
    wanted_.clear();
    pins_.clear();
  }

 private:
  std::vector<VertexId> wanted_;
  std::unordered_map<VertexId, AdjPtr> pins_;
};

/// Scheduling metadata the src/sched layer attaches to every task: its
/// lifecycle state (sched/lifecycle.h). Engine-managed; never serialized
/// -- DecodeTaskBatch admits each decoded task afresh.
struct TaskSchedInfo {
  TaskState state = TaskState::kSpawned;
};

/// A unit of work. Concrete tasks belong to the application; the engine
/// sees only the root (for per-root accounting), a size hint (big/small
/// classification against tau_split), the codec, the transient pull
/// state, and the scheduler's lifecycle metadata.
class Task {
 public:
  virtual ~Task() = default;

  /// The spawning vertex; quasi-cliques found by this task have this as
  /// their smallest member.
  virtual VertexId root() const = 0;

  /// Size proxy compared against tau_split: |ext(S)| once known, the
  /// spawning degree before that.
  virtual uint64_t SizeHint() const = 0;

  /// Serializes the task (spill files, steal transfers). Pull state is
  /// deliberately not serialized (see TaskPullState).
  virtual void Encode(Encoder* enc) const = 0;

  /// Outstanding requests + pinned pull responses (engine/broker-managed).
  TaskPullState& pulls() { return pulls_; }
  const TaskPullState& pulls() const { return pulls_; }

  /// Lifecycle metadata (scheduler-managed; mutate the state
  /// only through AdvanceTaskState so every move is legality-checked).
  TaskSchedInfo& sched_info() { return sched_info_; }
  const TaskSchedInfo& sched_info() const { return sched_info_; }

 private:
  TaskPullState pulls_;
  TaskSchedInfo sched_info_;
};

using TaskPtr = std::unique_ptr<Task>;

/// Adjacency handle returned by vertex fetches. `pin` keeps a cached copy
/// (a pulled remote list, or a budgeted table's own list) alive while the
/// span is in use; it is null when the span points into memory that
/// outlives the read (a resident graph or an unbudgeted mapping).
struct AdjRef {
  std::span<const VertexId> adj;
  std::shared_ptr<const std::vector<VertexId>> pin;
};

/// Everything a UDF may touch while running on a mining thread.
class ComputeContext {
 public:
  virtual ~ComputeContext() = default;

  /// Reads the adjacency list of v immediately from the local table, the
  /// current task's pinned pull responses, or the machine's vertex cache.
  /// There is no transfer on this path: a remote v must have been
  /// Request()ed -- in this round (returning true) or in an earlier round
  /// the task suspended on -- or the read fails a QCM_CHECK naming the
  /// pull-protocol violation, in every deployment alike.
  virtual AdjRef Fetch(VertexId v) = 0;

  /// Registers v for the engine's next batched pull round (one aggregated
  /// kPullRequest message per remote machine, paper §5 Fig. 8). Returns
  /// true when v is already available without a transfer -- machine-local,
  /// pinned in the current task, or a vertex-cache hit (the cache copy is
  /// pinned into the task so a later Fetch cannot lose it to eviction).
  /// Returns false when the pull is outstanding; the UDF should finish its
  /// round and return ComputeStatus::kSuspended (Alg. 3's "add t back to
  /// queue") -- the task resumes once the CommFabric has delivered every
  /// response. Only valid while a task is being computed.
  virtual bool Request(VertexId v) = 0;

  /// Degree of v (vertex metadata, no adjacency transfer).
  virtual uint32_t Degree(VertexId v) = 0;

  /// Adds a newly created (sub)task to the system: big tasks go to this
  /// machine's global queue, small ones to this thread's local queue.
  virtual void AddTask(TaskPtr task) = 0;

  /// Per-thread result collector.
  virtual ResultSink& sink() = 0;

  /// Per-thread metrics (mining vs. materialization attribution).
  virtual ThreadMetrics& metrics() = 0;

  /// Per-thread reusable scratch for ego-network materialization
  /// (Alg. 6-7): lets every task this thread computes build its subgraph
  /// without steady-state allocations.
  virtual EgoScratch& ego_scratch() = 0;

  /// Per-thread reusable scratch for the mining kernels (per-task state
  /// arrays, epoch marks, dense bitset buffers). May be null: the mining
  /// layer then owns a private scratch per task.
  virtual MiningScratch* mining_scratch() { return nullptr; }

  virtual const EngineConfig& config() const = 0;
};

/// Result of one compute round.
enum class ComputeStatus {
  /// Task finished; delete it.
  kDone,
  /// Task must be scheduled again (re-enqueued by size classification).
  kRequeue,
  /// Task yields its comper until every vertex it Request()ed has been
  /// delivered by a batched pull over the CommFabric (one request/
  /// response message pair per remote machine, each delayed by the
  /// modeled network latency); the engine then re-enqueues it. A
  /// suspension with nothing outstanding degenerates to kRequeue.
  kSuspended,
};

/// A G-thinker application: the two UDFs plus the task codec.
class App {
 public:
  virtual ~App() = default;

  /// UDF task_spawn(v): returns the task for v, or null if v spawns
  /// nothing (e.g. degree below the k-core threshold).
  virtual TaskPtr Spawn(VertexId v, ComputeContext& ctx) = 0;

  /// UDF compute(t, frontier): one processing round of t.
  virtual ComputeStatus Compute(Task& task, ComputeContext& ctx) = 0;

  /// Decodes a task previously written by Task::Encode.
  virtual StatusOr<TaskPtr> DecodeTask(Decoder* dec) const = 0;
};

}  // namespace qcm

#endif  // QCM_GTHINKER_TASK_H_
