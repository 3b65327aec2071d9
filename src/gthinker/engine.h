// The reforged G-thinker engine (paper §5): ONE machine of a cluster,
// running mining threads ("compers") over thread-local small-task queues
// plus a machine-wide global big-task queue, with disk spilling (L_small /
// L_big), prioritized big-task scheduling, batched task spawning, and
// coordinator-commanded stealing of big tasks between machines.
//
// A cluster is N engines, one per rank, each over its own Transport and
// its rank's partition of the graph (VertexTable), under the Coordinator
// (net/coordinator.h), the paper's master. Two launchers build it:
// net/local_cluster.h runs the ranks as threads of one process (qcm_mine,
// ParallelMiner), and qcm_cluster runs one qcm_worker process per rank.
// The engine cannot tell the two apart.
//
// Scheduling policy -- task lifecycle, admission/routing, the spawn-time
// prefetch pipeline, local-queue spill/refill, park/resume -- lives in
// the src/sched/ layer (one Scheduler per machine); the compute loop
// here is a thin driver of it (the paper's reforged Alg. 3):
//   0. Scheduler::ServiceFabric: deliver every due inbox message (accept
//      pull responses and re-enqueue the tasks that were suspended on
//      them, inject stolen big-task batches into the global queue), then
//      pump the broker's outstanding vertex requests onto the fabric.
//   1. Scheduler::NextTask: the machine's global big-task queue first
//      (try-lock; refill from L_big when low), then the thread's local
//      queue -- refilled from L_small, else by spawning a fresh batch
//      from the machine's unspawned vertices (where the spawn-time
//      prefetch stage runs) -- stopping early if a spawned task is big.
//   2. Scheduler::OnComputeResult folds the round's outcome back into
//      the lifecycle.
//   3. No work anywhere: idle briefly and look again.
//
// A task whose compute round Request()ed vertices that are neither local,
// pinned, nor cached returns kSuspended: it yields its comper and parks in
// the machine's PullBroker until batched kPullRequest/kPullResponse
// messages have delivered (and pinned) every missing adjacency. Compers
// never answer a peer's request: the fabric's pull-responder thread
// serves it from the read-only vertex table while the compers keep mining
// (paper §5's communication thread). Steal batches ride the same fabric
// as kStealBatch messages, so transfer time overlaps with mining on both
// machines.
//
// Control plane: a status thread (StatusLoop) publishes this rank's
// termination inputs and load upward; the coordinator answers with
// kStealCmd frames (executed here against the local global queue) and,
// once its distributed detection proves global quiescence, the
// termination signal. Pending-task accounting crosses the wire with the
// tasks: a shipped steal batch leaves this engine's pending count only
// after its frame was counted as sent, and enters the receiver's before
// the frame is counted as processed, so the coordinator can never observe
// a state where work exists but no rank shows it.

#ifndef QCM_GTHINKER_ENGINE_H_
#define QCM_GTHINKER_ENGINE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "gthinker/checkpoint.h"
#include "gthinker/comm.h"
#include "gthinker/engine_config.h"
#include "gthinker/metrics.h"
#include "gthinker/spill.h"
#include "gthinker/task.h"
#include "gthinker/task_queue.h"
#include "gthinker/vertex_table.h"
#include "net/transport.h"
#include "sched/scheduler.h"
#include "util/status.h"

namespace qcm {

class Engine {
 public:
  /// Runs machine `transport->rank()` of a `transport->world_size()`-
  /// machine cluster over that rank's vertex table (config.num_machines
  /// must equal the world size). `app` and `transport` must outlive the
  /// engine; the transport must be connected but not yet started (Run()
  /// installs the handlers and starts it).
  Engine(std::unique_ptr<VertexTable> table, EngineConfig config, App* app,
         Transport* transport);

  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Executes the job until the coordinator declares global termination
  /// and returns this rank's report (a launcher merges the ranks'
  /// reports). Run() may be called once per Engine instance.
  StatusOr<EngineReport> Run();

 private:
  class Comper;

  void StatusLoop();
  /// One telemetry sample of this rank's live gauges (kStats payload).
  WireStatsSample SampleStats() const;
  /// Pending big tasks = Q_global + L_big (the quantity the coordinator's
  /// steal planner balances across machines).
  uint64_t PendingBig() const;
  void OnWireData(int src, uint8_t type, std::string payload,
                  uint64_t wire_transit_usec);
  void OnStealCommand(int receiver, uint64_t want);
  /// Rank `peer` was declared dead (transport hook, after its old
  /// incarnation's receive path is fully quiesced): drop its pull
  /// requests still at the responder, reset the pair's processed counter
  /// and re-inject every steal batch this rank had shipped there --
  /// whatever the dead rank had not finished of them is mined here instead
  /// (completed parts become duplicates the final dedup discards).
  void OnPeerDown(int peer);
  /// Rank `peer`'s replacement is up: re-request every vertex pull that
  /// was in flight toward the old incarnation.
  void OnPeerUp(int peer);
  /// Puts a kStealBatch payload back into the local fabric as local
  /// work. `add_pending` distinguishes a batch whose tasks already left
  /// pending_ (shipped earlier; re-add them) from one caught before the
  /// ship (never decremented).
  void ReinjectStealPayload(std::string payload, bool add_pending);

  EngineConfig config_;
  App* app_;
  Transport* transport_;
  const int rank_;

  std::unique_ptr<VertexTable> table_;
  std::unique_ptr<CommFabric> fabric_;
  // The machine's parts, built by Run().
  std::unique_ptr<DataService> data_;
  std::unique_ptr<PullBroker> broker_;         // batched vertex pulls
  std::unique_ptr<SpillManager> small_spill_;  // L_small
  std::unique_ptr<SpillManager> big_spill_;    // L_big
  std::unique_ptr<GlobalQueue> global_queue_;  // Q_global
  std::unique_ptr<Scheduler> sched_;           // the machine's policy
  /// Compers currently inside App::Compute; sampled by the CommFabric at
  /// enqueue time for the overlap-ratio metric.
  std::atomic<int> busy_compers_{0};
  EngineCounters counters_;

  std::string spill_dir_;
  bool owns_spill_dir_ = false;

  // ---- fault-tolerance state (with checkpointing) ----
  /// Durable progress log + replay of a crashed predecessor (see
  /// gthinker/checkpoint.h). Null when config_.checkpoint_dir is empty.
  std::unique_ptr<CheckpointLog> ckpt_log_;
  std::unique_ptr<RootProgress> root_progress_;
  /// Spawn roots the previous incarnation fully mined (skipped at spawn).
  std::unordered_set<VertexId> completed_roots_;
  /// Results replayed from the predecessor's log; appended to the final
  /// report alongside freshly mined ones.
  std::vector<VertexSet> recovered_results_;
  /// Copies of every kStealBatch payload shipped to each peer, kept until
  /// that peer dies (then re-injected locally) or the run ends. Steal
  /// batches are few and small relative to the graph, so per-run
  /// retention is cheap insurance against losing shipped tasks.
  std::mutex retained_mu_;
  std::vector<std::vector<std::string>> retained_steals_;

  std::atomic<int64_t> pending_{0};
  std::atomic<int> active_spawners_{0};
  /// Per-source-rank processed-frame counters (the per-pair half of the
  /// termination contract; reset to zero when the source rank dies). A
  /// pull request counts once the responder has sent its response.
  std::vector<std::atomic<uint64_t>> processed_from_;
  std::atomic<bool> done_{false};
  bool ran_ = false;
};

}  // namespace qcm

#endif  // QCM_GTHINKER_ENGINE_H_
