// The reforged G-thinker engine (paper §5): an in-process simulation of a
// cluster of machines, each running mining threads ("compers") over
// thread-local small-task queues plus a machine-wide global big-task queue,
// with disk spilling (L_small / L_big), prioritized big-task scheduling,
// batched task spawning, and master-coordinated stealing of big tasks
// between machines.
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
//   3. No work anywhere: idle briefly and re-check for termination.
//
// A task whose compute round Request()ed vertices that are neither local,
// pinned, nor cached returns kSuspended: it yields its comper and parks in
// the machine's PullBroker until batched kPullRequest/kPullResponse
// messages -- delayed by the fabric's modeled network latency -- have
// delivered (and pinned) every missing adjacency. Compers never answer a
// peer's request: the fabric's one pull-responder thread per process
// serves it from the owner's read-only vertex table while the owner's
// compers keep mining (paper §5's communication thread). Steal transfers
// ride the same fabric as kStealBatch messages, so transfer time overlaps
// with mining on both machines instead of blocking the steal master; the
// balancing plan itself (shared with the cluster Coordinator) comes from
// sched/steal_planner.h, sized per link by the RTT EWMAs the fabric
// feeds into a LinkRttTracker.
//
// Process-per-machine mode: constructed with a Transport and a
// partitioned VertexTable, the engine hosts exactly ONE machine (the
// transport's rank) of a real multi-process cluster. The compute path is
// identical -- same fabric message types, same scheduling discipline, same
// pull protocol -- but remote fabric sends ride the wire, the in-process
// steal master is replaced by the cluster coordinator's kStealCmd frames
// (executed here against the local global queue), and local quiescence is
// only reported upward (StatusLoop): termination arrives from the
// coordinator's distributed detection instead of MaybeFinish. Pending-
// task accounting crosses the wire with the tasks: a shipped steal batch
// leaves this process's pending_ only after its frame was counted as
// sent, and enters the receiver's pending_ before the frame is counted
// as processed, so the coordinator can never observe a state where work
// exists but no rank shows it.

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
#include "graph/graph.h"
#include "net/transport.h"
#include "sched/rtt.h"
#include "sched/scheduler.h"
#include "util/status.h"

namespace qcm {

class Engine {
 public:
  /// Simulated mode: all of config.num_machines live in this process.
  /// `graph` and `app` must outlive the engine.
  Engine(const Graph* graph, EngineConfig config, App* app);

  /// Process-per-machine mode: this engine runs machine
  /// `transport->rank()` of a `transport->world_size()`-machine cluster
  /// over a partitioned vertex table (config.num_machines must equal the
  /// world size). `app` and `transport` must outlive the engine; the
  /// transport must be connected but not yet started (Run() installs the
  /// handlers and starts it).
  Engine(std::unique_ptr<VertexTable> table, EngineConfig config, App* app,
         Transport* transport);

  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Executes the job to completion and returns the merged report (this
  /// process's machines only; a cluster launcher merges per-rank
  /// reports). Run() may be called once per Engine instance.
  StatusOr<EngineReport> Run();

 private:
  struct Worker;
  class Comper;

  bool distributed() const { return transport_ != nullptr; }
  /// Machine id of workers_[0] (the only worker in distributed mode).
  int first_machine() const { return distributed() ? transport_->rank() : 0; }

  void StealLoop();
  void StatusLoop();
  /// One telemetry sample of this rank's live gauges (kStats payload /
  /// trace counter tracks).
  WireStatsSample SampleStats() const;
  /// Simulated-mode twin of StatusLoop's kStats cadence: records counter
  /// trace events locally (there is no coordinator to ship them to).
  /// Spawned only when tracing is on and stats_interval_ms > 0.
  void StatsSamplerLoop();
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
  void MaybeFinish();
  bool SpawnExhausted() const;

  const Graph* graph_;
  EngineConfig config_;
  App* app_;
  Transport* transport_ = nullptr;

  std::unique_ptr<VertexTable> table_;
  std::unique_ptr<CommFabric> fabric_;
  /// Per-link delivery-latency EWMAs (fed by the fabric, read by the
  /// steal planner).
  std::unique_ptr<LinkRttTracker> rtt_;
  std::vector<std::unique_ptr<Worker>> workers_;
  EngineCounters counters_;

  std::string spill_dir_;
  bool owns_spill_dir_ = false;

  // ---- fault-tolerance state (distributed mode with checkpointing) ----
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
