// Configuration of the reforged G-thinker engine (paper §5-§6).
//
// A run is a cluster of `num_machines` engines, one per machine: each owns
// a hash partition of the vertices, a global big-task queue, spill files
// and `threads_per_machine` mining threads, and the coordinator rebalances
// big tasks across machines ("task stealing"). qcm_mine runs the machines
// as threads of one process and qcm_cluster as one process each (README
// "Deployment"); either stands in for the paper's cluster (16 machines x
// 32 threads there; the defaults below are scaled to one host).
//
// qcm_mine and qcm_cluster set these knobs through one shared flag table
// (tools/cli.h) that only parses values; every range and contradiction
// check lives in Validate().

#ifndef QCM_GTHINKER_ENGINE_CONFIG_H_
#define QCM_GTHINKER_ENGINE_CONFIG_H_

#include <cstdint>
#include <string>

#include "quick/quasi_clique.h"
#include "util/status.h"

namespace qcm {

/// How iteration-3 mining tasks are divided for concurrency (paper §6).
enum class DecomposeMode {
  /// Never decompose: each spawned root is mined to completion by one
  /// thread (parallelism across roots only).
  kNone,
  /// Algorithm 8: split a task one level whenever |ext(S)| > tau_split,
  /// recursively.
  kSizeThreshold,
  /// Algorithms 9-10: mine for tau_time seconds, then wrap the remaining
  /// subtree nodes into new tasks (the paper's default and best strategy).
  kTimeDelayed,
};

const char* DecomposeModeName(DecomposeMode mode);

/// Max tasks parked in the spawn-prefetch stage per machine at once (the
/// pipeline depth); further spawns are admitted without prefetch.
inline constexpr size_t kSpawnPrefetchLimit = 64;

/// Engine knobs. Defaults follow the paper's common settings scaled to a
/// single host.
struct EngineConfig {
  /// Machines, i.e. cluster ranks (the paper uses 16).
  int num_machines = 1;
  /// Mining threads per machine (the paper uses 32).
  int threads_per_machine = 2;

  /// tau_split: |ext(S)| above which a task is "big" and routed to the
  /// machine-wide global queue instead of a thread-local queue.
  uint32_t tau_split = 100;
  /// tau_time: seconds of mining before time-delayed decomposition kicks in.
  double tau_time = 0.01;
  DecomposeMode mode = DecomposeMode::kTimeDelayed;

  /// In-memory task capacity of each thread-local queue; overflow spills a
  /// batch of tasks to disk (L_small).
  size_t local_queue_capacity = 256;
  /// Capacity of each machine's global queue; overflow spills to L_big.
  size_t global_queue_capacity = 1024;
  /// Batch size C for spilling, refilling, spawning and stealing.
  size_t batch_size = 16;

  /// Directory for spill files; empty = a fresh directory under the
  /// system temp dir, removed after the run.
  std::string spill_dir;

  /// The coordinator's load-balancing period (the paper uses 1 s; scaled
  /// down to match single-host task granularity).
  double steal_period_sec = 0.02;
  /// Balance big tasks across machines.
  bool enable_stealing = true;

  /// Per-machine LRU vertex-cache capacity in adjacency-list entries
  /// (paper §5, Figure 8); 0 disables the cache, forcing every remote
  /// access onto the pull/transfer path.
  size_t vertex_cache_capacity = 1 << 16;
  /// Maximum vertex ids per batched pull message: a broker flush sends
  /// one request per remote machine, split into chunks of this size.
  size_t max_pull_batch = 2048;

  /// Spawn-time pull prefetch (sched/scheduler.h pipeline stage): a newly
  /// spawned task Want()s its first compute round's vertices through the
  /// fabric BEFORE its first schedule, so the first round finds pinned
  /// entries instead of suspending on a pull. Results are bit-identical
  /// with the stage on or off (prefetch only changes availability). The
  /// pipeline depth is kSpawnPrefetchLimit tasks per machine.
  bool spawn_prefetch = false;

  /// Latency-aware steal planning (sched/steal_planner.h): per-move batch
  /// caps scale with the link's RTT EWMA in units of this reference RTT;
  /// links at or above it also suppress sub-half-cap moves ("larger,
  /// rarer batches on slow links"). Must be > 0.
  double steal_rtt_reference_sec = 1e-3;
  /// Hard cap multiplier: one steal move never exceeds
  /// batch_size * steal_max_batch_factor tasks. Must be >= 1.
  uint64_t steal_max_batch_factor = 8;

  /// Modeled network latency of every CommFabric message (pull requests,
  /// pull responses, steal batches): a message becomes deliverable this
  /// many seconds of wall time after the send, the wire delay the vertex
  /// cache must hide. 0 = deliver on the destination's next service (the
  /// pre-latency behavior). Must be >= 0.
  double net_latency_sec = 0.0;

  /// Transport send aggregation (see net/transport.h CoalesceConfig). Data frames park in a per-peer
  /// buffer until it holds net_coalesce_bytes or the oldest frame has
  /// waited net_linger_usec, then the buffer flushes as one writev.
  /// Both 0 = coalescing off (every frame flushes immediately; the
  /// default, preserving pre-coalescing flush behavior bit for bit).
  /// Enabling one knob without the other is a contradiction Validate()
  /// rejects: a threshold with no linger bound could park a frame
  /// forever, a linger with no threshold never aggregates anything.
  int64_t net_coalesce_bytes = 0;
  int64_t net_linger_usec = 0;

  /// Record per-root task aggregates (subgraph size, accumulated mining
  /// time) for the figure-reproduction benches.
  bool record_task_log = false;

  /// Fault tolerance (qcm_cluster). checkpoint_dir is the
  /// shared root under which every rank keeps an append-only progress log
  /// at <checkpoint_dir>/rank<R>/log: emitted result sets and completed
  /// root ids, replayed by a replacement worker of the same rank so a
  /// crash never loses finished work. Empty = checkpointing off (the
  /// default; qcm_cluster supplies a directory).
  std::string checkpoint_dir;
  /// Seconds between durability flushes of the progress log (appends are
  /// buffered in between; a crash re-mines at most this much work).
  /// Must be > 0 when checkpoint_dir is set.
  double checkpoint_interval_sec = 0.25;
  /// Worker -> coordinator liveness beacon period in microseconds; the
  /// coordinator declares a rank dead when nothing (heartbeat, status,
  /// report) has arrived from it within its deadline. 0 = no heartbeat
  /// thread. Worker processes only: in-process ranks send none.
  int64_t heartbeat_usec = 100000;

  /// Tracing + telemetry (util/trace.h). trace_out names the Chrome
  /// trace-event JSON file to write: qcm_mine writes it directly, while
  /// cluster workers write per-rank fragments (<trace_out>.rank<R>.jsonl)
  /// the launcher merges into one timeline. Empty = tracing off (the
  /// default; every event site then costs a couple of relaxed atomic
  /// loads, keeping digests and kernel timings bit-identical to an
  /// untraced build). Each thread records into a trace::kRingKb ring.
  std::string trace_out;
  /// Period of the engine's telemetry samples in milliseconds: each rank
  /// ships its queue depth / in-flight bytes / cache hits / busy compers
  /// to the coordinator as a kStats frame, which the launcher renders as
  /// trace counter tracks (and qcm_cluster's ticker). 0 = no samples.
  /// Must be >= 0.
  int64_t stats_interval_ms = 500;

  /// Out-of-core graph storage (graph/csr_snapshot.h). graph_snapshot
  /// names a packed .qcsr file: every cluster worker mmaps it and serves
  /// its partition straight from the mapping (qcm_cluster packs once and
  /// fills this in; a cluster job without one is rejected). In-process
  /// ranks, which share a resident Graph, leave it empty.
  std::string graph_snapshot;
  /// Per-rank budget (bytes) for the rank's own adjacency lists: a budgeted
  /// rank reads each list from the snapshot with pread on a miss and keeps
  /// the copies in an LRU whose charge (list bytes plus
  /// kListChargeOverhead each, gthinker/vertex_table.h) stays within it;
  /// a list whose charge exceeds the budget is read from the file every
  /// time. 0 = unbounded (lists are read straight from the mapping).
  /// Requires graph_snapshot -- a budget with no snapshot to read from is
  /// a contradiction Validate() rejects.
  int64_t graph_memory_budget = 0;

  /// Quasi-clique parameters and pruning toggles.
  MiningOptions mining;

  Status Validate() const;
};

class Encoder;
class Decoder;

/// Serializes every engine knob (including the nested MiningOptions) so a
/// cluster coordinator can ship one run configuration to every worker
/// process. Round-trips exactly; pinned by tests/wire_serde_test.cc.
void EncodeEngineConfig(const EngineConfig& config, Encoder* enc);
Status DecodeEngineConfig(Decoder* dec, EngineConfig* config);

}  // namespace qcm

#endif  // QCM_GTHINKER_ENGINE_CONFIG_H_
