// Engine metrics: shared atomic counters, per-thread accumulators, and the
// final run report. These feed every table and figure of the evaluation:
// Table 2's RAM/disk columns, Table 5's load-balance evidence, Table 6's
// mining vs. materialization split, and Figures 1-3's per-root task costs.

#ifndef QCM_GTHINKER_METRICS_H_
#define QCM_GTHINKER_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "net/transport.h"
#include "quick/mining_context.h"
#include "quick/quasi_clique.h"
#include "sched/lifecycle.h"

namespace qcm {

/// Message types carried by the CommFabric (every cross-machine transfer
/// goes through exactly one of these).
inline constexpr int kNumMessageTypes = 3;

/// Buckets of the message delivery-latency histogram: log-decade bounds
/// [<10us, <100us, <1ms, <10ms, <100ms, <1s, <10s, >=10s].
inline constexpr int kMsgLatencyBuckets = 8;

/// Bucket index of an observed delivery latency in seconds.
int MsgLatencyBucketIndex(double seconds);
/// Human-readable bucket label ("<1ms", ">=10s").
const char* MsgLatencyBucketLabel(int bucket);

/// Per-root aggregate across all (sub)tasks of that root: the unit the
/// paper's Figures 1-3 plot.
struct RootTaskAgg {
  VertexId root = 0;
  uint32_t subgraph_vertices = 0;  // |V(t.g)| of the spawned task
  uint64_t subgraph_edges = 0;
  double mining_seconds = 0.0;  // summed over the root's subtasks
  uint64_t tasks = 0;           // 1 + number of decomposed subtasks
};

/// Metrics owned by one mining thread (no synchronization; merged at end).
struct ThreadMetrics {
  int machine = 0;
  int thread = 0;

  double busy_seconds = 0.0;
  double idle_seconds = 0.0;
  /// Time inside RecursiveMine (the "actual mining" of Table 6).
  double mining_seconds = 0.0;
  /// Time materializing subtask subgraphs (Table 6's counterpart).
  double materialize_seconds = 0.0;
  /// Time building spawned tasks' 2-hop ego networks (iterations 1-2);
  /// kept separate so Table 6's ratio reflects decomposition overhead only.
  double build_seconds = 0.0;

  uint64_t tasks_processed = 0;
  uint64_t tasks_spawned = 0;
  uint64_t subtasks_created = 0;

  MiningStats mining_stats;
  std::vector<VertexSet> results;

  /// root -> aggregate; only filled when EngineConfig::record_task_log.
  std::unordered_map<VertexId, RootTaskAgg> root_agg;
};

/// Cross-thread counters (atomics; relaxed ordering is sufficient --
/// counters are read only after the engine quiesces).
struct EngineCounters {
  std::atomic<uint64_t> big_tasks{0};
  std::atomic<uint64_t> small_tasks{0};
  std::atomic<uint64_t> spill_files{0};
  std::atomic<uint64_t> spilled_tasks{0};
  std::atomic<uint64_t> spill_bytes_written{0};
  std::atomic<uint64_t> spill_bytes_read{0};
  std::atomic<uint64_t> steal_events{0};
  std::atomic<uint64_t> stolen_tasks{0};
  std::atomic<uint64_t> steal_bytes{0};
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};
  std::atomic<uint64_t> cache_evictions{0};
  /// Fetch/Request served by an adjacency the task itself pinned from a
  /// prior pull round (no cache lookup, no transfer).
  std::atomic<uint64_t> pin_hits{0};
  /// Compute rounds that ended in ComputeStatus::kSuspended (the paper's
  /// "add t back to the queue" while its vertex pull is outstanding).
  std::atomic<uint64_t> task_suspensions{0};
  /// Broker flushes that transferred at least one batched request.
  std::atomic<uint64_t> pull_rounds{0};
  /// Machine-to-machine batched pull messages (one per remote machine per
  /// flush, split at EngineConfig::max_pull_batch ids).
  std::atomic<uint64_t> pull_batches{0};
  /// Vertices transferred via batched pulls (deduplicated per flush).
  std::atomic<uint64_t> pulled_vertices{0};
  /// Bytes of adjacency moved by batched pulls.
  std::atomic<uint64_t> pull_bytes{0};
  std::atomic<uint64_t> tasks_completed{0};

  // -- CommFabric message accounting (indexed by MessageType) --

  /// Messages enqueued on the fabric, per type.
  std::atomic<uint64_t> msg_sent[kNumMessageTypes]{};
  /// Messages delivered by a destination service (a pull request: taken
  /// up by the pull responder), per type.
  std::atomic<uint64_t> msg_delivered[kNumMessageTypes]{};
  /// Serialized payload bytes enqueued, per type.
  std::atomic<uint64_t> msg_bytes[kNumMessageTypes]{};
  /// Messages removed by a termination drain instead of a normal delivery
  /// (should stay 0 in a healthy run: pending-task accounting keeps the
  /// engine alive while anything meaningful is in flight).
  std::atomic<uint64_t> msg_drained{0};
  /// Current serialized bytes in flight (gauge) and its observed peak.
  std::atomic<uint64_t> msg_inflight_bytes{0};
  std::atomic<uint64_t> msg_inflight_bytes_peak{0};
  /// Deepest queue observed: a per-machine inbox or the pull responder's
  /// (undelivered messages).
  std::atomic<uint64_t> msg_queue_depth_peak{0};
  /// Histogram of observed enqueue->delivery wall latency.
  std::atomic<uint64_t> msg_latency_hist[kMsgLatencyBuckets]{};
  /// Sum of observed enqueue->delivery wall latency (microseconds).
  std::atomic<uint64_t> msg_latency_usec_sum{0};
  /// Messages whose destination machine had at least one comper busy
  /// mining when the message was enqueued (sampled overlap evidence: the
  /// transfer's flight time was hidden behind computation).
  std::atomic<uint64_t> msg_overlapped{0};

  // -- Fault tolerance (gthinker/checkpoint.h; all zero when
  // checkpointing is off or the run never lost a rank) --

  /// Tasks re-injected locally because the peer they had been stolen to
  /// (or was being stolen to) died before mining them.
  std::atomic<uint64_t> replayed_tasks{0};
  /// Result sets recovered from a dead predecessor's checkpoint log.
  std::atomic<uint64_t> recovered_results{0};
  /// Spawn roots skipped because the predecessor's log proved them done.
  std::atomic<uint64_t> completed_roots_skipped{0};
  /// Checkpoint-log durability flushes and bytes appended.
  std::atomic<uint64_t> checkpoint_flushes{0};
  std::atomic<uint64_t> checkpoint_bytes{0};

  /// Task lifecycle transition matrix (sched/lifecycle.h): every state
  /// move of every task, recorded by AdvanceTaskState.
  LifecycleCounters lifecycle;
};

/// Plain-value snapshot of EngineCounters for reports.
struct EngineCountersSnapshot {
  uint64_t big_tasks = 0;
  uint64_t small_tasks = 0;
  uint64_t spill_files = 0;
  uint64_t spilled_tasks = 0;
  uint64_t spill_bytes_written = 0;
  uint64_t spill_bytes_read = 0;
  uint64_t steal_events = 0;
  uint64_t stolen_tasks = 0;
  uint64_t steal_bytes = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t pin_hits = 0;
  uint64_t task_suspensions = 0;
  uint64_t pull_rounds = 0;
  uint64_t pull_batches = 0;
  uint64_t pulled_vertices = 0;
  uint64_t pull_bytes = 0;
  uint64_t tasks_completed = 0;

  uint64_t msg_sent[kNumMessageTypes] = {};
  uint64_t msg_delivered[kNumMessageTypes] = {};
  uint64_t msg_bytes[kNumMessageTypes] = {};
  uint64_t msg_drained = 0;
  uint64_t msg_inflight_bytes_peak = 0;
  uint64_t msg_queue_depth_peak = 0;
  uint64_t msg_latency_hist[kMsgLatencyBuckets] = {};
  uint64_t msg_latency_usec_sum = 0;
  uint64_t msg_overlapped = 0;

  /// Always 0: nothing writes it since steals are planned by the
  /// coordinator. Kept because perfbench/run.py reads the JSON key.
  uint64_t steal_active_usec = 0;

  uint64_t replayed_tasks = 0;
  uint64_t recovered_results = 0;
  uint64_t completed_roots_skipped = 0;
  uint64_t checkpoint_flushes = 0;
  uint64_t checkpoint_bytes = 0;

  // -- Transport data-plane flush accounting. Copied from the
  // transport's TransportFlushStats after the run via AddFlushStats. --

  /// Write syscalls issued for data frames.
  uint64_t net_flushes = 0;
  /// Data frames / frame bytes pushed through those flushes
  /// (net_flush_frames / net_flushes = frames per syscall).
  uint64_t net_flush_frames = 0;
  uint64_t net_flush_bytes = 0;
  /// Flush-cause breakdown: size threshold / linger expiry / shutdown
  /// residue / coalescing off.
  uint64_t net_flush_size = 0;
  uint64_t net_flush_linger = 0;
  uint64_t net_flush_forced = 0;
  uint64_t net_flush_direct = 0;
  /// Total microseconds frames sat parked in coalescing buffers.
  uint64_t net_flush_park_usec = 0;
  /// Bytes-per-flush histogram (buckets of FlushBytesBucketIndex).
  uint64_t net_flush_bytes_hist[kFlushBytesBuckets] = {};

  // -- Budgeted graph reads (a snapshot-backed table under a graph
  // memory budget; all zero otherwise). Added after the run by
  // VertexTable::AddGraphCounters. The names predate the list cache and
  // are kept because perfbench/run.py reads them. --

  /// Own-list reads through the budgeted table (cache hits plus misses).
  uint64_t graph_page_pins = 0;
  /// Lists read from the .qcsr file (cache misses) / evicted from the
  /// cache.
  uint64_t graph_page_ins = 0;
  uint64_t graph_page_evictions = 0;
  /// Wall microseconds spent in those reads' pread calls.
  uint64_t graph_fault_stall_usec = 0;

  /// Plain-value copy of the lifecycle transition matrix.
  uint64_t lifecycle_transitions[kNumTaskStates][kNumTaskStates] = {};

  static EngineCountersSnapshot From(const EngineCounters& c);

  /// Folds a transport's flush statistics into the net_flush_* fields.
  void AddFlushStats(const TransportFlushStats& fs);

  /// Mean data frames per write syscall (0.0 before any flush).
  double FramesPerFlush() const;
  /// Mean microseconds a frame waited in a coalescing buffer.
  double MeanFlushParkUsec() const;

  uint64_t LifecycleTransitions(TaskState from, TaskState to) const {
    return lifecycle_transitions[static_cast<int>(from)]
                                [static_cast<int>(to)];
  }

  /// Fraction of remote-adjacency demands served without a transfer
  /// (cache or pin); 1.0 when there was no remote traffic at all.
  double CacheHitRatio() const;

  /// Total CommFabric messages enqueued across all types.
  uint64_t MessagesSent() const;
  /// Total serialized payload bytes enqueued across all types.
  uint64_t MessageBytes() const;
  /// Fraction of fabric messages whose destination was busy mining when
  /// they were enqueued (sampled); 1.0 when no messages were sent. The
  /// higher the ratio, the better transfer latency is hidden.
  double MessageOverlapRatio() const;
  /// Mean observed enqueue->delivery latency in seconds (0.0 when no
  /// message was ever delivered).
  double MeanDeliveryLatencySeconds() const;
};

/// Per-thread summary included in the report (load-balance evidence).
struct ThreadSummary {
  int machine = 0;
  int thread = 0;
  double busy_seconds = 0.0;
  double idle_seconds = 0.0;
  double mining_seconds = 0.0;
  double materialize_seconds = 0.0;
  uint64_t tasks_processed = 0;
};

/// Final report of an engine run.
struct EngineReport {
  double wall_seconds = 0.0;
  EngineCountersSnapshot counters;
  MiningStats mining;
  std::vector<ThreadSummary> threads;
  /// Raw emitted candidates (postprocess with FilterMaximal).
  std::vector<VertexSet> results;
  /// Per-root task aggregates (record_task_log only), unordered.
  std::vector<RootTaskAgg> root_tasks;

  uint64_t peak_rss_bytes = 0;
  double total_mining_seconds = 0.0;
  double total_materialize_seconds = 0.0;
  double total_build_seconds = 0.0;
  double total_busy_seconds = 0.0;
  double total_idle_seconds = 0.0;

  /// Max/min per-thread busy time ratio; 1.0 = perfectly balanced, 0.0
  /// when some thread never ran (the ratio is undefined -- never NaN/inf).
  double BusyImbalance() const;
};

class Encoder;
class Decoder;

/// Serializes an EngineReport (everything except the per-root task log,
/// which only figure-reproduction benches consume locally) so a worker
/// process can ship its run report to the cluster coordinator.
void EncodeEngineReport(const EngineReport& report, Encoder* enc);
Status DecodeEngineReport(Decoder* dec, EngineReport* report);

/// Folds entries of the same root into one (subtasks of a root can run
/// on several threads and ranks): times and task counts sum, and the
/// subgraph size comes from the spawned task's entry. Order unspecified.
void FoldRootTasks(std::vector<RootTaskAgg>* root_tasks);

/// Merges per-rank reports into one cluster-wide report: counters and
/// cumulative times sum (peak RSS too, right for one process per rank),
/// gauge peaks take the max, wall time is the slowest rank, thread
/// summaries and raw results concatenate (results are moved), and root
/// task aggregates fold by root.
EngineReport MergeEngineReports(std::vector<EngineReport> reports);

/// Machine-readable EngineReport (counters, derived ratios, per-thread
/// summaries, result count) as a self-contained JSON object -- the
/// payload of qcm_mine/qcm_worker --stats-json, merged across ranks by
/// qcm_cluster.
std::string EngineReportJson(const EngineReport& report);

}  // namespace qcm

#endif  // QCM_GTHINKER_METRICS_H_
