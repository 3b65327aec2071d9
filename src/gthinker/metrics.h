// Engine metrics: shared atomic counters, per-thread accumulators, and the
// final run report. These feed every table and figure of the evaluation:
// Table 2's RAM/disk columns, Table 5's load-balance evidence, Table 6's
// mining vs. materialization split, and Figures 1-3's per-root task costs.
//
// Each reported counter is declared once, as a row of a registry below;
// the rows generate the atomics, the snapshot, the codec, the cross-rank
// merge and the --stats-json emitter. Adding a counter takes one row plus
// its increment.

#ifndef QCM_GTHINKER_METRICS_H_
#define QCM_GTHINKER_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "net/transport.h"
#include "quick/mining_context.h"
#include "quick/quasi_clique.h"

namespace qcm {

/// Message types carried by the CommFabric (every cross-machine transfer
/// goes through exactly one of these).
inline constexpr int kNumMessageTypes = 3;

/// Buckets of the message delivery-latency histogram: log-decade bounds
/// [<10us, <100us, <1ms, <10ms, <100ms, <1s, <10s, >=10s].
inline constexpr int kMsgLatencyBuckets = 8;

/// Bucket index of an observed delivery latency in seconds.
int MsgLatencyBucketIndex(double seconds);

/// Per-root aggregate across all (sub)tasks of that root: the unit the
/// paper's Figures 1-3 plot.
struct RootTaskAgg {
  VertexId root = 0;
  uint32_t subgraph_vertices = 0;  // |V(t.g)| of the spawned task
  uint64_t subgraph_edges = 0;
  double mining_seconds = 0.0;  // summed over the root's subtasks
  uint64_t tasks = 0;           // 1 + number of decomposed subtasks
};

// ---- The counter registry ----
//
// Every counter an EngineReport carries is one row, X(name, shape, merge),
// under its doc comment:
//   name   the field of EngineCountersSnapshot (and, for
//          QCM_ENGINE_COUNTERS, of EngineCounters), and its --stats-json
//          key;
//   shape  Scalar (one cell) or an array of cells (the shapes below);
//   merge  kSum across ranks, or kMax for gauge peaks; arrays sum cell by
//          cell.
// The rows generate EngineCounters' atomics, EngineCountersSnapshot's
// fields, the relaxed-load copy, the report codec, MergeEngineReports and
// EngineReportJson. MiningStats has its own rows (QCM_MINING_STATS,
// quick/mining_context.h), and so do the per-thread times
// (QCM_THREAD_SECONDS, below).

// Row shapes: a row's cells (one uint64_t or an array of them) and how
// --stats-json prints them.

/// One key under "counters".
struct Scalar {
  template <typename Cell>
  using Cells = Cell;
};
/// One key per MessageType under "counters": <name>_<type>.
struct PerMessageType {
  template <typename Cell>
  using Cells = Cell[kNumMessageTypes];
};
/// A histogram: a top-level list of its buckets.
template <int kBuckets>
struct Buckets {
  template <typename Cell>
  using Cells = Cell[kBuckets];
};

/// How a row folds across ranks.
enum class CounterMerge { kSum, kMax };

/// Counters the engine increments while it runs: atomics in EngineCounters,
/// copied into the snapshot by EngineCountersSnapshot::From.
#define QCM_ENGINE_COUNTERS(X)                                                \
  /* Admissions to the global queue (size hint > tau_split), not tasks: */    \
  /* a task re-admitted after a pull suspension or a requeue counts again. */ \
  X(big_tasks, Scalar, kSum)                                                  \
  /* Admissions to a local queue (size hint <= tau_split), not tasks. */      \
  X(small_tasks, Scalar, kSum)                                                \
  /* Spill files written (L_small and L_big). */                              \
  X(spill_files, Scalar, kSum)                                                \
  /* Tasks serialized into those files. */                                    \
  X(spilled_tasks, Scalar, kSum)                                              \
  /* Bytes written to / read back from spill files. */                        \
  X(spill_bytes_written, Scalar, kSum)                                        \
  X(spill_bytes_read, Scalar, kSum)                                           \
  /* Steal batches this rank sent, the tasks in them, and their bytes. */     \
  X(steal_events, Scalar, kSum)                                               \
  X(stolen_tasks, Scalar, kSum)                                               \
  X(steal_bytes, Scalar, kSum)                                                \
  /* Remote-adjacency lookups in the vertex cache, and its evictions. */      \
  X(cache_hits, Scalar, kSum)                                                 \
  X(cache_misses, Scalar, kSum)                                               \
  X(cache_evictions, Scalar, kSum)                                            \
  /* Fetch/Request served by the task's own pin from an earlier round. */     \
  X(pin_hits, Scalar, kSum)                                                   \
  /* Compute rounds that suspended on an outstanding pull (Alg. 3). */        \
  X(task_suspensions, Scalar, kSum)                                           \
  /* Broker flushes that sent at least one batched request. */                \
  X(pull_rounds, Scalar, kSum)                                                \
  /* Batched pull messages: one per remote rank per flush, split at */        \
  /* EngineConfig::max_pull_batch ids. */                                     \
  X(pull_batches, Scalar, kSum)                                               \
  /* Vertices (deduplicated per flush) and adjacency bytes pulled. */         \
  X(pulled_vertices, Scalar, kSum)                                            \
  X(pull_bytes, Scalar, kSum)                                                 \
  /* Tasks whose Compute returned kDone. */                                   \
  X(tasks_completed, Scalar, kSum)                                            \
  /* Fabric messages enqueued, delivered (a pull request: taken up by the */  \
  /* responder) and their serialized payload bytes, per MessageType. */       \
  X(msg_sent, PerMessageType, kSum)                                           \
  X(msg_delivered, PerMessageType, kSum)                                      \
  X(msg_bytes, PerMessageType, kSum)                                          \
  /* Messages a termination drain removed; 0 in a healthy run. */             \
  X(msg_drained, Scalar, kSum)                                                \
  /* Peak serialized bytes in flight. */                                      \
  X(msg_inflight_bytes_peak, Scalar, kMax)                                    \
  /* Deepest undelivered queue: the inbox or the pull responder's. */         \
  X(msg_queue_depth_peak, Scalar, kMax)                                       \
  /* Enqueue->delivery wall latency, by MsgLatencyBucketIndex. */             \
  X(msg_latency_hist, Buckets<kMsgLatencyBuckets>, kSum)                      \
  /* Sum of those latencies in microseconds. */                               \
  X(msg_latency_usec_sum, Scalar, kSum)                                       \
  /* Messages sent while a destination comper was mining (hidden flight). */  \
  X(msg_overlapped, Scalar, kSum)                                             \
  /* Tasks re-injected because the rank they were stolen to died. */          \
  X(replayed_tasks, Scalar, kSum)                                             \
  /* Result sets recovered from a dead predecessor's checkpoint log. */       \
  X(recovered_results, Scalar, kSum)                                          \
  /* Spawn roots skipped because that log proved them done. */                \
  X(completed_roots_skipped, Scalar, kSum)                                    \
  /* Checkpoint-log durability flushes and bytes appended. */                 \
  X(checkpoint_flushes, Scalar, kSum)                                         \
  X(checkpoint_bytes, Scalar, kSum)

/// Rows with no atomic: filled after the run, from the transport
/// (AddFlushStats), the budgeted vertex table
/// (VertexTable::AddGraphCounters) and the compers' scratch.
#define QCM_SNAPSHOT_COUNTERS(X)                                             \
  /* Always 0 since the coordinator plans steals; perfbench reads it. */     \
  X(steal_active_usec, Scalar, kSum)                                         \
  /* Write syscalls for data frames (one per frame, more on a partial */     \
  /* write), and the frames and bytes they moved. */                         \
  X(net_flushes, Scalar, kSum)                                               \
  X(net_flush_frames, Scalar, kSum)                                          \
  X(net_flush_bytes, Scalar, kSum)                                           \
  /* Microseconds from each frame's send timestamp to the end of its */      \
  /* write: the per-peer lock wait plus the syscall. */                      \
  X(net_flush_park_usec, Scalar, kSum)                                       \
  /* Bytes per write, by FlushBytesBucketIndex. */                           \
  X(net_flush_bytes_hist, Buckets<kFlushBytesBuckets>, kSum)                 \
  /* Budgeted own-list reads (cache hits plus misses), lists read from */    \
  /* the .qcsr file, lists evicted, and pread wall microseconds. The */      \
  /* names predate the list cache; perfbench reads them. */                  \
  X(graph_page_pins, Scalar, kSum)                                           \
  X(graph_page_ins, Scalar, kSum)                                            \
  X(graph_page_evictions, Scalar, kSum)                                      \
  X(graph_fault_stall_usec, Scalar, kSum)                                    \
  /* Largest comper's EgoScratch plus MiningScratch bytes at the end of */   \
  /* the run: per-vertex arrays sized by the mined graph, and pools. */      \
  X(scratch_bytes, Scalar, kMax)

/// Cross-thread counters (atomics; relaxed ordering is sufficient --
/// counters are read only after the engine quiesces).
struct EngineCounters {
#define QCM_COUNTER_ATOMIC(name, shape, merge) \
  shape::Cells<std::atomic<uint64_t>> name{};
  QCM_ENGINE_COUNTERS(QCM_COUNTER_ATOMIC)
#undef QCM_COUNTER_ATOMIC

  /// Serialized bytes in flight: a live gauge (the report keeps its peak).
  std::atomic<uint64_t> msg_inflight_bytes{0};
};

/// Plain-value snapshot of EngineCounters for reports.
struct EngineCountersSnapshot {
#define QCM_COUNTER_VALUE(name, shape, merge) shape::Cells<uint64_t> name = {};
  QCM_ENGINE_COUNTERS(QCM_COUNTER_VALUE)
  QCM_SNAPSHOT_COUNTERS(QCM_COUNTER_VALUE)
#undef QCM_COUNTER_VALUE

  static EngineCountersSnapshot From(const EngineCounters& c);

  /// Folds a transport's flush statistics into the net_flush_* fields.
  void AddFlushStats(const TransportFlushStats& fs);

  /// Mean data frames per write syscall (0.0 before any flush).
  double FramesPerFlush() const;
  /// Mean microseconds from a frame's send timestamp to the end of its
  /// write (0.0 before any frame).
  double MeanFlushParkUsec() const;

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

/// Calls f(cell, cells...) on each uint64_t cell of a registry row: its
/// one cell, or every slot of its array in order. The rows `more` (of
/// the same shape) are walked in step.
template <typename F, typename Row, typename... Rows>
void ForEachCell(F&& f, Row& row, Rows&... more) {
  if constexpr (std::is_array_v<Row>) {
    for (size_t i = 0; i < std::extent_v<Row>; ++i) {
      ForEachCell(f, row[i], more[i]...);
    }
  } else {
    f(row, more...);
  }
}

/// Calls visit(name, shape{}, merge, s.<row>...) for every row of
/// QCM_ENGINE_COUNTERS then QCM_SNAPSHOT_COUNTERS (the wire order); several
/// snapshots are walked in step.
template <typename Visit, typename... Snapshot>
void VisitReportCounters(Visit&& visit, Snapshot&... s) {
#define QCM_VISIT_COUNTER(name, shape, merge)            \
  visit(#name, shape{}, CounterMerge::merge, s.name...);
  QCM_ENGINE_COUNTERS(QCM_VISIT_COUNTER)
  QCM_SNAPSHOT_COUNTERS(QCM_VISIT_COUNTER)
#undef QCM_VISIT_COUNTER
}

/// Per-thread times in seconds, X(name): each is a field of ThreadSummary,
/// a key of each "threads" entry in --stats-json, and a top-level
/// `total_<name>` key summed over the threads (EngineReport::Total).
#define QCM_THREAD_SECONDS(X)                                                \
  X(busy_seconds)        /* inside App::Compute */                           \
  X(idle_seconds)        /* waiting for a task */                            \
  X(mining_seconds)      /* in RecursiveMine: Table 6's "actual mining" */   \
  X(materialize_seconds) /* materializing subtask subgraphs (Table 6) */     \
  X(build_seconds)       /* building spawned tasks' 2-hop egos (iter 1-2) */

/// Per-thread summary included in the report (load-balance evidence).
struct ThreadSummary {
  int machine = 0;
  int thread = 0;
#define QCM_THREAD_SECONDS_FIELD(name) double name = 0.0;
  QCM_THREAD_SECONDS(QCM_THREAD_SECONDS_FIELD)
#undef QCM_THREAD_SECONDS_FIELD
  uint64_t tasks_processed = 0;
};

/// Calls visit(name, t.<row>...) for every QCM_THREAD_SECONDS row.
template <typename Visit, typename... Summary>
void VisitThreadSeconds(Visit&& visit, Summary&... t) {
#define QCM_VISIT_THREAD_SECONDS(name) visit(#name, t.name...);
  QCM_THREAD_SECONDS(QCM_VISIT_THREAD_SECONDS)
#undef QCM_VISIT_THREAD_SECONDS
}

/// Metrics owned by one mining thread (no synchronization; merged at end).
/// Its ThreadSummary part goes into the report as is.
struct ThreadMetrics : ThreadSummary {
  MiningStats mining_stats;

  /// root -> aggregate; only filled when EngineConfig::record_task_log.
  std::unordered_map<VertexId, RootTaskAgg> root_agg;
};

/// Final report of an engine run.
struct EngineReport {
  double wall_seconds = 0.0;
  uint64_t peak_rss_bytes = 0;
  EngineCountersSnapshot counters;
  MiningStats mining;
  std::vector<ThreadSummary> threads;
  /// Raw emitted candidates (postprocess with FilterMaximal).
  std::vector<VertexSet> results;
  /// Per-root task aggregates (record_task_log only), unordered.
  std::vector<RootTaskAgg> root_tasks;

  /// One per-thread time summed over `threads`, e.g.
  /// Total(&ThreadSummary::mining_seconds) for Table 6's mining time.
  double Total(double ThreadSummary::*seconds) const;

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

/// Renames the report's vertex ids, in its results and root_tasks, from
/// the mined graph's to the input's: mined vertex v is input vertex
/// ids[v]. `ids` need not be monotone (KCore::ids), so each mapped result
/// set is re-sorted; an empty `ids` is the identity.
void MapToInputIds(std::span<const VertexId> ids, EngineReport* report);

/// Merges per-rank reports into one cluster-wide report: each registry row
/// folds by its merge rule (peak RSS sums too, right for one process per
/// rank), wall time is the slowest rank, thread summaries and raw results
/// concatenate (results are moved), and root task aggregates fold by root.
EngineReport MergeEngineReports(std::vector<EngineReport> reports);

/// Machine-readable EngineReport (counters, derived ratios, per-thread
/// summaries, result count) as a self-contained JSON object -- the
/// payload of qcm_mine/qcm_worker --stats-json, merged across ranks by
/// qcm_cluster.
std::string EngineReportJson(const EngineReport& report);

}  // namespace qcm

#endif  // QCM_GTHINKER_METRICS_H_
