#include "gthinker/metrics.h"

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "util/serde.h"

namespace qcm {

int MsgLatencyBucketIndex(double seconds) {
  static constexpr double kBounds[kMsgLatencyBuckets - 1] = {
      1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0};
  for (int b = 0; b < kMsgLatencyBuckets - 1; ++b) {
    if (seconds < kBounds[b]) return b;
  }
  return kMsgLatencyBuckets - 1;
}

const char* MsgLatencyBucketLabel(int bucket) {
  static constexpr const char* kLabels[kMsgLatencyBuckets] = {
      "<10us", "<100us", "<1ms", "<10ms", "<100ms", "<1s", "<10s", ">=10s"};
  if (bucket < 0 || bucket >= kMsgLatencyBuckets) return "?";
  return kLabels[bucket];
}

EngineCountersSnapshot EngineCountersSnapshot::From(const EngineCounters& c) {
  EngineCountersSnapshot s;
  s.big_tasks = c.big_tasks.load(std::memory_order_relaxed);
  s.small_tasks = c.small_tasks.load(std::memory_order_relaxed);
  s.spill_files = c.spill_files.load(std::memory_order_relaxed);
  s.spilled_tasks = c.spilled_tasks.load(std::memory_order_relaxed);
  s.spill_bytes_written =
      c.spill_bytes_written.load(std::memory_order_relaxed);
  s.spill_bytes_read = c.spill_bytes_read.load(std::memory_order_relaxed);
  s.steal_events = c.steal_events.load(std::memory_order_relaxed);
  s.stolen_tasks = c.stolen_tasks.load(std::memory_order_relaxed);
  s.steal_bytes = c.steal_bytes.load(std::memory_order_relaxed);
  s.cache_hits = c.cache_hits.load(std::memory_order_relaxed);
  s.cache_misses = c.cache_misses.load(std::memory_order_relaxed);
  s.cache_evictions = c.cache_evictions.load(std::memory_order_relaxed);
  s.pin_hits = c.pin_hits.load(std::memory_order_relaxed);
  s.task_suspensions = c.task_suspensions.load(std::memory_order_relaxed);
  s.pull_rounds = c.pull_rounds.load(std::memory_order_relaxed);
  s.pull_batches = c.pull_batches.load(std::memory_order_relaxed);
  s.pulled_vertices = c.pulled_vertices.load(std::memory_order_relaxed);
  s.pull_bytes = c.pull_bytes.load(std::memory_order_relaxed);
  s.tasks_completed = c.tasks_completed.load(std::memory_order_relaxed);
  for (int t = 0; t < kNumMessageTypes; ++t) {
    s.msg_sent[t] = c.msg_sent[t].load(std::memory_order_relaxed);
    s.msg_delivered[t] = c.msg_delivered[t].load(std::memory_order_relaxed);
    s.msg_bytes[t] = c.msg_bytes[t].load(std::memory_order_relaxed);
  }
  s.msg_drained = c.msg_drained.load(std::memory_order_relaxed);
  s.msg_inflight_bytes_peak =
      c.msg_inflight_bytes_peak.load(std::memory_order_relaxed);
  s.msg_queue_depth_peak =
      c.msg_queue_depth_peak.load(std::memory_order_relaxed);
  for (int b = 0; b < kMsgLatencyBuckets; ++b) {
    s.msg_latency_hist[b] =
        c.msg_latency_hist[b].load(std::memory_order_relaxed);
  }
  s.msg_latency_usec_sum =
      c.msg_latency_usec_sum.load(std::memory_order_relaxed);
  s.msg_overlapped = c.msg_overlapped.load(std::memory_order_relaxed);
  s.replayed_tasks = c.replayed_tasks.load(std::memory_order_relaxed);
  s.recovered_results = c.recovered_results.load(std::memory_order_relaxed);
  s.completed_roots_skipped =
      c.completed_roots_skipped.load(std::memory_order_relaxed);
  s.checkpoint_flushes =
      c.checkpoint_flushes.load(std::memory_order_relaxed);
  s.checkpoint_bytes = c.checkpoint_bytes.load(std::memory_order_relaxed);
  for (int from = 0; from < kNumTaskStates; ++from) {
    for (int to = 0; to < kNumTaskStates; ++to) {
      s.lifecycle_transitions[from][to] =
          c.lifecycle.transitions[from][to].load(std::memory_order_relaxed);
    }
  }
  return s;
}

uint64_t EngineCountersSnapshot::MessagesSent() const {
  uint64_t total = 0;
  for (int t = 0; t < kNumMessageTypes; ++t) total += msg_sent[t];
  return total;
}

uint64_t EngineCountersSnapshot::MessageBytes() const {
  uint64_t total = 0;
  for (int t = 0; t < kNumMessageTypes; ++t) total += msg_bytes[t];
  return total;
}

double EngineCountersSnapshot::MessageOverlapRatio() const {
  const uint64_t sent = MessagesSent();
  if (sent == 0) return 1.0;
  return static_cast<double>(msg_overlapped) / static_cast<double>(sent);
}

double EngineCountersSnapshot::MeanDeliveryLatencySeconds() const {
  uint64_t delivered = 0;
  for (int t = 0; t < kNumMessageTypes; ++t) delivered += msg_delivered[t];
  if (delivered == 0) return 0.0;
  return static_cast<double>(msg_latency_usec_sum) * 1e-6 /
         static_cast<double>(delivered);
}

void EngineCountersSnapshot::AddFlushStats(const TransportFlushStats& fs) {
  net_flushes += fs.flushes;
  net_flush_frames += fs.flushed_frames;
  net_flush_bytes += fs.flushed_bytes;
  net_flush_size += fs.flush_size;
  net_flush_linger += fs.flush_linger;
  net_flush_forced += fs.flush_forced;
  net_flush_direct += fs.flush_direct;
  net_flush_park_usec += fs.park_usec_sum;
  for (int b = 0; b < kFlushBytesBuckets; ++b) {
    net_flush_bytes_hist[b] += fs.bytes_hist[b];
  }
}

double EngineCountersSnapshot::FramesPerFlush() const {
  if (net_flushes == 0) return 0.0;
  return static_cast<double>(net_flush_frames) /
         static_cast<double>(net_flushes);
}

double EngineCountersSnapshot::MeanFlushParkUsec() const {
  if (net_flush_frames == 0) return 0.0;
  return static_cast<double>(net_flush_park_usec) /
         static_cast<double>(net_flush_frames);
}

double EngineCountersSnapshot::CacheHitRatio() const {
  const uint64_t served = cache_hits + pin_hits;
  const uint64_t demanded = served + cache_misses;
  if (demanded == 0) return 1.0;
  return static_cast<double>(served) / static_cast<double>(demanded);
}

namespace {

/// The counter fields of a snapshot in one flat, ordered view -- keeps the
/// wire encoding, the merge, and the JSON emission in lockstep (adding a
/// counter means touching exactly this list).
struct CounterField {
  const char* name;
  uint64_t EngineCountersSnapshot::* member;
  /// Merge rule: sums by default, max for gauge peaks.
  bool is_peak;
};

constexpr CounterField kCounterFields[] = {
    {"big_tasks", &EngineCountersSnapshot::big_tasks, false},
    {"small_tasks", &EngineCountersSnapshot::small_tasks, false},
    {"spill_files", &EngineCountersSnapshot::spill_files, false},
    {"spilled_tasks", &EngineCountersSnapshot::spilled_tasks, false},
    {"spill_bytes_written", &EngineCountersSnapshot::spill_bytes_written,
     false},
    {"spill_bytes_read", &EngineCountersSnapshot::spill_bytes_read, false},
    {"steal_events", &EngineCountersSnapshot::steal_events, false},
    {"stolen_tasks", &EngineCountersSnapshot::stolen_tasks, false},
    {"steal_bytes", &EngineCountersSnapshot::steal_bytes, false},
    {"cache_hits", &EngineCountersSnapshot::cache_hits, false},
    {"cache_misses", &EngineCountersSnapshot::cache_misses, false},
    {"cache_evictions", &EngineCountersSnapshot::cache_evictions, false},
    {"pin_hits", &EngineCountersSnapshot::pin_hits, false},
    {"task_suspensions", &EngineCountersSnapshot::task_suspensions, false},
    {"pull_rounds", &EngineCountersSnapshot::pull_rounds, false},
    {"pull_batches", &EngineCountersSnapshot::pull_batches, false},
    {"pulled_vertices", &EngineCountersSnapshot::pulled_vertices, false},
    {"pull_bytes", &EngineCountersSnapshot::pull_bytes, false},
    {"tasks_completed", &EngineCountersSnapshot::tasks_completed, false},
    {"msg_drained", &EngineCountersSnapshot::msg_drained, false},
    {"msg_inflight_bytes_peak",
     &EngineCountersSnapshot::msg_inflight_bytes_peak, true},
    {"msg_queue_depth_peak", &EngineCountersSnapshot::msg_queue_depth_peak,
     true},
    {"msg_latency_usec_sum", &EngineCountersSnapshot::msg_latency_usec_sum,
     false},
    {"msg_overlapped", &EngineCountersSnapshot::msg_overlapped, false},
    {"steal_active_usec", &EngineCountersSnapshot::steal_active_usec, false},
    {"replayed_tasks", &EngineCountersSnapshot::replayed_tasks, false},
    {"recovered_results", &EngineCountersSnapshot::recovered_results, false},
    {"completed_roots_skipped",
     &EngineCountersSnapshot::completed_roots_skipped, false},
    {"checkpoint_flushes", &EngineCountersSnapshot::checkpoint_flushes,
     false},
    {"checkpoint_bytes", &EngineCountersSnapshot::checkpoint_bytes, false},
    {"net_flushes", &EngineCountersSnapshot::net_flushes, false},
    {"net_flush_frames", &EngineCountersSnapshot::net_flush_frames, false},
    {"net_flush_bytes", &EngineCountersSnapshot::net_flush_bytes, false},
    {"net_flush_size", &EngineCountersSnapshot::net_flush_size, false},
    {"net_flush_linger", &EngineCountersSnapshot::net_flush_linger, false},
    {"net_flush_forced", &EngineCountersSnapshot::net_flush_forced, false},
    {"net_flush_direct", &EngineCountersSnapshot::net_flush_direct, false},
    {"net_flush_park_usec", &EngineCountersSnapshot::net_flush_park_usec,
     false},
    {"graph_page_pins", &EngineCountersSnapshot::graph_page_pins, false},
    {"graph_page_ins", &EngineCountersSnapshot::graph_page_ins, false},
    {"graph_page_evictions", &EngineCountersSnapshot::graph_page_evictions,
     false},
    {"graph_fault_stall_usec",
     &EngineCountersSnapshot::graph_fault_stall_usec, false},
};

constexpr uint64_t MiningStats::* kMiningFields[] = {
    &MiningStats::nodes_explored,
    &MiningStats::bounding_iterations,
    &MiningStats::emitted,
    &MiningStats::subsumed,
    &MiningStats::type1_degree_pruned,
    &MiningStats::type1_upper_pruned,
    &MiningStats::type1_lower_pruned,
    &MiningStats::type2_prunes,
    &MiningStats::bound_fail_prunes,
    &MiningStats::critical_moves,
    &MiningStats::cover_skipped,
    &MiningStats::lookahead_hits,
    &MiningStats::diameter_filtered,
    &MiningStats::size_prunes,
    &MiningStats::subtasks_spawned,
    &MiningStats::dense_tasks,
    &MiningStats::sparse_tasks,
    &MiningStats::bitset_words_touched,
};

std::string JsonDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string MessageTypeJsonKey(int type) {
  switch (type) {
    case 0:
      return "pull_request";
    case 1:
      return "pull_response";
    case 2:
      return "steal_batch";
  }
  return "type" + std::to_string(type);
}

}  // namespace

void EncodeEngineReport(const EngineReport& report, Encoder* enc) {
  enc->PutDouble(report.wall_seconds);
  enc->PutU64(report.peak_rss_bytes);
  enc->PutDouble(report.total_mining_seconds);
  enc->PutDouble(report.total_materialize_seconds);
  enc->PutDouble(report.total_build_seconds);
  enc->PutDouble(report.total_busy_seconds);
  enc->PutDouble(report.total_idle_seconds);
  for (const CounterField& f : kCounterFields) {
    enc->PutU64(report.counters.*(f.member));
  }
  for (int t = 0; t < kNumMessageTypes; ++t) {
    enc->PutU64(report.counters.msg_sent[t]);
    enc->PutU64(report.counters.msg_delivered[t]);
    enc->PutU64(report.counters.msg_bytes[t]);
  }
  for (int b = 0; b < kMsgLatencyBuckets; ++b) {
    enc->PutU64(report.counters.msg_latency_hist[b]);
  }
  for (int b = 0; b < kFlushBytesBuckets; ++b) {
    enc->PutU64(report.counters.net_flush_bytes_hist[b]);
  }
  for (int from = 0; from < kNumTaskStates; ++from) {
    for (int to = 0; to < kNumTaskStates; ++to) {
      enc->PutU64(report.counters.lifecycle_transitions[from][to]);
    }
  }
  for (auto field : kMiningFields) enc->PutU64(report.mining.*field);
  enc->PutU64(report.threads.size());
  for (const ThreadSummary& t : report.threads) {
    enc->PutU32(static_cast<uint32_t>(t.machine));
    enc->PutU32(static_cast<uint32_t>(t.thread));
    enc->PutDouble(t.busy_seconds);
    enc->PutDouble(t.idle_seconds);
    enc->PutDouble(t.mining_seconds);
    enc->PutDouble(t.materialize_seconds);
    enc->PutU64(t.tasks_processed);
  }
  enc->PutU64(report.results.size());
  for (const VertexSet& s : report.results) enc->PutU32Vector(s);
}

Status DecodeEngineReport(Decoder* dec, EngineReport* report) {
  *report = EngineReport();
  QCM_RETURN_IF_ERROR(dec->GetDouble(&report->wall_seconds));
  QCM_RETURN_IF_ERROR(dec->GetU64(&report->peak_rss_bytes));
  QCM_RETURN_IF_ERROR(dec->GetDouble(&report->total_mining_seconds));
  QCM_RETURN_IF_ERROR(dec->GetDouble(&report->total_materialize_seconds));
  QCM_RETURN_IF_ERROR(dec->GetDouble(&report->total_build_seconds));
  QCM_RETURN_IF_ERROR(dec->GetDouble(&report->total_busy_seconds));
  QCM_RETURN_IF_ERROR(dec->GetDouble(&report->total_idle_seconds));
  for (const CounterField& f : kCounterFields) {
    QCM_RETURN_IF_ERROR(dec->GetU64(&(report->counters.*(f.member))));
  }
  for (int t = 0; t < kNumMessageTypes; ++t) {
    QCM_RETURN_IF_ERROR(dec->GetU64(&report->counters.msg_sent[t]));
    QCM_RETURN_IF_ERROR(dec->GetU64(&report->counters.msg_delivered[t]));
    QCM_RETURN_IF_ERROR(dec->GetU64(&report->counters.msg_bytes[t]));
  }
  for (int b = 0; b < kMsgLatencyBuckets; ++b) {
    QCM_RETURN_IF_ERROR(dec->GetU64(&report->counters.msg_latency_hist[b]));
  }
  for (int b = 0; b < kFlushBytesBuckets; ++b) {
    QCM_RETURN_IF_ERROR(
        dec->GetU64(&report->counters.net_flush_bytes_hist[b]));
  }
  for (int from = 0; from < kNumTaskStates; ++from) {
    for (int to = 0; to < kNumTaskStates; ++to) {
      QCM_RETURN_IF_ERROR(
          dec->GetU64(&report->counters.lifecycle_transitions[from][to]));
    }
  }
  for (auto field : kMiningFields) {
    QCM_RETURN_IF_ERROR(dec->GetU64(&(report->mining.*field)));
  }
  uint64_t n = 0;
  QCM_RETURN_IF_ERROR(dec->GetU64(&n));
  // Bound counts by the bytes actually present (every other decoder in
  // the codebase does) so a corrupt report blob surfaces as Corruption,
  // never as a gigantic resize. Each ThreadSummary needs 48 payload
  // bytes, each result set at least its 8-byte length.
  if (n > dec->Remaining() / 48) {
    return Status::Corruption("report thread count exceeds payload");
  }
  report->threads.resize(n);
  for (ThreadSummary& t : report->threads) {
    uint32_t u = 0;
    QCM_RETURN_IF_ERROR(dec->GetU32(&u));
    t.machine = static_cast<int>(u);
    QCM_RETURN_IF_ERROR(dec->GetU32(&u));
    t.thread = static_cast<int>(u);
    QCM_RETURN_IF_ERROR(dec->GetDouble(&t.busy_seconds));
    QCM_RETURN_IF_ERROR(dec->GetDouble(&t.idle_seconds));
    QCM_RETURN_IF_ERROR(dec->GetDouble(&t.mining_seconds));
    QCM_RETURN_IF_ERROR(dec->GetDouble(&t.materialize_seconds));
    QCM_RETURN_IF_ERROR(dec->GetU64(&t.tasks_processed));
  }
  QCM_RETURN_IF_ERROR(dec->GetU64(&n));
  if (n > dec->Remaining() / 8) {
    return Status::Corruption("report result count exceeds payload");
  }
  report->results.resize(n);
  for (VertexSet& s : report->results) {
    QCM_RETURN_IF_ERROR(dec->GetU32Vector(&s));
  }
  return Status::OK();
}

void FoldRootTasks(std::vector<RootTaskAgg>* root_tasks) {
  std::unordered_map<VertexId, RootTaskAgg> by_root;
  for (const RootTaskAgg& agg : *root_tasks) {
    RootTaskAgg& merged = by_root[agg.root];
    merged.root = agg.root;
    merged.mining_seconds += agg.mining_seconds;
    merged.tasks += agg.tasks;
    // Only the spawned task records the root's subgraph size.
    if (agg.subgraph_vertices != 0) {
      merged.subgraph_vertices = agg.subgraph_vertices;
      merged.subgraph_edges = agg.subgraph_edges;
    }
  }
  root_tasks->clear();
  root_tasks->reserve(by_root.size());
  for (auto& [root, agg] : by_root) root_tasks->push_back(agg);
}

EngineReport MergeEngineReports(std::vector<EngineReport> reports) {
  EngineReport merged;
  size_t results = 0;
  for (const EngineReport& r : reports) results += r.results.size();
  merged.results.reserve(results);
  for (EngineReport& r : reports) {
    merged.wall_seconds = std::max(merged.wall_seconds, r.wall_seconds);
    merged.peak_rss_bytes += r.peak_rss_bytes;
    merged.total_mining_seconds += r.total_mining_seconds;
    merged.total_materialize_seconds += r.total_materialize_seconds;
    merged.total_build_seconds += r.total_build_seconds;
    merged.total_busy_seconds += r.total_busy_seconds;
    merged.total_idle_seconds += r.total_idle_seconds;
    for (const CounterField& f : kCounterFields) {
      if (f.is_peak) {
        merged.counters.*(f.member) =
            std::max(merged.counters.*(f.member), r.counters.*(f.member));
      } else {
        merged.counters.*(f.member) += r.counters.*(f.member);
      }
    }
    for (int t = 0; t < kNumMessageTypes; ++t) {
      merged.counters.msg_sent[t] += r.counters.msg_sent[t];
      merged.counters.msg_delivered[t] += r.counters.msg_delivered[t];
      merged.counters.msg_bytes[t] += r.counters.msg_bytes[t];
    }
    for (int b = 0; b < kMsgLatencyBuckets; ++b) {
      merged.counters.msg_latency_hist[b] += r.counters.msg_latency_hist[b];
    }
    for (int b = 0; b < kFlushBytesBuckets; ++b) {
      merged.counters.net_flush_bytes_hist[b] +=
          r.counters.net_flush_bytes_hist[b];
    }
    for (int from = 0; from < kNumTaskStates; ++from) {
      for (int to = 0; to < kNumTaskStates; ++to) {
        merged.counters.lifecycle_transitions[from][to] +=
            r.counters.lifecycle_transitions[from][to];
      }
    }
    merged.mining.Add(r.mining);
    merged.threads.insert(merged.threads.end(), r.threads.begin(),
                          r.threads.end());
    merged.results.insert(merged.results.end(),
                          std::make_move_iterator(r.results.begin()),
                          std::make_move_iterator(r.results.end()));
    r.results = {};
    merged.root_tasks.insert(merged.root_tasks.end(), r.root_tasks.begin(),
                             r.root_tasks.end());
  }
  // A stolen subtask puts one root on two ranks.
  FoldRootTasks(&merged.root_tasks);
  return merged;
}

std::string EngineReportJson(const EngineReport& report) {
  std::string json = "{\n";
  json += "  \"wall_seconds\": " + JsonDouble(report.wall_seconds) + ",\n";
  json += "  \"peak_rss_bytes\": " + std::to_string(report.peak_rss_bytes) +
          ",\n";
  json += "  \"total_busy_seconds\": " +
          JsonDouble(report.total_busy_seconds) + ",\n";
  json += "  \"total_idle_seconds\": " +
          JsonDouble(report.total_idle_seconds) + ",\n";
  json += "  \"total_mining_seconds\": " +
          JsonDouble(report.total_mining_seconds) + ",\n";
  json += "  \"total_materialize_seconds\": " +
          JsonDouble(report.total_materialize_seconds) + ",\n";
  json += "  \"total_build_seconds\": " +
          JsonDouble(report.total_build_seconds) + ",\n";
  json += "  \"counters\": {\n";
  for (const CounterField& f : kCounterFields) {
    json += "    \"" + std::string(f.name) +
            "\": " + std::to_string(report.counters.*(f.member)) + ",\n";
  }
  for (int t = 0; t < kNumMessageTypes; ++t) {
    const std::string type = MessageTypeJsonKey(t);
    json += "    \"msg_sent_" + type +
            "\": " + std::to_string(report.counters.msg_sent[t]) + ",\n";
    json += "    \"msg_delivered_" + type +
            "\": " + std::to_string(report.counters.msg_delivered[t]) +
            ",\n";
    json += "    \"msg_bytes_" + type +
            "\": " + std::to_string(report.counters.msg_bytes[t]) + ",\n";
  }
  json += "    \"mining_nodes_explored\": " +
          std::to_string(report.mining.nodes_explored) + ",\n";
  json += "    \"mining_dense_tasks\": " +
          std::to_string(report.mining.dense_tasks) + ",\n";
  json += "    \"mining_sparse_tasks\": " +
          std::to_string(report.mining.sparse_tasks) + ",\n";
  json += "    \"mining_bitset_words_touched\": " +
          std::to_string(report.mining.bitset_words_touched) + ",\n";
  json += "    \"mining_emitted\": " +
          std::to_string(report.mining.emitted) + ",\n";
  json += "    \"mining_subsumed\": " +
          std::to_string(report.mining.subsumed) + "\n";
  json += "  },\n";
  json += "  \"net_flush_bytes_hist\": [";
  for (int b = 0; b < kFlushBytesBuckets; ++b) {
    json += std::to_string(report.counters.net_flush_bytes_hist[b]);
    if (b + 1 < kFlushBytesBuckets) json += ", ";
  }
  json += "],\n";
  json += "  \"lifecycle\": {\n";
  {
    std::string rows;
    for (int from = 0; from < kNumTaskStates; ++from) {
      for (int to = 0; to < kNumTaskStates; ++to) {
        const uint64_t n = report.counters.lifecycle_transitions[from][to];
        if (n == 0) continue;  // the matrix is sparse; omit silent rows
        if (!rows.empty()) rows += ",\n";
        rows += std::string("    \"") +
                TaskStateName(static_cast<TaskState>(from)) + "->" +
                TaskStateName(static_cast<TaskState>(to)) +
                "\": " + std::to_string(n);
      }
    }
    json += rows.empty() ? "" : rows + "\n";
  }
  json += "  },\n";
  json += "  \"derived\": {\n";
  json += "    \"cache_hit_ratio\": " +
          JsonDouble(report.counters.CacheHitRatio()) + ",\n";
  json += "    \"message_overlap_ratio\": " +
          JsonDouble(report.counters.MessageOverlapRatio()) + ",\n";
  json += "    \"mean_delivery_latency_sec\": " +
          JsonDouble(report.counters.MeanDeliveryLatencySeconds()) + ",\n";
  json += "    \"frames_per_flush\": " +
          JsonDouble(report.counters.FramesPerFlush()) + ",\n";
  json += "    \"mean_flush_park_usec\": " +
          JsonDouble(report.counters.MeanFlushParkUsec()) + ",\n";
  json += "    \"busy_imbalance\": " + JsonDouble(report.BusyImbalance()) +
          "\n";
  json += "  },\n";
  json += "  \"threads\": [\n";
  for (size_t i = 0; i < report.threads.size(); ++i) {
    const ThreadSummary& t = report.threads[i];
    json += "    {\"machine\": " + std::to_string(t.machine) +
            ", \"thread\": " + std::to_string(t.thread) +
            ", \"busy_seconds\": " + JsonDouble(t.busy_seconds) +
            ", \"idle_seconds\": " + JsonDouble(t.idle_seconds) +
            ", \"mining_seconds\": " + JsonDouble(t.mining_seconds) +
            ", \"materialize_seconds\": " +
            JsonDouble(t.materialize_seconds) +
            ", \"tasks_processed\": " + std::to_string(t.tasks_processed) +
            "}";
    json += i + 1 < report.threads.size() ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += "  \"raw_result_sets\": " + std::to_string(report.results.size()) +
          "\n";
  json += "}\n";
  return json;
}

double EngineReport::BusyImbalance() const {
  if (threads.empty()) return 1.0;
  double min_busy = threads[0].busy_seconds;
  double max_busy = threads[0].busy_seconds;
  for (const ThreadSummary& t : threads) {
    min_busy = std::min(min_busy, t.busy_seconds);
    max_busy = std::max(max_busy, t.busy_seconds);
  }
  // A thread that never ran makes the ratio undefined; report 0.0 (a
  // clearly-invalid value for a max/min ratio) instead of a pseudo-inf
  // that poisons downstream aggregation and JSON consumers.
  if (min_busy <= 0.0) return max_busy > 0.0 ? 0.0 : 1.0;
  return max_busy / min_busy;
}

}  // namespace qcm
