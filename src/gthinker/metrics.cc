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

EngineCountersSnapshot EngineCountersSnapshot::From(const EngineCounters& c) {
  EngineCountersSnapshot s;
  const auto load = [](const std::atomic<uint64_t>& live, uint64_t& value) {
    value = live.load(std::memory_order_relaxed);
  };
#define QCM_LOAD_COUNTER(name, shape, merge) ForEachCell(load, c.name, s.name);
  QCM_ENGINE_COUNTERS(QCM_LOAD_COUNTER)
#undef QCM_LOAD_COUNTER
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
  net_flush_park_usec += fs.park_usec_sum;
  ForEachCell([](uint64_t& sum, uint64_t v) { sum += v; },
              net_flush_bytes_hist, fs.bytes_hist);
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

void EncodeThread(const ThreadSummary& t, Encoder* enc) {
  enc->PutU32(static_cast<uint32_t>(t.machine));
  enc->PutU32(static_cast<uint32_t>(t.thread));
  VisitThreadSeconds([enc](const char*, double v) { enc->PutDouble(v); }, t);
  enc->PutU64(t.tasks_processed);
}

Status DecodeThread(Decoder* dec, ThreadSummary* t) {
  uint32_t machine = 0;
  uint32_t thread = 0;
  QCM_RETURN_IF_ERROR(dec->GetU32(&machine));
  QCM_RETURN_IF_ERROR(dec->GetU32(&thread));
  t->machine = static_cast<int>(machine);
  t->thread = static_cast<int>(thread);
  Status status;
  VisitThreadSeconds(
      [&](const char*, double& v) {
        if (status.ok()) status = dec->GetDouble(&v);
      },
      *t);
  QCM_RETURN_IF_ERROR(status);
  return dec->GetU64(&t->tasks_processed);
}

/// Bytes EncodeThread writes for any summary (every field is fixed-width).
size_t EncodedThreadBytes() {
  static const size_t bytes = [] {
    Encoder enc;
    EncodeThread(ThreadSummary(), &enc);
    return enc.size();
  }();
  return bytes;
}

/// A JSON object under construction: its `"key": value` entries in order.
struct JsonObject {
  std::vector<std::pair<std::string, std::string>> fields;

  void Add(std::string key, std::string value) {
    fields.emplace_back(std::move(key), std::move(value));
  }
  /// One entry per line at `indent` spaces; the brace 2 spaces left.
  std::string Render(int indent) const {
    std::string out = "{\n";
    for (size_t i = 0; i < fields.size(); ++i) {
      out += std::string(indent, ' ') + "\"" + fields[i].first + "\": " +
             fields[i].second + (i + 1 < fields.size() ? ",\n" : "\n");
    }
    return out + std::string(indent - 2, ' ') + "}";
  }
  /// All entries on one line.
  std::string Inline() const {
    std::string out = "{";
    for (size_t i = 0; i < fields.size(); ++i) {
      out += (i == 0 ? "\"" : ", \"") + fields[i].first +
             "\": " + fields[i].second;
    }
    return out + "}";
  }
};

/// Where the registry rows land in --stats-json: keys under "counters",
/// and top-level tables (the histograms).
struct RowJson {
  JsonObject counters;
  JsonObject tables;
};

void AddRowJson(Scalar, const char* name, uint64_t v, RowJson* out) {
  out->counters.Add(name, std::to_string(v));
}

void AddRowJson(PerMessageType, const char* name,
                const uint64_t (&v)[kNumMessageTypes], RowJson* out) {
  for (int t = 0; t < kNumMessageTypes; ++t) {
    out->counters.Add(std::string(name) + "_" + MessageTypeJsonKey(t),
                      std::to_string(v[t]));
  }
}

template <int kBuckets>
void AddRowJson(Buckets<kBuckets>, const char* name,
                const uint64_t (&v)[kBuckets], RowJson* out) {
  std::string list;
  for (uint64_t n : v) list += (list.empty() ? "" : ", ") + std::to_string(n);
  out->tables.Add(name, "[" + list + "]");
}

}  // namespace

void EncodeEngineReport(const EngineReport& report, Encoder* enc) {
  enc->PutDouble(report.wall_seconds);
  enc->PutU64(report.peak_rss_bytes);
  const auto put = [enc](uint64_t v) { enc->PutU64(v); };
  VisitReportCounters(
      [&](const char*, auto, CounterMerge, const auto& row) {
        ForEachCell(put, row);
      },
      report.counters);
  VisitMiningStats([&](const char*, uint64_t v) { put(v); }, report.mining);
  enc->PutU64(report.threads.size());
  for (const ThreadSummary& t : report.threads) EncodeThread(t, enc);
  enc->PutU64(report.results.size());
  for (const VertexSet& s : report.results) enc->PutU32Vector(s);
}

Status DecodeEngineReport(Decoder* dec, EngineReport* report) {
  *report = EngineReport();
  QCM_RETURN_IF_ERROR(dec->GetDouble(&report->wall_seconds));
  QCM_RETURN_IF_ERROR(dec->GetU64(&report->peak_rss_bytes));
  Status status;
  const auto get = [&](uint64_t& v) {
    if (status.ok()) status = dec->GetU64(&v);
  };
  VisitReportCounters(
      [&](const char*, auto, CounterMerge, auto& row) {
        ForEachCell(get, row);
      },
      report->counters);
  VisitMiningStats([&](const char*, uint64_t& v) { get(v); }, report->mining);
  QCM_RETURN_IF_ERROR(status);
  uint64_t n = 0;
  QCM_RETURN_IF_ERROR(dec->GetU64(&n));
  // Bound counts by the bytes actually present (every other decoder in
  // the codebase does) so a corrupt report blob surfaces as Corruption,
  // never as a gigantic resize. Each ThreadSummary needs
  // EncodedThreadBytes(), each result set at least its 8-byte length.
  if (n > dec->Remaining() / EncodedThreadBytes()) {
    return Status::Corruption("report thread count exceeds payload");
  }
  report->threads.resize(n);
  for (ThreadSummary& t : report->threads) {
    QCM_RETURN_IF_ERROR(DecodeThread(dec, &t));
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

void MapToInputIds(std::span<const VertexId> ids, EngineReport* report) {
  if (ids.empty()) return;
  for (VertexSet& set : report->results) {
    for (VertexId& v : set) v = ids[v];
    std::sort(set.begin(), set.end());
  }
  for (RootTaskAgg& agg : report->root_tasks) agg.root = ids[agg.root];
}

EngineReport MergeEngineReports(std::vector<EngineReport> reports) {
  EngineReport merged;
  size_t results = 0;
  for (const EngineReport& r : reports) results += r.results.size();
  merged.results.reserve(results);
  for (EngineReport& r : reports) {
    merged.wall_seconds = std::max(merged.wall_seconds, r.wall_seconds);
    merged.peak_rss_bytes += r.peak_rss_bytes;
    VisitReportCounters(
        [](const char*, auto, CounterMerge merge, auto& into,
           const auto& from) {
          ForEachCell(
              [merge](uint64_t& a, uint64_t b) {
                a = merge == CounterMerge::kMax ? std::max(a, b) : a + b;
              },
              into, from);
        },
        merged.counters, r.counters);
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
  JsonObject json;
  json.Add("wall_seconds", JsonDouble(report.wall_seconds));
  json.Add("peak_rss_bytes", std::to_string(report.peak_rss_bytes));
  ThreadSummary total;
  for (const ThreadSummary& t : report.threads) {
    VisitThreadSeconds([](const char*, double& sum, double v) { sum += v; },
                       total, t);
  }
  VisitThreadSeconds(
      [&](const char* name, double sum) {
        json.Add(std::string("total_") + name, JsonDouble(sum));
      },
      total);

  RowJson rows;
  VisitReportCounters(
      [&](const char* name, auto shape, CounterMerge, const auto& row) {
        AddRowJson(shape, name, row, &rows);
      },
      report.counters);
  VisitMiningStats(
      [&](const char* name, uint64_t v) {
        rows.counters.Add(std::string("mining_") + name, std::to_string(v));
      },
      report.mining);
  json.Add("counters", rows.counters.Render(4));
  for (auto& [key, value] : rows.tables.fields) json.Add(key, value);

  const EngineCountersSnapshot& c = report.counters;
  JsonObject derived;
  derived.Add("cache_hit_ratio", JsonDouble(c.CacheHitRatio()));
  derived.Add("message_overlap_ratio", JsonDouble(c.MessageOverlapRatio()));
  derived.Add("mean_delivery_latency_sec",
              JsonDouble(c.MeanDeliveryLatencySeconds()));
  derived.Add("frames_per_flush", JsonDouble(c.FramesPerFlush()));
  derived.Add("mean_flush_park_usec", JsonDouble(c.MeanFlushParkUsec()));
  derived.Add("busy_imbalance", JsonDouble(report.BusyImbalance()));
  json.Add("derived", derived.Render(4));

  std::string threads = "[\n";
  for (size_t i = 0; i < report.threads.size(); ++i) {
    const ThreadSummary& t = report.threads[i];
    JsonObject entry;
    entry.Add("machine", std::to_string(t.machine));
    entry.Add("thread", std::to_string(t.thread));
    VisitThreadSeconds(
        [&](const char* name, double v) { entry.Add(name, JsonDouble(v)); },
        t);
    entry.Add("tasks_processed", std::to_string(t.tasks_processed));
    threads += "    " + entry.Inline() +
               (i + 1 < report.threads.size() ? ",\n" : "\n");
  }
  json.Add("threads", threads + "  ]");
  json.Add("raw_result_sets", std::to_string(report.results.size()));
  return json.Render(2) + "\n";
}

double EngineReport::Total(double ThreadSummary::*seconds) const {
  double total = 0.0;
  for (const ThreadSummary& t : threads) total += t.*seconds;
  return total;
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
