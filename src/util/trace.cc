#include "util/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "util/timer.h"

namespace qcm {
namespace trace {
namespace {

const char* const kCategoryNames[kNumCategories] = {
    "lifecycle", "pull", "net", "checkpoint", "recovery", "kernel", "stats",
};

// One per emitting thread. Records are written by the owner thread only;
// the drainer reads `records[0, size)` after an acquire load of `size`,
// pairing with the owner's release store — no locks on the emit path.
struct Ring {
  explicit Ring(size_t capacity) : records(capacity) {}

  std::vector<Record> records;
  std::atomic<size_t> size{0};
  std::atomic<uint64_t> dropped{0};
  int tid = 0;
  std::string thread_name;  // guarded by State::mu
};

struct State {
  std::mutex mu;
  std::vector<std::unique_ptr<Ring>> rings;
  // Interned names live forever: call sites cache ids in function-local
  // statics that survive ResetForTest.
  std::vector<std::string> names;
  std::unordered_map<std::string, uint16_t> name_ids;
  size_t ring_capacity = 0;  // records per ring; 0 = tracing never started
  int next_tid = 1;
};

State& GlobalState() {
  static State* state = new State;  // leaked: emitters may outlive main
  return *state;
}

std::atomic<bool> g_enabled{false};
// Bumped by ResetForTest so threads holding a stale ring pointer
// re-register instead of writing into a freed ring.
std::atomic<uint64_t> g_generation{0};
std::atomic<uint64_t (*)()> g_clock_for_test{nullptr};

thread_local Ring* t_ring = nullptr;
thread_local uint64_t t_ring_generation = ~uint64_t{0};

Ring* CurrentRing() {
  const uint64_t gen = g_generation.load(std::memory_order_acquire);
  if (t_ring == nullptr || t_ring_generation != gen) {
    State& s = GlobalState();
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.ring_capacity == 0) return nullptr;
    auto ring = std::make_unique<Ring>(s.ring_capacity);
    ring->tid = s.next_tid++;
    t_ring = ring.get();
    t_ring_generation = gen;
    s.rings.push_back(std::move(ring));
  }
  return t_ring;
}

void EmitRecord(const Record& rec) {
  Ring* ring = CurrentRing();
  if (ring == nullptr) return;
  const size_t n = ring->size.load(std::memory_order_relaxed);
  if (n >= ring->records.size()) {
    ring->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ring->records[n] = rec;
  ring->size.store(n + 1, std::memory_order_release);
}

// One "M" metadata line naming process `pid` (kind "process_name") or its
// thread `tid` (kind "thread_name").
void AppendMetadata(const char* kind, int pid, int tid,
                    const std::string& name, std::string* out) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s\",\"ph\":\"M\",\"ts\":0,\"pid\":%d,"
                "\"tid\":%d,\"args\":{\"name\":\"",
                kind, pid, tid);
  out->append(buf);
  out->append(name);
  out->append("\"}}\n");
}

// One record as a JSON line on process `pid`'s thread `tid`, except a
// counter, which extends its own pid's track on tid 0.
void AppendRecord(const State& s, const Record& rec, int pid, int tid,
                  std::string* out) {
  const auto type = static_cast<EventType>(rec.type);
  if (type == EventType::kCounter) {
    pid = static_cast<int>(rec.arg);
    tid = 0;
  }
  out->append("{\"name\":\"");
  out->append(s.names[rec.name_id]);
  out->append("\",\"cat\":\"");
  out->append(kCategoryNames[rec.category]);
  out->append("\"");
  char buf[128];
  std::snprintf(buf, sizeof(buf), ",\"ts\":%llu,\"pid\":%d,\"tid\":%d",
                static_cast<unsigned long long>(rec.ts_usec), pid, tid);
  out->append(buf);
  const auto value = static_cast<unsigned long long>(rec.dur_or_value);
  switch (type) {
    case EventType::kSpan:
      std::snprintf(buf, sizeof(buf),
                    ",\"ph\":\"X\",\"dur\":%llu,\"args\":{\"a\":%u}}\n", value,
                    rec.arg);
      break;
    case EventType::kInstant:
      std::snprintf(buf, sizeof(buf),
                    ",\"ph\":\"i\",\"s\":\"t\",\"args\":{\"a\":%u}}\n",
                    rec.arg);
      break;
    case EventType::kCounter:
      std::snprintf(buf, sizeof(buf),
                    ",\"ph\":\"C\",\"args\":{\"value\":%llu}}\n", value);
      break;
    case EventType::kFlowStart:
      std::snprintf(buf, sizeof(buf), ",\"ph\":\"s\",\"id\":%llu}\n", value);
      break;
    case EventType::kFlowEnd:
      std::snprintf(buf, sizeof(buf),
                    ",\"ph\":\"f\",\"bp\":\"e\",\"id\":%llu}\n", value);
      break;
  }
  out->append(buf);
}

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Start(size_t ring_kb) {
  State& s = GlobalState();
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.ring_capacity == 0) {
      if (ring_kb == 0) ring_kb = 1;
      s.ring_capacity = std::max<size_t>(1, ring_kb * 1024 / sizeof(Record));
    }
  }
  g_enabled.store(true, std::memory_order_release);
}

void ResetForTest() {
  g_enabled.store(false, std::memory_order_release);
  State& s = GlobalState();
  std::lock_guard<std::mutex> lock(s.mu);
  s.rings.clear();
  s.ring_capacity = 0;
  s.next_tid = 1;
  g_generation.fetch_add(1, std::memory_order_release);
  g_clock_for_test.store(nullptr, std::memory_order_relaxed);
}

uint16_t InternName(const char* name) {
  State& s = GlobalState();
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.name_ids.find(name);
  if (it != s.name_ids.end()) return it->second;
  const uint16_t id = static_cast<uint16_t>(s.names.size());
  s.names.emplace_back(name);
  s.name_ids.emplace(name, id);
  return id;
}

void EmitSpan(uint16_t name_id, Category cat, uint64_t ts_usec,
              uint64_t dur_usec, uint32_t arg) {
  if (!Enabled()) return;
  EmitRecord(Record{ts_usec, dur_usec, name_id, cat,
                    static_cast<uint8_t>(EventType::kSpan), arg});
}

void EmitInstant(uint16_t name_id, Category cat, uint32_t arg) {
  if (!Enabled()) return;
  EmitRecord(Record{TraceNowMicros(), 0, name_id, cat,
                    static_cast<uint8_t>(EventType::kInstant), arg});
}

void EmitCounter(uint16_t name_id, Category cat, int pid, uint64_t value) {
  if (!Enabled()) return;
  EmitRecord(Record{TraceNowMicros(), value, name_id, cat,
                    static_cast<uint8_t>(EventType::kCounter),
                    static_cast<uint32_t>(pid)});
}

void EmitFlow(EventType type, uint16_t name_id, Category cat,
              uint64_t flow_id) {
  if (!Enabled()) return;
  EmitRecord(Record{TraceNowMicros(), flow_id, name_id, cat,
                    static_cast<uint8_t>(type), 0});
}

void SetThreadName(const char* name) {
  if (!Enabled()) return;
  Ring* ring = CurrentRing();
  if (ring == nullptr) return;
  State& s = GlobalState();
  std::lock_guard<std::mutex> lock(s.mu);
  ring->thread_name = name;
}

uint64_t TraceNowMicros() {
  auto* fn = g_clock_for_test.load(std::memory_order_relaxed);
  return fn != nullptr ? fn() : static_cast<uint64_t>(NowMicros());
}

void SetClockForTest(uint64_t (*now_fn)()) {
  g_clock_for_test.store(now_fn, std::memory_order_relaxed);
}

std::string DrainJsonLines(int pid) {
  static const uint16_t dropped_name = InternName("trace_dropped_records");
  State& s = GlobalState();
  std::lock_guard<std::mutex> lock(s.mu);
  std::string out;
  uint64_t dropped = 0;
  uint64_t last_ts = 0;
  for (const auto& ring : s.rings) {
    const size_t n = ring->size.load(std::memory_order_acquire);
    dropped += ring->dropped.load(std::memory_order_relaxed);
    if (!ring->thread_name.empty()) {
      AppendMetadata("thread_name", pid, ring->tid, ring->thread_name, &out);
    }
    for (size_t i = 0; i < n; ++i) {
      last_ts = std::max(last_ts, ring->records[i].ts_usec);
      AppendRecord(s, ring->records[i], pid, ring->tid, &out);
    }
  }
  if (dropped > 0) {
    AppendRecord(s,
                 Record{last_ts, dropped, dropped_name, kStats,
                        static_cast<uint8_t>(EventType::kCounter),
                        static_cast<uint32_t>(pid)},
                 pid, 0, &out);
  }
  return out;
}

std::string FragmentPath(const std::string& trace_out, int rank) {
  return trace_out + ".rank" + std::to_string(rank) + ".jsonl";
}

namespace {

// Reads the unsigned integer after `key` (e.g. "ts":) in `line`, so
// fragments merge into one time-ordered stream without a full JSON parser.
bool ParseField(const std::string& line, const char* key, uint64_t* value) {
  const char* pos = std::strstr(line.c_str(), key);
  if (pos == nullptr) return false;
  pos += std::strlen(key);
  if (*pos < '0' || *pos > '9') return false;
  *value = std::strtoull(pos, nullptr, 10);
  return true;
}

}  // namespace

StatusOr<MergeSummary> MergeFragments(
    const std::vector<std::string>& fragment_paths,
    const std::string& local_lines,
    const std::vector<std::string>& process_names,
    const std::string& out_path) {
  static const std::string kDroppedLine =
      "{\"name\":\"trace_dropped_records\",";
  struct Entry {
    uint64_t ts;
    std::string line;
  };
  std::vector<Entry> entries;
  MergeSummary summary;
  auto add_lines = [&](std::istream& in) {
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      uint64_t ts = 0;
      if (!ParseField(line, "\"ts\":", &ts)) {
        return Status::Corruption("trace event line without ts field: " +
                                  line);
      }
      uint64_t dropped = 0;
      if (line.rfind(kDroppedLine, 0) == 0 &&
          ParseField(line, "\"value\":", &dropped)) {
        summary.dropped_records += dropped;
      }
      entries.push_back(Entry{ts, std::move(line)});
    }
    return Status::OK();
  };
  for (const std::string& path : fragment_paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) continue;  // rank died before draining; merge what exists
    QCM_RETURN_IF_ERROR(add_lines(in));
  }
  std::string labels;
  for (size_t pid = 0; pid < process_names.size(); ++pid) {
    AppendMetadata("process_name", static_cast<int>(pid), 0,
                   process_names[pid], &labels);
  }
  std::istringstream local(local_lines + labels);
  QCM_RETURN_IF_ERROR(add_lines(local));
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) { return a.ts < b.ts; });

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open merged trace: " + out_path);
  out << "{\"traceEvents\":[\n";
  for (size_t i = 0; i < entries.size(); ++i) {
    out << entries[i].line;
    if (i + 1 < entries.size()) out << ',';
    out << '\n';
  }
  out << "]}\n";
  out.flush();
  if (!out) return Status::IOError("short write to merged trace: " + out_path);
  summary.events = entries.size();
  return summary;
}

}  // namespace trace
}  // namespace qcm
