// Always-compiled, runtime-gated tracing. Each thread that emits events
// owns a lock-free fixed-capacity ring of 24-byte records; when tracing is
// disabled an event site costs a couple of relaxed atomic loads and nothing
// else (no timestamp, no allocation). Rings drain to Chrome trace-event
// JSON (one object per line) which Perfetto / chrome://tracing load
// directly; multi-rank runs write per-rank fragments that MergeFragments
// stitches into one timeline (all ranks share the machine's steady clock
// on loopback, so timestamps are directly comparable). Nothing else
// writes trace-event JSON: sampled gauges are counter records too.
//
// Overflow policy: keep-first. Once a ring is full further records bump a
// per-ring drop counter and are discarded — a comper is never blocked or
// slowed by a full ring, and the kept prefix is deterministic.

#ifndef QCM_UTIL_TRACE_H_
#define QCM_UTIL_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace qcm {
namespace trace {

// Fixed category set; one byte per record. Names in kCategoryNames.
enum Category : uint8_t {
  kLifecycle = 0,  // task compute/spawn/spill spans, steal flows, load steps
  kPull = 1,       // PullBroker rounds, vertex-cache misses
  kNet = 2,        // transport frame writes
  kCheckpoint = 3, // checkpoint appends + replay
  kRecovery = 4,   // coordinator detect/kill/relaunch phases
  kKernel = 5,     // dense vs sparse kernel selection
  kStats = 6,      // sampled counter tracks
  kNumCategories = 7,
};

enum class EventType : uint8_t {
  kSpan = 0,      // complete event: ts + dur ("ph":"X")
  kInstant = 1,   // point event ("ph":"i")
  kCounter = 2,   // counter sample ("ph":"C")
  kFlowStart = 3, // flow arrow origin ("ph":"s")
  kFlowEnd = 4,   // flow arrow target ("ph":"f")
};

// One ring slot. 24 bytes; written by exactly one thread, read by the
// drainer after a release/acquire handoff on the ring's size counter.
struct Record {
  uint64_t ts_usec;       // steady-clock microseconds (NowMicros domain)
  uint64_t dur_or_value;  // span: duration; counter: value; flow: id
  uint16_t name_id;       // index into the interned name table
  uint8_t category;       // Category
  uint8_t type;           // EventType
  uint32_t arg;           // span/instant: small argument ("args":{"a":N});
                          // counter: the pid whose track it extends
};
static_assert(sizeof(Record) == 24, "trace records are packed to 24 bytes");

/// True when tracing is on. One relaxed load; safe to call at any rate.
bool Enabled();

/// Per-thread ring capacity the tools trace with, in KiB (~10.9k
/// records). A full ring drops further records and counts them -- it
/// never blocks a comper.
inline constexpr size_t kRingKb = 256;

/// Turns tracing on. Threads allocate a `ring_kb` KiB ring lazily on
/// first emit. Idempotent; a second Start keeps existing rings.
void Start(size_t ring_kb);

/// Test-only: stop tracing, drop all rings, and restore the real clock.
/// Interned names are kept — call sites cache ids in function-local
/// statics, so ids must stay valid across resets. Must not race with
/// emitting threads.
void ResetForTest();

/// Interns `name` (typically a string literal) and returns its id.
/// Cache the result at the call site:
///   static const uint16_t id = trace::InternName("flush");
uint16_t InternName(const char* name);

/// Low-level emitters. Callers must check Enabled() first (the QCM_TRACE_*
/// macros below do); emitting while disabled is a silent no-op.
void EmitSpan(uint16_t name_id, Category cat, uint64_t ts_usec,
              uint64_t dur_usec, uint32_t arg);
void EmitInstant(uint16_t name_id, Category cat, uint32_t arg);
/// A counter extends process `pid`'s track `name_id` (pid and tid 0,
/// whichever process drains it): a coordinator samples each rank this way.
void EmitCounter(uint16_t name_id, Category cat, int pid, uint64_t value);
void EmitFlow(EventType type, uint16_t name_id, Category cat,
              uint64_t flow_id);

/// Labels the calling thread in the trace ("M"/thread_name metadata).
/// No-op while disabled.
void SetThreadName(const char* name);

/// Current steady-clock timestamp for trace purposes (test-overridable).
uint64_t TraceNowMicros();

/// Test hook: replaces the clock behind TraceNowMicros. Pass nullptr to
/// restore the real steady clock.
void SetClockForTest(uint64_t (*now_fn)());

/// Serializes every ring to Chrome trace-event JSON objects, one per line
/// (no surrounding array). `pid` labels the process track of every record
/// but a counter, which names its own -- ranks pass their rank id.
/// Deterministic: rings in registration order, records in write order,
/// fixed key order. Includes thread_name metadata lines and, when records
/// were dropped, a trace_dropped_records counter line.
std::string DrainJsonLines(int pid);

/// The file rank `rank` of a cluster run drains its rings to, beside the
/// launcher's `trace_out` path: `<trace_out>.rank<R>.jsonl`.
std::string FragmentPath(const std::string& trace_out, int rank);

/// What MergeFragments wrote: its events, and the sum of the
/// trace_dropped_records counters it merged (every process's drops).
struct MergeSummary {
  size_t events = 0;
  uint64_t dropped_records = 0;
};

/// Reads per-rank fragment files and `local_lines` (this process's own
/// DrainJsonLines output, or empty), labels process `pid` with
/// `process_names[pid]` (process_name metadata), sorts every event by its
/// "ts" field, and writes one {"traceEvents":[...]} file that Perfetto
/// loads directly. Missing fragment files are skipped (a rank that died
/// before draining), not an error.
StatusOr<MergeSummary> MergeFragments(
    const std::vector<std::string>& fragment_paths,
    const std::string& local_lines,
    const std::vector<std::string>& process_names,
    const std::string& out_path);

/// RAII complete-span: stamps begin at construction, emits one "X" record
/// at destruction. Cost when disabled: one relaxed load in the ctor.
class Span {
 public:
  Span(Category cat, uint16_t name_id, uint32_t arg = 0)
      : armed_(Enabled()), cat_(cat), name_id_(name_id), arg_(arg) {
    if (armed_) begin_usec_ = TraceNowMicros();
  }
  ~Span() {
    if (armed_) {
      EmitSpan(name_id_, cat_, begin_usec_, TraceNowMicros() - begin_usec_,
               arg_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Updates the span's small argument (e.g. bytes flushed, discovered
  /// after construction).
  void set_arg(uint32_t arg) { arg_ = arg; }

 private:
  bool armed_;
  Category cat_;
  uint16_t name_id_;
  uint32_t arg_;
  uint64_t begin_usec_ = 0;
};

}  // namespace trace
}  // namespace qcm

// Interns a string literal once per call site and yields its id. The
// static guard is the only cost after first use.
#define QCM_TRACE_NAME(name_literal)                                   \
  ([]() -> uint16_t {                                                  \
    static const uint16_t qcm_trace_name_id =                          \
        ::qcm::trace::InternName(name_literal);                        \
    return qcm_trace_name_id;                                          \
  }())

// Scoped span covering the rest of the enclosing block.
#define QCM_TRACE_CONCAT_(a, b) a##b
#define QCM_TRACE_CONCAT(a, b) QCM_TRACE_CONCAT_(a, b)
#define QCM_TRACE_SPAN(cat, name_literal, arg)                       \
  ::qcm::trace::Span QCM_TRACE_CONCAT(qcm_trace_span_, __LINE__)(    \
      cat, QCM_TRACE_NAME(name_literal), static_cast<uint32_t>(arg))

// Point event; fully gated, one relaxed load when off.
#define QCM_TRACE_INSTANT(cat, name_literal, arg)                    \
  do {                                                               \
    if (::qcm::trace::Enabled()) {                                   \
      ::qcm::trace::EmitInstant(QCM_TRACE_NAME(name_literal), cat,   \
                                static_cast<uint32_t>(arg));         \
    }                                                                \
  } while (0)

#endif  // QCM_UTIL_TRACE_H_
