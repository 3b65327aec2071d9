// Tests for the runtime-gated tracing subsystem (util/trace.h): ring
// overflow keeps the prefix and counts drops, concurrent writers are
// race-free (run under TSan in CI), the JSON drain is byte-stable under a
// pinned clock, fragment merging is time-ordered, and — the acceptance
// gate — a real 3-process qcm_cluster run produces ONE merged
// Perfetto-loadable timeline with spans from every rank plus kStats
// counter tracks, without changing the result digest.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/trace.h"

namespace qcm {
namespace {

#ifndef QCM_BIN_DIR
#define QCM_BIN_DIR "."
#endif

std::string BinDir() { return QCM_BIN_DIR; }

// 24-byte records: Start(1) gives each thread a ring of 1024/24 = 42 slots.
constexpr size_t kOneKbCapacity = 1024 / sizeof(trace::Record);

uint64_t g_fake_now = 0;
uint64_t FakeClock() { return g_fake_now; }

/// Every trace_test case owns the global trace state: reset before AND
/// after so ordering between cases (and other suites) cannot leak rings.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { trace::ResetForTest(); }
  void TearDown() override { trace::ResetForTest(); }
};

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST_F(TraceTest, DisabledEmitIsFreeAndRecordsNothing) {
  EXPECT_FALSE(trace::Enabled());
  const uint16_t id = trace::InternName("disabled_site");
  trace::EmitInstant(id, trace::kPull, 1);
  trace::EmitCounter(id, trace::kStats, 2);
  { QCM_TRACE_SPAN(trace::kNet, "disabled_span", 3); }
  EXPECT_EQ(trace::DrainJsonLines(/*pid=*/0), "");
  EXPECT_EQ(trace::DroppedRecords(), 0u);
}

TEST_F(TraceTest, OverflowKeepsPrefixAndCountsDrops) {
  trace::Start(/*ring_kb=*/1);
  const uint16_t id = trace::InternName("overflow_site");
  const size_t emitted = kOneKbCapacity + 58;
  for (size_t i = 0; i < emitted; ++i) {
    trace::EmitInstant(id, trace::kKernel, static_cast<uint32_t>(i));
  }
  EXPECT_EQ(trace::DroppedRecords(), 58u);

  const std::string json = trace::DrainJsonLines(/*pid=*/0);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"i\""), kOneKbCapacity);
  // Keep-first: the retained prefix is records 0..capacity-1.
  EXPECT_NE(json.find("\"args\":{\"a\":0}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"a\":" +
                      std::to_string(kOneKbCapacity - 1) + "}"),
            std::string::npos);
  EXPECT_EQ(json.find("\"args\":{\"a\":" + std::to_string(kOneKbCapacity) +
                      "}"),
            std::string::npos);
  // The drop count itself is surfaced as a counter event.
  EXPECT_NE(json.find("\"name\":\"trace_dropped_records\""),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"value\":58}"), std::string::npos);
}

TEST_F(TraceTest, ConcurrentWritersNeverBlockOrRace) {
  trace::Start(/*ring_kb=*/1);
  constexpr int kThreads = 4;
  constexpr size_t kPerThread = 1000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      const uint16_t id = trace::InternName("concurrent_site");
      char name[16];
      std::snprintf(name, sizeof(name), "writer%d", t);
      trace::SetThreadName(name);
      for (size_t i = 0; i < kPerThread; ++i) {
        trace::EmitInstant(id, trace::kLifecycle, static_cast<uint32_t>(i));
      }
    });
  }
  for (std::thread& w : writers) w.join();

  // Every emit either landed in its thread's ring or was counted dropped.
  const std::string json = trace::DrainJsonLines(/*pid=*/0);
  const size_t kept = CountOccurrences(json, "\"ph\":\"i\"");
  EXPECT_EQ(kept, kThreads * kOneKbCapacity);
  EXPECT_EQ(kept + trace::DroppedRecords(), kThreads * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_NE(json.find("\"name\":\"writer" + std::to_string(t) + "\""),
              std::string::npos);
  }
}

TEST_F(TraceTest, DrainJsonIsByteStableUnderPinnedClock) {
  trace::SetClockForTest(&FakeClock);
  g_fake_now = 100;
  trace::Start(/*ring_kb=*/4);
  trace::SetThreadName("pinned");

  const uint16_t span_id = trace::InternName("pinned_span");
  const uint16_t inst_id = trace::InternName("pinned_instant");
  const uint16_t ctr_id = trace::InternName("pinned_counter");
  const uint16_t flow_id = trace::InternName("pinned_flow");
  trace::EmitSpan(span_id, trace::kNet, /*ts_usec=*/100, /*dur_usec=*/40,
                  /*arg=*/7);
  g_fake_now = 150;
  trace::EmitInstant(inst_id, trace::kPull, 3);
  g_fake_now = 160;
  trace::EmitCounter(ctr_id, trace::kStats, 42);
  g_fake_now = 170;
  trace::EmitFlow(trace::EventType::kFlowStart, flow_id, trace::kLifecycle,
                  9);
  g_fake_now = 180;
  trace::EmitFlow(trace::EventType::kFlowEnd, flow_id, trace::kLifecycle,
                  9);

  const std::string expected =
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":2,\"tid\":1,"
      "\"args\":{\"name\":\"pinned\"}}\n"
      "{\"name\":\"pinned_span\",\"cat\":\"net\",\"ts\":100,\"pid\":2,"
      "\"tid\":1,\"ph\":\"X\",\"dur\":40,\"args\":{\"a\":7}}\n"
      "{\"name\":\"pinned_instant\",\"cat\":\"pull\",\"ts\":150,\"pid\":2,"
      "\"tid\":1,\"ph\":\"i\",\"s\":\"t\",\"args\":{\"a\":3}}\n"
      "{\"name\":\"pinned_counter\",\"cat\":\"stats\",\"ts\":160,\"pid\":2,"
      "\"tid\":1,\"ph\":\"C\",\"args\":{\"value\":42}}\n"
      "{\"name\":\"pinned_flow\",\"cat\":\"lifecycle\",\"ts\":170,"
      "\"pid\":2,\"tid\":1,\"ph\":\"s\",\"id\":9}\n"
      "{\"name\":\"pinned_flow\",\"cat\":\"lifecycle\",\"ts\":180,"
      "\"pid\":2,\"tid\":1,\"ph\":\"f\",\"bp\":\"e\",\"id\":9}\n";
  EXPECT_EQ(trace::DrainJsonLines(/*pid=*/2), expected);
  // Draining is a pure serialization of the rings: byte-identical twice.
  EXPECT_EQ(trace::DrainJsonLines(/*pid=*/2), expected);
}

TEST_F(TraceTest, SpanRaiiStampsDurationFromTheClock) {
  trace::SetClockForTest(&FakeClock);
  g_fake_now = 500;
  trace::Start(/*ring_kb=*/4);
  {
    QCM_TRACE_SPAN(trace::kCheckpoint, "raii_span", 11);
    g_fake_now = 530;
  }
  const std::string json = trace::DrainJsonLines(/*pid=*/0);
  EXPECT_NE(json.find("\"name\":\"raii_span\",\"cat\":\"checkpoint\","
                      "\"ts\":500,\"pid\":0,\"tid\":1,\"ph\":\"X\","
                      "\"dur\":30,\"args\":{\"a\":11}"),
            std::string::npos)
      << json;
}

TEST_F(TraceTest, MergeFragmentsSortsByTimestampAndSkipsMissingRanks) {
  const std::string dir = ::testing::TempDir();
  const std::string frag0 = dir + "/trace_merge.rank0.jsonl";
  const std::string frag1 = dir + "/trace_merge.rank1.jsonl";
  const std::string missing = dir + "/trace_merge.rank2.jsonl";
  const std::string out = dir + "/trace_merge.json";
  ::remove(missing.c_str());
  {
    std::ofstream f(frag0);
    f << "{\"name\":\"a\",\"cat\":\"net\",\"ts\":300,\"pid\":0,\"tid\":1,"
         "\"ph\":\"i\",\"s\":\"t\",\"args\":{\"a\":1}}\n"
      << "{\"name\":\"b\",\"cat\":\"net\",\"ts\":100,\"pid\":0,\"tid\":1,"
         "\"ph\":\"i\",\"s\":\"t\",\"args\":{\"a\":2}}\n";
  }
  {
    std::ofstream f(frag1);
    f << "{\"name\":\"c\",\"cat\":\"pull\",\"ts\":200,\"pid\":1,\"tid\":1,"
         "\"ph\":\"i\",\"s\":\"t\",\"args\":{\"a\":3}}\n";
  }
  const std::vector<std::string> extra = {
      "{\"name\":\"d\",\"cat\":\"stats\",\"ph\":\"C\",\"ts\":150,"
      "\"pid\":1,\"tid\":0,\"args\":{\"value\":5}}",
  };
  ASSERT_TRUE(
      trace::MergeFragments({frag0, frag1, missing}, extra, out).ok());

  std::ifstream in(out);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string merged = ss.str();
  EXPECT_EQ(merged.rfind("{\"traceEvents\":[", 0), 0u);
  // All four events present, ordered 100 < 150 < 200 < 300.
  const size_t p100 = merged.find("\"ts\":100");
  const size_t p150 = merged.find("\"ts\":150");
  const size_t p200 = merged.find("\"ts\":200");
  const size_t p300 = merged.find("\"ts\":300");
  ASSERT_NE(p100, std::string::npos);
  ASSERT_NE(p150, std::string::npos);
  ASSERT_NE(p200, std::string::npos);
  ASSERT_NE(p300, std::string::npos);
  EXPECT_LT(p100, p150);
  EXPECT_LT(p150, p200);
  EXPECT_LT(p200, p300);
  ::remove(frag0.c_str());
  ::remove(frag1.c_str());
  ::remove(out.c_str());
}

TEST_F(TraceTest, MergeFragmentsRejectsEventWithoutTimestamp) {
  const std::string out = ::testing::TempDir() + "/trace_bad_merge.json";
  const std::vector<std::string> extra = {
      "{\"name\":\"no_ts\",\"ph\":\"i\"}"};
  EXPECT_FALSE(trace::MergeFragments({}, extra, out).ok());
}

// ---------------------------------------------------------------------------
// End-to-end: the shipped binaries, tracing on vs off.

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

RunResult RunCommand(const std::string& command) {
  RunResult result;
  FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    result.output.append(buf, n);
  }
  const int status = ::pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string Digest(const std::string& output) {
  const std::string needle = "result-digest: ";
  const size_t pos = output.find(needle);
  if (pos == std::string::npos) return "";
  return output.substr(pos + needle.size(), 16);
}

constexpr char kGraphSpec[] = "n=800,communities=4,size=8..11,density=0.95";
constexpr char kMiningFlags[] = "--gamma 0.85 --min-size 7 --seed 5";

TEST(TraceE2ETest, SingleProcessDigestUnchangedByTracing) {
  const std::string dir = ::testing::TempDir();
  const std::string trace_path = dir + "/qcm_mine_trace.json";
  const RunResult off = RunCommand(
      BinDir() + "/qcm_mine --gen-planted " + kGraphSpec + " " +
      kMiningFlags + " --machines 2 --threads 2 --output " + dir +
      "/mine_off.txt");
  ASSERT_EQ(off.exit_code, 0) << off.output;
  const RunResult on = RunCommand(
      BinDir() + "/qcm_mine --gen-planted " + kGraphSpec + " " +
      kMiningFlags + " --machines 2 --threads 2 --output " + dir +
      "/mine_on.txt --trace-out " + trace_path + " --stats-interval-ms 20");
  ASSERT_EQ(on.exit_code, 0) << on.output;

  EXPECT_NE(Digest(off.output), "");
  EXPECT_EQ(Digest(off.output), Digest(on.output)) << on.output;

  const std::string trace = ReadFile(trace_path);
  ASSERT_FALSE(trace.empty()) << on.output;
  EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"busy_compers\""), std::string::npos)
      << "kStats counter tracks missing from the timeline";
  ::remove(trace_path.c_str());
}

TEST(TraceE2ETest, ThreeProcessClusterMergesOneTimelineDigestUnchanged) {
  const std::string dir = ::testing::TempDir();
  const std::string trace_path = dir + "/qcm_cluster_trace.json";
  const std::string base = BinDir() + "/qcm_cluster --gen-planted " +
                           kGraphSpec + " " + kMiningFlags +
                           " --workers 3 --threads 2";
  const RunResult off =
      RunCommand(base + " --output " + dir + "/cluster_off.txt");
  ASSERT_EQ(off.exit_code, 0) << off.output;
  const RunResult on = RunCommand(base + " --output " + dir +
                                  "/cluster_on.txt --trace-out " +
                                  trace_path + " --stats-interval-ms 50");
  ASSERT_EQ(on.exit_code, 0) << on.output;

  // Tracing must be invisible in the results: bit-identical digest.
  EXPECT_NE(Digest(off.output), "");
  EXPECT_EQ(Digest(off.output), Digest(on.output)) << on.output;

  // ONE merged timeline with spans from every rank, rank-labeled process
  // tracks, and kStats counter tracks.
  const std::string trace = ReadFile(trace_path);
  ASSERT_FALSE(trace.empty()) << on.output;
  EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u);
  for (int r = 0; r < 3; ++r) {
    EXPECT_NE(trace.find("\"pid\":" + std::to_string(r) + ","),
              std::string::npos)
        << "no events from rank " << r;
    EXPECT_NE(trace.find("{\"name\":\"rank" + std::to_string(r) + "\"}"),
              std::string::npos)
        << "rank " << r << " process track is unlabeled";
  }
  EXPECT_NE(trace.find("\"name\":\"busy_compers\""), std::string::npos)
      << "kStats counter tracks missing from the merged timeline";
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  // The per-rank fragments were stitched in and cleaned up.
  for (int r = 0; r < 3; ++r) {
    const std::string frag =
        trace_path + ".rank" + std::to_string(r) + ".jsonl";
    EXPECT_NE(::access(frag.c_str(), F_OK), 0)
        << frag << " left behind after merge";
  }
  ::remove(trace_path.c_str());
}

}  // namespace
}  // namespace qcm
