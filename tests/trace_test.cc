// Tests for the runtime-gated tracing subsystem (util/trace.h): with
// tracing off no site of an engine run reads the clock, ring overflow
// keeps the prefix and counts drops, concurrent writers are race-free
// (run under TSan in CI), the JSON drain is byte-stable under a
// pinned clock, fragment merging is time-ordered and takes this
// process's own drain, a file input's timeline shows the load's steps,
// and — the acceptance
// gate — a real 3-process qcm_cluster run produces ONE merged,
// time-ordered, Perfetto-loadable timeline with spans from every rank
// plus kStats counter tracks, without changing the result digest.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_run.h"
#include "graph/csr_snapshot.h"
#include "graph/edge_io.h"
#include "graph/generators.h"
#include "gthinker/checkpoint.h"
#include "gthinker/vertex_table.h"
#include "mining/parallel_miner.h"
#include "util/trace.h"

namespace qcm {
namespace {

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

std::atomic<uint64_t> g_clock_reads{0};
uint64_t CountingClock() {
  return g_clock_reads.fetch_add(1, std::memory_order_relaxed);
}

// With tracing off, no site reads the trace clock or records anything --
// neither the emitters called directly nor the instrumented layers of a
// whole in-process engine run: kernel selection, the task lifecycle,
// spill and refill (tiny queues), pull rounds and the responder,
// transport frames and the k-core step. A budgeted table reading its
// lists from a snapshot file and a checkpoint log's append, flush and
// replay cover the page and checkpoint sites. Not reached: the
// coordinator's recovery spans (src/net/coordinator.cc), which need a
// dead rank, the engine's steal flow (src/gthinker/engine.cc), which
// needs a steal, and the CLIs' thread names (tools/).
TEST_F(TraceTest, DisabledEmitIsFreeAndRecordsNothing) {
  EXPECT_FALSE(trace::Enabled());
  g_clock_reads = 0;
  trace::SetClockForTest(&CountingClock);
  const uint16_t id = trace::InternName("disabled_site");
  trace::EmitInstant(id, trace::kPull, 1);
  trace::EmitCounter(id, trace::kStats, 2);
  { QCM_TRACE_SPAN(trace::kNet, "disabled_span", 3); }

  const Graph g = std::move(GenPlantedCommunities(
                                {.num_vertices = 250,
                                 .background_edges = 500,
                                 .background = BackgroundModel::kErdosRenyi,
                                 .num_communities = 6,
                                 .community_min = 8,
                                 .community_max = 12,
                                 .intra_density = 0.92,
                                 .overlap_fraction = 0.3,
                                 .seed = 99}))
                      .value();
  EngineConfig config;
  config.mining.gamma = 0.85;
  config.mining.min_size = 6;
  config.num_machines = 2;
  config.threads_per_machine = 2;
  config.mode = DecomposeMode::kTimeDelayed;
  config.tau_time = 0;  // every task decomposes at once ...
  config.local_queue_capacity = 2;  // ... and its subtasks spill
  config.batch_size = 2;
  config.mining.dense_threshold = 16;  // both kernel paths
  const auto mined = ParallelMiner(config).Run(g);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  EXPECT_GT(mined->report.mining.dense_tasks, 0u);
  EXPECT_GT(mined->report.mining.sparse_tasks, 0u);
  EXPECT_GT(mined->report.counters.spilled_tasks, 0u);
  EXPECT_GT(mined->report.counters.pulled_vertices, 0u);

  const std::string snapshot_path =
      testing::TempDir() + "/trace_off_" + std::to_string(::getpid()) +
      ".qcsr";
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, snapshot_path).ok());
  {
    auto snapshot = CsrSnapshot::Open(snapshot_path);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    const VertexTable budgeted(*snapshot, 2, /*rank=*/0,
                               /*graph_memory_budget=*/4096);
    for (VertexId v : budgeted.OwnedVertices()) budgeted.Adjacency(v);
    EngineCountersSnapshot counters;
    budgeted.AddGraphCounters(&counters);
    EXPECT_GT(counters.graph_page_ins, 0u);
  }
  std::remove(snapshot_path.c_str());

  const std::string ckpt_dir =
      testing::TempDir() + "/trace_off_ckpt_" + std::to_string(::getpid());
  {
    CheckpointLog log;
    ASSERT_TRUE(log.Open(ckpt_dir, /*epoch=*/0, /*flush_interval_sec=*/0,
                         nullptr)
                    .ok());
    log.AppendResult({1, 2, 3});
    log.Flush();
  }
  CheckpointLog::LoadResult replay;
  {
    CheckpointLog log;
    ASSERT_TRUE(log.Open(ckpt_dir, /*epoch=*/1, 0, &replay).ok());
  }
  EXPECT_EQ(replay.results, (std::vector<VertexSet>{{1, 2, 3}}));
  std::filesystem::remove_all(ckpt_dir);

  EXPECT_EQ(g_clock_reads.load(), 0u);
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
  const StatusOr<size_t> events =
      trace::MergeFragments({frag0, frag1, missing}, "", extra, out);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  EXPECT_EQ(events.value(), 4u);

  const std::string merged = ReadFile(out);
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
  EXPECT_FALSE(trace::MergeFragments({}, "", extra, out).ok());
  EXPECT_FALSE(trace::MergeFragments({}, extra[0] + "\n", {}, out).ok());
}

// Both CLIs hand MergeFragments their own DrainJsonLines output whole: it
// splits the drain into events exactly as it splits a fragment file, and
// places each by its ts among the other lines.
TEST_F(TraceTest, MergeFragmentsTakesThisProcesssDrain) {
  trace::SetClockForTest(&FakeClock);
  g_fake_now = 400;
  trace::Start(/*ring_kb=*/4);
  trace::SetThreadName("launcher");
  trace::EmitInstant(trace::InternName("local_event"), trace::kNet, 7);
  const std::string drained = trace::DrainJsonLines(/*pid=*/3);
  ASSERT_EQ(CountOccurrences(drained, "\n"), 2u) << drained;

  const std::string out = ::testing::TempDir() + "/trace_merge_local.json";
  const std::vector<std::string> extra = {
      "{\"name\":\"late\",\"cat\":\"stats\",\"ph\":\"C\",\"ts\":500,"
      "\"pid\":0,\"tid\":0,\"args\":{\"value\":1}}",
  };
  const StatusOr<size_t> events =
      trace::MergeFragments({}, drained, extra, out);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  EXPECT_EQ(events.value(), 3u);
  const std::string merged = ReadFile(out);
  const size_t name = merged.find("\"name\":\"launcher\"");
  const size_t local = merged.find("\"name\":\"local_event\"");
  const size_t late = merged.find("\"name\":\"late\"");
  ASSERT_NE(name, std::string::npos) << merged;
  ASSERT_NE(local, std::string::npos) << merged;
  ASSERT_NE(late, std::string::npos) << merged;
  EXPECT_LT(name, local);
  EXPECT_LT(local, late);
  EXPECT_NE(merged.find("\"ts\":400,\"pid\":3"), std::string::npos)
      << merged;
  ::remove(out.c_str());
}

// ---------------------------------------------------------------------------
// End-to-end: the shipped binaries, tracing on vs off.

constexpr char kGraphSpec[] = "n=800,communities=4,size=8..11,density=0.95";
constexpr char kMiningFlags[] = "--gamma 0.85 --min-size 7 --seed 5";

TEST(TraceE2ETest, SingleProcessDigestUnchangedByTracing) {
  const std::string dir = ::testing::TempDir();
  const std::string trace_path = dir + "/qcm_mine_trace.json";
  const std::string mine = std::string("--gen-planted ") + kGraphSpec + " " +
                           kMiningFlags + " --machines 2 --threads 2";
  const RunResult off =
      RunTool("qcm_mine", mine + " --output " + dir + "/mine_off.txt");
  ASSERT_EQ(off.exit_code, 0) << off.output;
  const RunResult on = RunTool(
      "qcm_mine", mine + " --output " + dir + "/mine_on.txt --trace-out " +
                      trace_path + " --stats-interval-ms 20");
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

// A file input shows the load's four steps on the timeline, then the
// engine launcher's two k-core steps.
TEST(TraceE2ETest, FileInputTimelineShowsTheLoadSteps) {
  const std::string dir = ::testing::TempDir();
  const std::string input = dir + "/trace_input.txt";
  const std::string trace_path = dir + "/qcm_mine_load_trace.json";
  auto spec = ParsePlantedSpec(kGraphSpec, 5);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto graph = GenPlantedCommunities(*spec);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  ASSERT_TRUE(SaveEdgeList(*graph, input).ok());
  const RunResult r = RunTool(
      "qcm_mine", "--input " + input + " " + kMiningFlags +
                      " --machines 2 --threads 1 --trace-out " + trace_path);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const std::string trace = ReadFile(trace_path);
  for (const char* step : {"edge_read", "edge_ids", "edge_prefilter",
                           "csr_build", "kcore_compact", "kcore_order"}) {
    EXPECT_EQ(CountOccurrences(trace, "\"name\":\"" + std::string(step) +
                                          "\",\"cat\":\"lifecycle\""),
              1u)
        << step << " span missing or repeated:\n" << trace.substr(0, 2000);
  }
  // The prefilter's argument is its pass count: at least one.
  const size_t prefilter = trace.find("\"name\":\"edge_prefilter\"");
  ASSERT_NE(prefilter, std::string::npos);
  const std::string arg_key = "\"args\":{\"a\":";
  const size_t arg = trace.find(arg_key, prefilter);
  ASSERT_NE(arg, std::string::npos);
  EXPECT_GE(std::atoi(trace.c_str() + arg + arg_key.size()), 1);
  ::remove(trace_path.c_str());
}

class TraceClusterE2ETest : public ::testing::TestWithParam<NetModel> {};

TEST_P(TraceClusterE2ETest,
       ThreeProcessClusterMergesOneTimelineDigestUnchanged) {
  const std::string dir = ::testing::TempDir();
  const std::string name = GetParam().name;
  // The merged trace stays after the run: CI uploads the instant one.
  const std::string trace_path = dir + "/trace_e2e_" + name + ".json";
  const std::string log_dir = dir + "/trace_e2e_" + name + "_logs";
  const std::string base = std::string("--gen-planted ") + kGraphSpec +
                           " " + kMiningFlags +
                           " --workers 3 --threads 2 --log-dir " + log_dir +
                           GetParam().flags;
  const RunResult off =
      RunTool("qcm_cluster", base + " --output " + dir + "/cluster_off.txt");
  ASSERT_EQ(off.exit_code, 0) << off.output;
  const RunResult on =
      RunTool("qcm_cluster", base + " --output " + dir +
                                 "/cluster_on.txt --trace-out " + trace_path +
                                 " --stats-interval-ms 50");
  ASSERT_EQ(on.exit_code, 0) << on.output;
  // No worker outlived its launcher.
  EXPECT_EQ(ProcessesHoldingFilesUnder(log_dir), std::vector<std::string>{});

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
  // The ranks' events are interleaved in time order.
  long long last_ts = -1;
  for (size_t at = trace.find("\"ts\":"); at != std::string::npos;
       at = trace.find("\"ts\":", at + 1)) {
    const long long ts = std::atoll(trace.c_str() + at + 5);
    ASSERT_GE(ts, last_ts) << "timestamps step back at byte " << at;
    last_ts = ts;
  }
  // The per-rank fragments were stitched in and cleaned up.
  for (int r = 0; r < 3; ++r) {
    const std::string frag =
        trace_path + ".rank" + std::to_string(r) + ".jsonl";
    EXPECT_NE(::access(frag.c_str(), F_OK), 0)
        << frag << " left behind after merge";
  }
}

INSTANTIATE_TEST_SUITE_P(Net, TraceClusterE2ETest,
                         ::testing::ValuesIn(kNetModels), NetModelName);

}  // namespace
}  // namespace qcm
