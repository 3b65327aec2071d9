// Fault-tolerance tests: the checkpoint log's on-disk format (byte-
// pinned like the wire protocol -- a replacement worker of a NEWER build
// may replay a log written by an older one mid-rolling-restart), replay
// semantics across incarnation epochs and crash phases, root-progress
// taint rules, the coordinator's liveness-deadline bookkeeping, the
// duplicate suppression that makes double-mined results harmless, a
// survivor dropping a dead rank's pull requests queued at its responder,
// and the end-to-end acceptance bar: a 3-process cluster with one worker
// SIGKILLed mid-mining finishes with a digest bit-identical to a
// crash-free run.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/csr_snapshot.h"
#include "gthinker/checkpoint.h"
#include "gthinker/engine.h"
#include "net/coordinator.h"
#include "quick/maximality_filter.h"
#include "util/serde.h"
#include "util/timer.h"

namespace qcm {
namespace {

std::string Hex(const std::string& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

std::string TempCkptDir(const char* tag) {
  std::string dir = ::testing::TempDir() + "/qcm_recovery_" + tag;
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// Checkpoint record codec: byte-pinned on-disk format.
// ---------------------------------------------------------------------------

TEST(CheckpointRecordTest, ResultRecordExactBytes) {
  const std::string record =
      CheckpointLog::EncodeResultRecord(VertexSet{1, 2, 3});
  // [type u8 = 1][len u32 LE = 20][payload][fnv64(payload) LE] where the
  // payload is a U32Vector: [count u64 LE][ids u32 LE each].
  const std::string payload = record.substr(5, 20);
  EXPECT_EQ(Hex(record.substr(0, 5)),
            "01"          // kResultRecord
            "14000000");  // payload length 20
  EXPECT_EQ(Hex(payload),
            "0300000000000000"  // 3 vertices
            "01000000"
            "02000000"
            "03000000");
  Encoder trailer;
  trailer.PutU64(Fingerprint(payload));
  EXPECT_EQ(Hex(record.substr(25)), Hex(trailer.buffer()));
  EXPECT_EQ(record.size(), 5u + 20u + 8u);
}

TEST(CheckpointRecordTest, RootDoneRecordExactBytes) {
  const std::string record = CheckpointLog::EncodeRootDoneRecord(11);
  const std::string payload = record.substr(5, 4);
  EXPECT_EQ(Hex(record.substr(0, 5)),
            "02"          // kRootDoneRecord
            "04000000");  // payload length 4
  EXPECT_EQ(Hex(payload), "0b000000");
  Encoder trailer;
  trailer.PutU64(Fingerprint(payload));
  EXPECT_EQ(Hex(record.substr(9)), Hex(trailer.buffer()));
}

TEST(CheckpointRecordTest, ParseRecoversPrefixAndDropsTornTail) {
  std::string log;
  log += CheckpointLog::EncodeResultRecord({1, 2});
  log += CheckpointLog::EncodeRootDoneRecord(7);
  log += CheckpointLog::EncodeResultRecord({3, 4, 5});

  CheckpointLog::LoadResult all;
  CheckpointLog::ParseRecords(log, &all);
  EXPECT_EQ(all.records, 3u);
  EXPECT_EQ(all.torn_bytes, 0u);
  ASSERT_EQ(all.results.size(), 2u);
  EXPECT_EQ(all.results[0], (VertexSet{1, 2}));
  EXPECT_EQ(all.results[1], (VertexSet{3, 4, 5}));
  EXPECT_EQ(all.completed_roots.count(7), 1u);

  // A flush cut mid-record (the SIGKILL case) loses exactly the torn
  // tail; every intact record before it survives.
  const std::string torn = log.substr(0, log.size() - 5);
  CheckpointLog::LoadResult partial;
  CheckpointLog::ParseRecords(torn, &partial);
  EXPECT_EQ(partial.records, 2u);
  EXPECT_GT(partial.torn_bytes, 0u);
  EXPECT_EQ(partial.results.size(), 1u);
  EXPECT_EQ(partial.completed_roots.count(7), 1u);

  // A corrupted byte inside a record kills that record and everything
  // after it (appends are one in-order stream, so nothing after a bad
  // record can be trusted) -- never a crash or a phantom record.
  std::string corrupt = log;
  corrupt[7] ^= 0x40;  // inside the first record's payload
  CheckpointLog::LoadResult none;
  CheckpointLog::ParseRecords(corrupt, &none);
  EXPECT_EQ(none.records, 0u);
  EXPECT_EQ(none.torn_bytes, corrupt.size());
}

// ---------------------------------------------------------------------------
// CheckpointLog: replay across incarnation epochs.
// ---------------------------------------------------------------------------

TEST(CheckpointLogTest, ReplaysPreviousIncarnationAndAppends) {
  const std::string dir = TempCkptDir("epochs");

  // Epoch 0: first incarnation writes some progress and "crashes"
  // (destructor closes the file; SIGKILL would leave the same bytes
  // modulo the unflushed stdio tail, which Flush() models away).
  {
    CheckpointLog log;
    CheckpointLog::LoadResult unused;
    ASSERT_TRUE(log.Open(dir, 0, 1e6, &unused).ok());
    log.AppendResult({1, 2, 3});
    log.AppendRootDone(1);
    log.AppendResult({4, 5});
    log.Flush();
    EXPECT_GT(log.bytes_appended(), 0u);
    EXPECT_GE(log.flushes(), 1u);
  }

  // Epoch 1: the replacement replays everything, then appends more.
  {
    CheckpointLog log;
    CheckpointLog::LoadResult replay;
    ASSERT_TRUE(log.Open(dir, 1, 1e6, &replay).ok());
    EXPECT_EQ(replay.records, 3u);
    EXPECT_EQ(replay.torn_bytes, 0u);
    ASSERT_EQ(replay.results.size(), 2u);
    EXPECT_EQ(replay.results[0], (VertexSet{1, 2, 3}));
    EXPECT_EQ(replay.completed_roots.count(1), 1u);
    log.AppendRootDone(4);
    log.Flush();
  }

  // Epoch 2: both incarnations' records are visible.
  {
    CheckpointLog log;
    CheckpointLog::LoadResult replay;
    ASSERT_TRUE(log.Open(dir, 2, 1e6, &replay).ok());
    EXPECT_EQ(replay.records, 4u);
    EXPECT_EQ(replay.completed_roots.count(4), 1u);
  }

  // Epoch 0 again (a NEW run reusing the directory): stale state must
  // not leak in.
  {
    CheckpointLog log;
    CheckpointLog::LoadResult replay;
    ASSERT_TRUE(log.Open(dir, 0, 1e6, &replay).ok());
    EXPECT_EQ(replay.records, 0u);
    log.Flush();
  }
}

TEST(CheckpointLogTest, TornTailOnDiskIsTruncatedBeforeAppending) {
  const std::string dir = TempCkptDir("torn");
  {
    CheckpointLog log;
    CheckpointLog::LoadResult unused;
    ASSERT_TRUE(log.Open(dir, 0, 1e6, &unused).ok());
    log.AppendResult({1, 2});
    log.Flush();
  }
  // Simulate a SIGKILL mid-flush: append half a record to the file.
  {
    const std::string half =
        CheckpointLog::EncodeResultRecord({9, 9, 9}).substr(0, 10);
    std::FILE* f = std::fopen((dir + "/log").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fwrite(half.data(), 1, half.size(), f);
    std::fclose(f);
  }
  // The replacement drops the torn tail on disk, so ITS appends start at
  // a record boundary and a third incarnation sees a clean log.
  {
    CheckpointLog log;
    CheckpointLog::LoadResult replay;
    ASSERT_TRUE(log.Open(dir, 1, 1e6, &replay).ok());
    EXPECT_EQ(replay.records, 1u);
    EXPECT_GT(replay.torn_bytes, 0u);
    log.AppendRootDone(1);
    log.Flush();
  }
  {
    CheckpointLog log;
    CheckpointLog::LoadResult replay;
    ASSERT_TRUE(log.Open(dir, 2, 1e6, &replay).ok());
    EXPECT_EQ(replay.records, 2u);
    EXPECT_EQ(replay.torn_bytes, 0u);
  }
}

// Crash-phase matrix: what a replacement recovers depends only on which
// records became durable before the kill. Constructed logs pin the three
// interesting phases; in every one correctness only needs the invariant
// "re-mine everything not proven done" (duplicates are deduped later).
TEST(CheckpointLogTest, CrashPhaseMatrix) {
  struct Phase {
    const char* name;
    std::vector<VertexSet> durable_results;
    std::vector<VertexId> durable_root_dones;
  };
  const std::vector<Phase> phases = {
      // Killed during spawn, before any flush: replay is empty, the
      // replacement re-mines its whole partition.
      {"spawn", {}, {}},
      // Killed mid-mining: some results durable, their roots not yet
      // done (e.g. subtree still outstanding or batch cut by the flush
      // interval) -- roots re-mined, durable results deduped later.
      {"steal", {{1, 2, 3}, {2, 3, 4}}, {}},
      // Killed in the drain: everything durable; replay alone
      // reconstructs the rank's full contribution.
      {"drain", {{1, 2, 3}, {2, 3, 4}}, {1, 2}},
  };
  for (const Phase& phase : phases) {
    std::string log;
    for (const VertexSet& r : phase.durable_results) {
      log += CheckpointLog::EncodeResultRecord(r);
    }
    for (VertexId root : phase.durable_root_dones) {
      log += CheckpointLog::EncodeRootDoneRecord(root);
    }
    CheckpointLog::LoadResult replay;
    CheckpointLog::ParseRecords(log, &replay);
    EXPECT_EQ(replay.results.size(), phase.durable_results.size())
        << phase.name;
    EXPECT_EQ(replay.completed_roots.size(),
              phase.durable_root_dones.size())
        << phase.name;
    EXPECT_EQ(replay.torn_bytes, 0u) << phase.name;
  }
}

// ---------------------------------------------------------------------------
// RootProgress: root-done records and taint rules.
// ---------------------------------------------------------------------------

TEST(RootProgressTest, RecordsDoneRootsAndSuppressesTaintedOnes) {
  const std::string dir = TempCkptDir("roots");
  CheckpointLog log;
  CheckpointLog::LoadResult unused;
  ASSERT_TRUE(log.Open(dir, 0, 1e6, &unused).ok());
  RootProgress progress(&log);

  // Root 5: spawn + one decomposition subtask, both complete -> done.
  progress.OnSpawn(5);
  progress.OnSubtask(5);
  EXPECT_EQ(progress.tracked(), 1u);
  progress.OnTaskDone(5);
  EXPECT_EQ(progress.tracked(), 1u);  // one task still outstanding
  progress.OnTaskDone(5);
  EXPECT_EQ(progress.tracked(), 0u);

  // Root 7: a subtree task was shipped to another rank -> never done
  // here, even after every local task completes.
  progress.OnSpawn(7);
  progress.OnSubtask(7);
  progress.Taint(7);
  progress.OnTaskDone(7);
  progress.OnTaskDone(7);
  EXPECT_EQ(progress.tracked(), 0u);

  // Root 9 was never spawned locally (stolen in): every call no-ops.
  progress.OnSubtask(9);
  progress.OnTaskDone(9);
  EXPECT_EQ(progress.tracked(), 0u);

  log.Flush();
  CheckpointLog::LoadResult replay;
  CheckpointLog::ParseRecords(ReadFile(dir + "/log"), &replay);
  EXPECT_EQ(replay.completed_roots.count(5), 1u);
  EXPECT_EQ(replay.completed_roots.count(7), 0u);
  EXPECT_EQ(replay.completed_roots.count(9), 0u);
  EXPECT_EQ(replay.completed_roots.size(), 1u);
}

// ---------------------------------------------------------------------------
// LivenessTracker: the coordinator's deadline bookkeeping.
// ---------------------------------------------------------------------------

TEST(LivenessTrackerTest, DeadlineExpiryObservationAndRevival) {
  LivenessTracker tracker(3, /*deadline_sec=*/1.0);
  // Un-armed ranks never expire (bring-up has not released them yet).
  EXPECT_TRUE(tracker.Expired(100.0).empty());

  tracker.Arm(0, 0.0);
  tracker.Arm(1, 0.0);
  tracker.Arm(2, 0.0);
  EXPECT_TRUE(tracker.Expired(0.5).empty());

  // Rank 0 keeps talking; 1 and 2 go silent past the deadline.
  tracker.Observe(0, 1.0);
  EXPECT_EQ(tracker.Expired(1.5), (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(tracker.SilenceSec(1, 1.5), 1.5);
  EXPECT_DOUBLE_EQ(tracker.SilenceSec(0, 1.5), 0.5);

  // Declaring rank 1 dead removes it from the expiry scan, and a late
  // frame from the killed incarnation must not resurrect it.
  tracker.MarkDead(1);
  EXPECT_TRUE(tracker.IsDead(1));
  tracker.Observe(1, 2.0);
  EXPECT_EQ(tracker.Expired(2.0), (std::vector<int>{2}));

  // The replacement re-arms the rank with a fresh deadline.
  tracker.Arm(1, 3.0);
  EXPECT_FALSE(tracker.IsDead(1));
  tracker.MarkDead(2);
  tracker.Observe(0, 3.2);
  EXPECT_TRUE(tracker.Expired(3.5).empty());
  tracker.Observe(0, 4.0);
  EXPECT_EQ(tracker.Expired(4.5), (std::vector<int>{1}));
}

TEST(LivenessTrackerTest, DisabledDeadlineNeverExpires) {
  LivenessTracker tracker(2, /*deadline_sec=*/0.0);
  tracker.Arm(0, 0.0);
  tracker.Arm(1, 0.0);
  EXPECT_TRUE(tracker.Expired(1e9).empty());
}

// ---------------------------------------------------------------------------
// Duplicate suppression: the property the whole recovery design leans
// on -- double-mined results cannot change the final answer.
// ---------------------------------------------------------------------------

TEST(FilterMaximalTest, CountsSuppressedDuplicates) {
  std::vector<VertexSet> sets = {
      {1, 2, 3}, {4, 5}, {1, 2, 3}, {1, 2}, {4, 5}, {1, 2, 3}};
  size_t duplicates = 0;
  std::vector<VertexSet> out = FilterMaximal(std::move(sets), &duplicates);
  // Three extra copies removed ({1,2,3} x2, {4,5} x1); {1,2} is a strict
  // subset, removed by maximality, not counted as a duplicate.
  EXPECT_EQ(duplicates, 3u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (VertexSet{1, 2, 3}));
  EXPECT_EQ(out[1], (VertexSet{4, 5}));

  // A doubly-mined input (crash-free results + the same results mined
  // again by a replacement) filters to the identical digest.
  std::vector<VertexSet> once = {{1, 2, 3}, {4, 5}};
  std::vector<VertexSet> twice = once;
  twice.insert(twice.end(), once.begin(), once.end());
  std::vector<VertexSet> a = FilterMaximal(std::move(once));
  std::vector<VertexSet> b = FilterMaximal(std::move(twice));
  EXPECT_EQ(ResultSetDigest(a), ResultSetDigest(b));
}

// ---------------------------------------------------------------------------
// A survivor's pull responder when the requesting rank dies: requests of
// the dead incarnation still queued there are dropped before the pair's
// processed counter resets, so no late answer counts a frame the
// replacement never sent (which would keep termination from ever being
// declared).
// ---------------------------------------------------------------------------

/// Rank 0 of a 2-rank cluster whose peer, rank 1, is played by the test:
/// it injects rank 1's data frames and fires its peer events by hand.
class ScriptedPeerTransport : public Transport {
 public:
  int rank() const override { return 0; }
  int world_size() const override { return 2; }
  void SetDataHandler(DataHandler handler) override {
    handler_ = std::move(handler);
  }
  void SetControlHooks(ControlHooks hooks) override {
    hooks_ = std::move(hooks);
  }
  Status Start() override {
    started_.set_value();
    return Status::OK();
  }
  Status SendData(int dst, uint8_t type, std::string payload) override {
    (void)dst;
    (void)payload;
    std::lock_guard<std::mutex> lock(mu_);
    if (type == static_cast<uint8_t>(MessageType::kPullResponse)) {
      ++responses_sent_;
    }
    ++frames_sent_;
    return Status::OK();
  }
  uint64_t DataFramesSent() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return frames_sent_;
  }
  void PublishStatus(const RankStatus& status) override {
    std::lock_guard<std::mutex> lock(mu_);
    processed_from_peer_ = status.processed_from.at(1);
  }

  void AwaitStart() { started_.get_future().wait(); }
  void RequestFromPeer(std::vector<VertexId> ids) {
    Encoder enc;
    enc.PutU32Vector(ids);
    handler_(1, static_cast<uint8_t>(MessageType::kPullRequest),
             enc.Release(), 0);
  }
  void PeerDown() { hooks_.on_peer_down(1); }
  void Terminate() { hooks_.on_terminate(); }
  uint64_t responses_sent() const {
    std::lock_guard<std::mutex> lock(mu_);
    return responses_sent_;
  }
  /// processed_from[1] in the engine's latest status.
  uint64_t processed_from_peer() const {
    std::lock_guard<std::mutex> lock(mu_);
    return processed_from_peer_;
  }

 private:
  DataHandler handler_;
  ControlHooks hooks_;
  std::promise<void> started_;
  mutable std::mutex mu_;
  uint64_t frames_sent_ = 0;
  uint64_t responses_sent_ = 0;
  uint64_t processed_from_peer_ = 0;
};

/// Spawns nothing: the rank only answers its peer's pulls.
class AnswerOnlyApp : public App {
 public:
  TaskPtr Spawn(VertexId, ComputeContext&) override { return nullptr; }
  ComputeStatus Compute(Task&, ComputeContext&) override {
    return ComputeStatus::kDone;
  }
  StatusOr<TaskPtr> DecodeTask(Decoder*) const override {
    return Status::InvalidArgument("AnswerOnlyApp has no tasks");
  }
};

TEST(ResponderRecoveryTest, PeerDeathDropsItsRequestsQueuedAtTheResponder) {
  auto graph = Graph::FromEdges(4, {{0, 1}, {0, 2}, {1, 2}, {2, 3}});
  ASSERT_TRUE(graph.ok());
  const std::string snapshot_path = ::testing::TempDir() +
                                    "/qcm_recovery_responder_" +
                                    std::to_string(::getpid()) + ".qcsr";
  ASSERT_TRUE(WriteCsrSnapshot(*graph, {}, snapshot_path).ok());
  auto snapshot = CsrSnapshot::Open(snapshot_path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  EngineConfig config;
  config.num_machines = 2;
  config.threads_per_machine = 1;
  config.mining.gamma = 0.9;  // unused by the app but must validate
  config.mining.min_size = 2;
  // Each request waits a full second at the responder before it is due.
  config.net_latency_sec = 1.0;
  ScriptedPeerTransport transport;
  AnswerOnlyApp app;
  Engine engine(std::make_unique<VertexTable>(*snapshot, 2, /*rank=*/0,
                                              /*graph_memory_budget=*/0),
                config, &app, &transport);
  StatusOr<EngineReport> report = Status::Aborted("engine did not run");
  std::thread runner([&] { report = engine.Run(); });
  transport.AwaitStart();

  // Rank 1's first incarnation asks for rank-0 vertices, then dies while
  // both requests still wait at the responder.
  transport.RequestFromPeer({0, 2});
  transport.RequestFromPeer({2});
  transport.PeerDown();
  // Past their due time, neither was answered or counted processed.
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  EXPECT_EQ(transport.responses_sent(), 0u);
  EXPECT_EQ(transport.processed_from_peer(), 0u);

  // The replacement's request is answered, and counts as processed once
  // its response was sent.
  transport.RequestFromPeer({0});
  WallTimer waited;
  while ((transport.responses_sent() < 1 ||
          transport.processed_from_peer() < 1) &&
         waited.Seconds() < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(transport.responses_sent(), 1u);
  EXPECT_EQ(transport.processed_from_peer(), 1u);

  transport.Terminate();
  runner.join();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->counters.pulled_vertices, 1u);
  std::remove(snapshot_path.c_str());
}

// ---------------------------------------------------------------------------
// End to end: SIGKILL one worker of a real 3-process cluster mid-mining;
// the recovered run's digest must be bit-identical to a crash-free run.
// ---------------------------------------------------------------------------

#ifndef QCM_BIN_DIR
#define QCM_BIN_DIR "."
#endif

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

std::string Digest(const std::string& output) {
  const std::string needle = "result-digest: ";
  const size_t pos = output.find(needle);
  if (pos == std::string::npos) return "";
  return output.substr(pos + needle.size(), 16);
}

TEST(RecoveryE2ETest, KilledWorkerRunMatchesCrashFreeDigest) {
  const std::string bin = QCM_BIN_DIR;
  const std::string json_path = ::testing::TempDir() + "/qcm_recovery.json";
  const std::string common =
      "/qcm_cluster --gen-planted n=1500,communities=5,size=9..13,"
      "density=0.95 --gamma 0.85 --min-size 8 --seed 3 --workers 3 "
      "--threads 2 --checkpoint-interval 0.05";

  const RunResult baseline = RunCommand(bin + common);
  ASSERT_EQ(baseline.exit_code, 0) << baseline.output;
  const std::string baseline_digest = Digest(baseline.output);
  ASSERT_EQ(baseline_digest.size(), 16u) << baseline.output;

  const RunResult injected =
      RunCommand("QCM_SMOKE_KILL_RANK=1 " + bin + common +
                 " --stats-json " + json_path);
  ASSERT_EQ(injected.exit_code, 0) << injected.output;
  // The injection must have actually fired and been recovered from --
  // a run where the kill silently no-ops would vacuously "pass".
  EXPECT_NE(injected.output.find("fault injection: SIGKILL rank 1"),
            std::string::npos)
      << injected.output;
  EXPECT_NE(injected.output.find("rank 1 recovered: epoch 1"),
            std::string::npos)
      << injected.output;

  EXPECT_EQ(Digest(injected.output), baseline_digest)
      << "crash-free:\n" << baseline.output << "\ninjected:\n"
      << injected.output;

  // Recovery observability lands in the stats JSON.
  const std::string json = ReadFile(json_path);
  EXPECT_NE(json.find("\"recovery\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"restarts\": [0, 1, 0]"), std::string::npos)
      << json;
  // Whichever detector wins the race (the RecvLoop's EOF usually beats
  // the launcher's 20 ms waitpid poll) must be named in the event.
  EXPECT_TRUE(json.find("\"method\": \"disconnect\"") != std::string::npos ||
              json.find("\"method\": \"child-exit\"") != std::string::npos)
      << json;
  EXPECT_NE(json.find("\"detection_latency_usec\""), std::string::npos)
      << json;
  std::remove(json_path.c_str());
}

}  // namespace
}  // namespace qcm
