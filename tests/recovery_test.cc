// Fault-tolerance tests: the checkpoint log's on-disk format (byte-
// pinned like the wire protocol -- a replacement worker of a NEWER build
// may replay a log written by an older one mid-rolling-restart) and a
// seeded mutation loop over its replay parser (seed logs in
// tests/corpus/checkpoint/), replay semantics across incarnation epochs
// and crash phases, root-progress taint rules, the coordinator's
// liveness-deadline bookkeeping, the duplicate suppression that makes
// double-mined results harmless, a survivor dropping a dead rank's pull
// requests queued at its responder and mining the steal batches it had
// shipped there, and the end-to-end acceptance bar: a 3-process cluster
// with one worker SIGKILLed mid-mining finishes with a digest
// bit-identical to a crash-free run, its replacement logging under its
// own rank.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cli_run.h"
#include "graph/csr_snapshot.h"
#include "gthinker/checkpoint.h"
#include "gthinker/engine.h"
#include "gthinker/task_queue.h"
#include "net/coordinator.h"
#include "quick/maximality_filter.h"
#include "util/rng.h"
#include "util/serde.h"
#include "util/timer.h"

#ifndef QCM_CORPUS_DIR
#define QCM_CORPUS_DIR "tests/corpus"
#endif

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

/// A record's [type u8][len u32] header and its fnv64 trailer.
constexpr size_t kRecordHeader = 5;
constexpr size_t kRecordTrailer = 8;

/// The committed seed logs, in file-name order: each rank's checkpoint
/// log from a 3-rank qcm_cluster run, both record types in each.
std::vector<std::string> CheckpointSeeds() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(QCM_CORPUS_DIR) + "/checkpoint")) {
    paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> seeds;
  for (const auto& path : paths) seeds.push_back(ReadFile(path.string()));
  return seeds;
}

/// The type of the record at `pos` of `log` if its header and checksum
/// hold, so that ParseRecords hands its payload to that type's decoder;
/// 0 otherwise.
uint8_t FramedRecordAt(const std::string& log, size_t pos) {
  if (log.size() - pos < kRecordHeader + kRecordTrailer) return 0;
  const uint8_t type = static_cast<uint8_t>(log[pos]);
  uint32_t len = 0;
  std::memcpy(&len, log.data() + pos + 1, sizeof(len));
  if (type != 1 && type != 2) return 0;
  if (log.size() - pos < kRecordHeader + uint64_t{len} + kRecordTrailer) {
    return 0;
  }
  uint64_t sum = 0;
  std::memcpy(&sum, log.data() + pos + kRecordHeader + len, sizeof(sum));
  return sum == Fingerprint(log.data() + pos + kRecordHeader, len) ? type : 0;
}

/// Rewrites the checksum of every record whose length still fits, walking
/// the records as ParseRecords frames them, so a mutated payload reaches
/// its record decoder.
void ResealRecords(std::string* log) {
  for (size_t pos = 0; log->size() - pos >= kRecordHeader + kRecordTrailer;) {
    uint32_t len = 0;
    std::memcpy(&len, log->data() + pos + 1, sizeof(len));
    if (log->size() - pos < kRecordHeader + uint64_t{len} + kRecordTrailer) {
      return;
    }
    const uint64_t sum = Fingerprint(log->data() + pos + kRecordHeader, len);
    std::memcpy(log->data() + pos + kRecordHeader + len, &sum, sizeof(sum));
    pos += kRecordHeader + len + kRecordTrailer;
  }
}

// A replacement replays whatever its predecessor left on disk, torn or
// corrupt. Seeded mutations of the seed logs -- flipped bits, overwritten
// bytes, cut tails and appended bytes, a quarter of them with every
// record's checksum re-sealed -- must never crash the parser, and what it
// keeps must be a clean prefix: re-parsing the first size - torn_bytes
// bytes gives the same results and roots with no torn bytes. Both record
// decoders must be reached, and must reject payloads, many times.
TEST(CheckpointRecordTest, ParseSurvivesMutations) {
  const std::vector<std::string> seeds = CheckpointSeeds();
  ASSERT_EQ(seeds.size(), 3u) << "corpus missing under " << QCM_CORPUS_DIR;
  for (const std::string& seed : seeds) {
    CheckpointLog::LoadResult parsed;
    CheckpointLog::ParseRecords(seed, &parsed);
    EXPECT_EQ(parsed.torn_bytes, 0u);
    EXPECT_GT(parsed.results.size(), 0u);
    EXPECT_GT(parsed.records, parsed.results.size());  // root-done records
  }

  Rng rng(20261020);
  // Index = record type: 1 result, 2 root-done.
  int reached[3] = {0, 0, 0};
  int rejected[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) {
    std::string m = seeds[rng.Uniform(seeds.size())];
    const int edits = 1 + static_cast<int>(rng.Uniform(3));
    for (int e = 0; e < edits && !m.empty(); ++e) {
      const size_t pos = rng.Uniform(m.size());
      switch (rng.Uniform(4)) {
        case 0:
          m[pos] = static_cast<char>(m[pos] ^ (1 << rng.Uniform(8)));
          break;
        case 1:
          m[pos] = static_cast<char>(rng.Next());
          break;
        case 2:
          m.resize(pos);
          break;
        default:
          for (uint64_t n = 1 + rng.Uniform(16); n > 0; --n) {
            m.push_back(static_cast<char>(rng.Next()));
          }
      }
    }
    if (rng.Uniform(4) == 0) ResealRecords(&m);

    CheckpointLog::LoadResult out;
    CheckpointLog::ParseRecords(m, &out);
    ASSERT_LE(out.torn_bytes, m.size()) << "mutation " << i;
    const size_t kept = m.size() - out.torn_bytes;
    CheckpointLog::LoadResult again;
    CheckpointLog::ParseRecords(m.substr(0, kept), &again);
    ASSERT_EQ(again.torn_bytes, 0u) << "mutation " << i;
    ASSERT_EQ(again.records, out.records) << "mutation " << i;
    ASSERT_EQ(again.results, out.results) << "mutation " << i;
    ASSERT_EQ(again.completed_roots, out.completed_roots) << "mutation " << i;

    reached[1] += static_cast<int>(out.results.size());
    reached[2] += static_cast<int>(out.records - out.results.size());
    // A record that passes its framing where the parse stopped was
    // rejected by its own decoder.
    if (const uint8_t type = FramedRecordAt(m, kept); type != 0) {
      ++reached[type];
      ++rejected[type];
    }
  }
  EXPECT_GT(reached[1], 50000);
  EXPECT_GT(reached[2], 100000);
  EXPECT_GT(rejected[1], 200);
  EXPECT_GT(rejected[2], 50);
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
    std::lock_guard<std::mutex> lock(mu_);
    if (type == static_cast<uint8_t>(MessageType::kPullResponse)) {
      std::vector<VertexId> ids;  // a response opens with the ids it answers
      Decoder dec(payload);
      EXPECT_TRUE(dec.GetU32Vector(&ids).ok());
      answered_.push_back(std::move(ids));
    } else if (type == static_cast<uint8_t>(MessageType::kStealBatch)) {
      shipped_.push_back(std::move(payload));
    }
    return Status::OK();
  }
  bool PeerAlive(int peer) const override {
    return peer != 1 || !peer_down_.load();
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
  void PeerDown() {
    peer_down_.store(true);
    hooks_.on_peer_down(1);
  }
  void StealTo(int receiver, uint64_t want) {
    hooks_.on_steal_command(receiver, want);
  }
  void Terminate() { hooks_.on_terminate(); }
  /// The ids of each pull response sent, in send order.
  std::vector<std::vector<VertexId>> answered() const {
    std::lock_guard<std::mutex> lock(mu_);
    return answered_;
  }
  /// processed_from[1] in the engine's latest status.
  uint64_t processed_from_peer() const {
    std::lock_guard<std::mutex> lock(mu_);
    return processed_from_peer_;
  }
  /// The payload of each steal batch sent, in send order.
  std::vector<std::string> shipped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return shipped_;
  }

 private:
  DataHandler handler_;
  ControlHooks hooks_;
  std::promise<void> started_;
  std::atomic<bool> peer_down_{false};
  mutable std::mutex mu_;
  std::vector<std::vector<VertexId>> answered_;
  std::vector<std::string> shipped_;
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
  config.spill_dir = ::testing::TempDir();
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

  // The replacement's request is answered, and counts as processed once
  // its response was sent. The responder serves due requests in enqueue
  // order, so had either dead request survived, it would have been
  // answered first.
  transport.RequestFromPeer({0});
  WallTimer waited;
  while ((transport.answered().empty() ||
          transport.processed_from_peer() < 1) &&
         waited.Seconds() < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(transport.answered(), (std::vector<std::vector<VertexId>>{{0}}));
  EXPECT_EQ(transport.processed_from_peer(), 1u);

  transport.Terminate();
  runner.join();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->counters.pulled_vertices, 1u);
  std::remove(snapshot_path.c_str());
}

// ---------------------------------------------------------------------------
// Steal batches and rank death: a batch shipped to a rank that then dies,
// and one whose receiver is already dead when the steal command arrives,
// both come back through the task-batch codec to the front of this rank's
// global queue, and every task in them is mined here exactly once.
// ---------------------------------------------------------------------------

/// FanOutApp's task: the root, or one of its numbered big leaves.
class FanTask : public Task {
 public:
  FanTask(VertexId root, int leaf) : root_(root), leaf_(leaf) {}
  VertexId root() const override { return root_; }
  uint64_t SizeHint() const override { return leaf_ < 0 ? 0 : 1000; }
  void Encode(Encoder* enc) const override {
    enc->PutU32(root_);
    enc->PutU32(static_cast<uint32_t>(leaf_));
  }
  int leaf() const { return leaf_; }

 private:
  VertexId root_;
  int leaf_;  // -1 for the root
};

/// Spawns one root, whose round adds kLeaves big leaves to the global
/// queue; each leaf holds its comper until the gate opens.
class FanOutApp : public App {
 public:
  static constexpr int kLeaves = 6;

  TaskPtr Spawn(VertexId v, ComputeContext&) override {
    if (spawned_.exchange(true)) return nullptr;
    return std::make_unique<FanTask>(v, -1);
  }
  ComputeStatus Compute(Task& task, ComputeContext& ctx) override {
    const auto& t = static_cast<const FanTask&>(task);
    if (t.leaf() < 0) {
      for (int i = 0; i < kLeaves; ++i) {
        ctx.AddTask(std::make_unique<FanTask>(t.root(), i));
      }
      return ComputeStatus::kDone;
    }
    started_.fetch_add(1);
    WallTimer waited;
    while (!gate_.load() && waited.Seconds() < 10.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::lock_guard<std::mutex> lock(mu_);
    mined_.push_back(t.leaf());
    return ComputeStatus::kDone;
  }
  StatusOr<TaskPtr> DecodeTask(Decoder* dec) const override {
    uint32_t root = 0;
    uint32_t leaf = 0;
    QCM_RETURN_IF_ERROR(dec->GetU32(&root));
    QCM_RETURN_IF_ERROR(dec->GetU32(&leaf));
    return TaskPtr(std::make_unique<FanTask>(root, static_cast<int>(leaf)));
  }

  int started() const { return started_.load(); }
  void OpenGate() { gate_.store(true); }
  std::vector<int> mined() const {
    std::lock_guard<std::mutex> lock(mu_);
    return mined_;
  }

 private:
  std::atomic<bool> spawned_{false};
  std::atomic<bool> gate_{false};
  std::atomic<int> started_{0};
  mutable std::mutex mu_;
  std::vector<int> mined_;
};

TEST(StealRecoveryTest, BatchesShippedToADeadRankAreMinedHere) {
  auto graph = Graph::FromEdges(4, {{0, 1}, {0, 2}, {1, 2}, {2, 3}});
  ASSERT_TRUE(graph.ok());
  EngineConfig config;
  config.num_machines = 2;
  config.threads_per_machine = 1;
  config.mining.gamma = 0.9;  // unused by the app but must validate
  config.mining.min_size = 2;
  config.spill_dir = ::testing::TempDir();
  ScriptedPeerTransport transport;
  FanOutApp app;
  Engine engine(std::make_unique<VertexTable>(&graph.value(), 2, /*rank=*/0),
                config, &app, &transport);
  StatusOr<EngineReport> report = Status::Aborted("engine did not run");
  std::thread runner([&] { report = engine.Run(); });
  transport.AwaitStart();

  // The comper holds leaf 0 at the gate; leaves 1-5 wait in the global
  // queue.
  WallTimer waited;
  while (app.started() == 0 && waited.Seconds() < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(app.started(), 1);
  transport.StealTo(1, 3);  // ships the tail: leaves 5, 4, 3
  transport.PeerDown();     // ... and rank 1 dies with them
  transport.StealTo(1, 1);  // leaf 2 finds its receiver already dead
  app.OpenGate();
  while (app.mined().size() < FanOutApp::kLeaves && waited.Seconds() < 20.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  transport.Terminate();
  runner.join();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Both batches went back to the front of the queue, newest first.
  EXPECT_EQ(app.mined(), (std::vector<int>{0, 2, 5, 4, 3, 1}));
  const std::vector<std::string> shipped = transport.shipped();
  ASSERT_EQ(shipped.size(), 1u);
  auto count = TaskBatchCount(shipped[0]);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 3u);
  const EngineCountersSnapshot& c = report->counters;
  EXPECT_EQ(c.stolen_tasks, 3u);
  EXPECT_EQ(c.replayed_tasks, 4u);
  EXPECT_EQ(c.tasks_completed, 1u + FanOutApp::kLeaves);
}

// ---------------------------------------------------------------------------
// End to end: SIGKILL one worker of a real 3-process cluster mid-mining;
// the recovered run's digest must be bit-identical to a crash-free run.
// ---------------------------------------------------------------------------

class RecoveryE2ETest : public ::testing::TestWithParam<NetModel> {};

TEST_P(RecoveryE2ETest, KilledWorkerRunMatchesCrashFreeDigest) {
  const std::string name = GetParam().name;
  const std::string json_path =
      ::testing::TempDir() + "/qcm_recovery_" + name + ".json";
  const std::string log_dir =
      ::testing::TempDir() + "/recovery_e2e_" + name + "_logs";
  const std::string common =
      "--gen-planted n=1500,communities=5,size=9..13,density=0.95 "
      "--gamma 0.85 --min-size 8 --seed 3 --workers 3 --threads 2 "
      "--checkpoint-interval 0.05 --log-dir " +
      log_dir + GetParam().flags;

  const RunResult baseline = RunTool("qcm_cluster", common);
  ASSERT_EQ(baseline.exit_code, 0) << baseline.output;
  const std::string baseline_digest = Digest(baseline.output);
  ASSERT_EQ(baseline_digest.size(), 16u) << baseline.output;

  const RunResult injected =
      RunTool("qcm_cluster", common + " --stats-json " + json_path,
              "QCM_SMOKE_KILL_RANK=1");
  ASSERT_EQ(injected.exit_code, 0) << injected.output;
  // The injection must have actually fired and been recovered from --
  // a run where the kill silently no-ops would vacuously "pass".
  EXPECT_NE(injected.output.find("fault injection: SIGKILL rank 1"),
            std::string::npos)
      << injected.output;
  EXPECT_NE(injected.output.find("rank 1 recovered: epoch 1"),
            std::string::npos)
      << injected.output;
  // The replacement logs under its rank and epoch, and the launcher's
  // relaunch line names that file.
  const std::string replacement_log = log_dir + "/worker1.r1.log";
  EXPECT_NE(ReadFile(replacement_log).find("qcm_worker rank 1/3 epoch 1"),
            std::string::npos)
      << ReadFile(replacement_log);
  const size_t relaunched = injected.output.find("relaunched rank 1 ");
  ASSERT_NE(relaunched, std::string::npos) << injected.output;
  EXPECT_NE(injected.output
                .substr(relaunched,
                        injected.output.find('\n', relaunched) - relaunched)
                .find("log " + replacement_log + ")"),
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
  // A killed worker's control connection closes: the coordinator's
  // receiver sees it at once, long before the 5 s status deadline.
  EXPECT_NE(json.find("\"method\": \"disconnect\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"detection_latency_usec\""), std::string::npos)
      << json;
  std::remove(json_path.c_str());

  // The killed incarnation never removed its spill files; the launcher
  // removes the job's spill dir. And no incarnation outlived it.
  const std::string spill_dir = PrintedDir(injected.output, "spill in ");
  ASSERT_FALSE(spill_dir.empty()) << injected.output;
  EXPECT_FALSE(std::filesystem::exists(spill_dir)) << spill_dir << " was left";
  EXPECT_EQ(ProcessesHoldingFilesUnder(log_dir), std::vector<std::string>{});
}

INSTANTIATE_TEST_SUITE_P(Net, RecoveryE2ETest, ::testing::ValuesIn(kNetModels),
                         NetModelName);

}  // namespace
}  // namespace qcm
