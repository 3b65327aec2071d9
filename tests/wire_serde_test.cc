// Wire-stability tests: the payload of every CommFabric message type and
// the frame format that carries them across process boundaries are pinned
// byte-for-byte. These bytes ARE the deployment contract between
// qcm_cluster, qcm_worker, and any future remote peer -- a change that
// flips one of the asserts below is a wire-protocol break and must bump
// kWireProtocolVersion.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "gthinker/comm.h"
#include "gthinker/engine_config.h"
#include "graph/ego_builder.h"
#include "gthinker/metrics.h"
#include "mining/qc_task.h"
#include "net/job_spec.h"
#include "net/wire.h"
#include "util/rng.h"
#include "util/serde.h"

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

// ---------------------------------------------------------------------------
// kPullRequest payload: a U32Vector of wanted vertex ids.
// ---------------------------------------------------------------------------

TEST(MessagePayloadTest, PullRequestRoundTripAndExactBytes) {
  Encoder enc;
  enc.PutU32Vector({7, 260, 0xDEADBEEF});
  const std::string payload = enc.Release();

  // [count u64 LE][ids u32 LE each] -- 8 + 3*4 bytes.
  EXPECT_EQ(Hex(payload),
            "0300000000000000"   // count = 3
            "07000000"           // 7
            "04010000"           // 260
            "efbeadde");         // 0xDEADBEEF
  Decoder dec(payload);
  std::vector<uint32_t> ids;
  ASSERT_TRUE(dec.GetU32Vector(&ids).ok());
  EXPECT_EQ(ids, (std::vector<uint32_t>{7, 260, 0xDEADBEEF}));
  EXPECT_TRUE(dec.Done());
}

// ---------------------------------------------------------------------------
// kPullResponse payload: the requested ids followed by one adjacency list
// per id (PullBroker::ServeRequest / AcceptResponse framing).
// ---------------------------------------------------------------------------

TEST(MessagePayloadTest, PullResponseRoundTripAndExactBytes) {
  Encoder enc;
  enc.PutU32Vector({5, 9});
  const std::vector<uint32_t> adj5 = {1, 2};
  const std::vector<uint32_t> adj9 = {4};
  enc.PutU32Span(adj5.data(), adj5.size());
  enc.PutU32Span(adj9.data(), adj9.size());
  const std::string payload = enc.Release();

  EXPECT_EQ(Hex(payload),
            "0200000000000000"  // 2 ids
            "05000000"          // id 5
            "09000000"          // id 9
            "0200000000000000"  // |adj(5)| = 2
            "01000000"          // 1
            "02000000"          // 2
            "0100000000000000"  // |adj(9)| = 1
            "04000000");        // 4
  Decoder dec(payload);
  std::vector<uint32_t> ids, a5, a9;
  ASSERT_TRUE(dec.GetU32Vector(&ids).ok());
  ASSERT_TRUE(dec.GetU32Vector(&a5).ok());
  ASSERT_TRUE(dec.GetU32Vector(&a9).ok());
  EXPECT_EQ(ids, (std::vector<uint32_t>{5, 9}));
  EXPECT_EQ(a5, adj5);
  EXPECT_EQ(a9, adj9);
  EXPECT_TRUE(dec.Done());
}

// ---------------------------------------------------------------------------
// kStealBatch payload: task count + concatenated QCTask encodings. Tasks
// now cross process boundaries, so both the round trip and the exact
// bytes of a spawn-task encoding are pinned.
// ---------------------------------------------------------------------------

TEST(MessagePayloadTest, StealBatchRoundTrip) {
  Encoder enc;
  enc.PutU32(2);
  QCTask::MakeSpawn(11, 42)->Encode(&enc);
  QCTask::MakeSpawn(12, 7)->Encode(&enc);
  const std::string payload = enc.Release();

  auto count = StealBatchTaskCount(payload);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 2u);

  Decoder dec(payload);
  uint32_t n = 0;
  ASSERT_TRUE(dec.GetU32(&n).ok());
  ASSERT_EQ(n, 2u);
  auto t1 = QCTask::Decode(&dec);
  auto t2 = QCTask::Decode(&dec);
  ASSERT_TRUE(t1.ok() && t2.ok());
  EXPECT_EQ((*t1)->root(), 11u);
  EXPECT_EQ((*t1)->SizeHint(), 42u);
  EXPECT_EQ((*t2)->root(), 12u);
  EXPECT_TRUE(dec.Done());
}

// A spilled or stolen mining task is read back into the kernel, which
// indexes its S and ext(S) without checks. So the decoder rejects any
// state no producer makes: lists out of order, S and ext(S) sharing a
// vertex, or an id outside the task's subgraph.
TEST(MessagePayloadTest, MiningTaskDecodeRejectsStateTheKernelCannotIndex) {
  EgoBuilder builder;  // path 10 - 11 - 12
  builder.Stage(10, {11});
  builder.Stage(11, {10, 12});
  builder.Stage(12, {11});
  const LocalGraph g = builder.Build();
  auto decode = [&](std::vector<VertexId> s, std::vector<VertexId> ext) {
    Encoder enc;
    QCTask::MakeSubtask(10, std::move(s), std::move(ext), g)->Encode(&enc);
    const std::string blob = enc.Release();
    Decoder dec(blob);
    return QCTask::Decode(&dec).status();
  };
  EXPECT_TRUE(decode({10}, {11, 12}).ok());
  EXPECT_TRUE(decode({10, 12}, {11}).ok());
  const struct {
    const char* what;
    std::vector<VertexId> s, ext;
  } bad[] = {
      {"S outside the subgraph", {999}, {}},
      {"ext outside the subgraph", {10}, {11, 999}},
      {"S out of order", {11, 10}, {12}},
      {"ext out of order", {10}, {12, 11}},
      {"S repeats a vertex", {10, 10}, {11}},
      {"ext repeats a vertex", {10}, {11, 11}},
      {"S and ext overlap", {10, 11}, {11, 12}},
  };
  for (const auto& c : bad) {
    EXPECT_EQ(decode(c.s, c.ext).code(), StatusCode::kCorruption) << c.what;
  }
}

TEST(MessagePayloadTest, SpawnTaskEncodingExactBytes) {
  Encoder enc;
  QCTask::MakeSpawn(11, 42)->Encode(&enc);
  // [root u32][iteration u8][size_hint u64][|S| u64][|ext| u64]
  // [LocalGraph: vids / offsets / adjacency as empty U32Vectors].
  EXPECT_EQ(Hex(enc.buffer()),
            "0b000000"            // root = 11
            "01"                  // iteration = 1
            "2a00000000000000"    // size hint = 42
            "0000000000000000"    // S empty
            "0000000000000000"    // ext empty
            "0000000000000000"    // LocalGraph vids empty
            "0000000000000000"    // LocalGraph offsets empty
            "0000000000000000");  // LocalGraph adjacency empty
}

TEST(MessagePayloadTest, CorruptStealBatchIsRejected) {
  EXPECT_FALSE(StealBatchTaskCount("ab").ok());  // < 4 bytes
}

// ---------------------------------------------------------------------------
// Wire frames.
// ---------------------------------------------------------------------------

TEST(WireFrameTest, ExactBytes) {
  Frame frame;
  frame.kind = FrameKind::kData;
  frame.src = 2;
  frame.payload = "hi";
  const std::string bytes = EncodeFrame(frame);
  // magic "QCMW" | kind 0x0b | src 2 | len 2 | "hi" | fnv64("hi").
  const uint64_t sum = Fingerprint(std::string("hi"));
  Encoder trailer;
  trailer.PutU64(sum);
  EXPECT_EQ(Hex(bytes.substr(0, 13)),
            "51434d57"   // 'Q' 'C' 'M' 'W'
            "0b"         // FrameKind::kData
            "02000000"   // src rank 2
            "02000000")  // payload length 2
      << Hex(bytes);
  EXPECT_EQ(bytes.substr(13, 2), "hi");
  EXPECT_EQ(Hex(bytes.substr(15)), Hex(trailer.buffer()));
  EXPECT_EQ(bytes.size(), kWireHeaderBytes + 2 + kWireTrailerBytes);
}

/// The kData payload prefix the wire contract mandates: type byte, then
/// the sender timestamp as a little-endian u64, then the fabric body.
std::string DataMeta(uint8_t type, uint64_t send_ts_usec) {
  Encoder enc;
  enc.PutU8(type);
  enc.PutU64(send_ts_usec);
  return enc.Release();
}

TEST(WireFrameTest, DataFrameFastPathMatchesGenericEncoding) {
  // The kData encoder (the hot pull path) must be byte-identical to
  // EncodeFrame on the equivalent Frame -- payload
  // [type u8][send_ts u64 LE][body] -- including the streamed checksum.
  const std::string body = "adjacency-bytes\x00\x01\x02";
  Frame generic;
  generic.kind = FrameKind::kData;
  generic.src = 1;
  generic.payload = DataMeta(2, 0x123456789ABCDEFull) + body;
  EXPECT_EQ(Hex(EncodeDataFrame(1, 2, 0x123456789ABCDEFull, body)),
            Hex(EncodeFrame(generic)));
  EXPECT_EQ(Hex(EncodeDataFrame(3, 0, 0, "")),
            Hex(EncodeFrame(Frame{FrameKind::kData, 3, DataMeta(0, 0)})));
}

TEST(WireFrameTest, DataFramePartsConcatenateToTheFullEncoding) {
  // The scatter-gather parts {head, body, trailer} are the zero-copy
  // twin of EncodeDataFrame: concatenated they must be byte-identical,
  // with the head carrying exactly header + meta and the trailer exactly
  // the checksum.
  const std::string body = "pull-response-bytes";
  const uint64_t ts = 987654321;
  DataFrameParts parts = EncodeDataFrameParts(4, 1, ts, body);
  EXPECT_EQ(parts.head.size(), kWireHeaderBytes + kDataFrameMetaBytes);
  EXPECT_EQ(parts.trailer.size(), kWireTrailerBytes);
  EXPECT_EQ(Hex(parts.head + body + parts.trailer),
            Hex(EncodeDataFrame(4, 1, ts, body)));

  uint8_t type = 0;
  uint64_t out_ts = 0;
  std::string out_body;
  ASSERT_TRUE(SplitDataFramePayload(DataMeta(1, ts) + body, &type, &out_ts,
                                    &out_body)
                  .ok());
  EXPECT_EQ(type, 1);
  EXPECT_EQ(out_ts, ts);
  EXPECT_EQ(out_body, body);
  // A payload shorter than the meta prefix is corruption, not a read
  // past the end.
  EXPECT_EQ(SplitDataFramePayload("12345678", &type, &out_ts, &out_body)
                .code(),
            StatusCode::kCorruption);
}

TEST(WireFrameTest, CoalescedFlushDecodesToIdenticalFrameSequence) {
  // A coalesced flush is the byte concatenation of N individually
  // encoded frames; decoding the buffer sequentially must yield the
  // exact frames N individual writes would have delivered, each
  // checksum-verified.
  const std::vector<std::string> bodies = {"alpha", "", "gamma-123",
                                           std::string(300, 'z')};
  std::string flush;
  for (size_t k = 0; k < bodies.size(); ++k) {
    DataFrameParts parts = EncodeDataFrameParts(
        2, static_cast<uint8_t>(k % 3), 1000 + k, bodies[k]);
    flush += parts.head;
    flush += bodies[k];
    flush += parts.trailer;
  }

  size_t pos = 0;
  for (size_t k = 0; k < bodies.size(); ++k) {
    Frame frame;
    ASSERT_TRUE(DecodeFrame(flush, &pos, &frame).ok()) << "frame " << k;
    EXPECT_EQ(frame.kind, FrameKind::kData);
    EXPECT_EQ(frame.src, 2u);
    EXPECT_EQ(Hex(frame.payload),
              Hex(DataMeta(static_cast<uint8_t>(k % 3), 1000 + k) +
                  bodies[k]));
  }
  EXPECT_EQ(pos, flush.size());

  // Torn read mid-buffer: a reader that got only part of frame 3 sees
  // IOError ("need more bytes") on the partial frame -- never corruption,
  // never a phantom frame -- after cleanly decoding frames 1 and 2.
  const std::string torn = flush.substr(0, flush.size() - 100);
  pos = 0;
  Frame frame;
  ASSERT_TRUE(DecodeFrame(torn, &pos, &frame).ok());
  ASSERT_TRUE(DecodeFrame(torn, &pos, &frame).ok());
  ASSERT_TRUE(DecodeFrame(torn, &pos, &frame).ok());
  const size_t resume_pos = pos;
  EXPECT_EQ(DecodeFrame(torn, &pos, &frame).code(), StatusCode::kIOError);
  // The failed attempt must not advance the cursor: once the rest of the
  // bytes arrive, decoding resumes at the torn frame's header.
  EXPECT_EQ(pos, resume_pos);
  ASSERT_TRUE(DecodeFrame(flush, &pos, &frame).ok());
  EXPECT_EQ(pos, flush.size());
  EXPECT_EQ(frame.payload.substr(kDataFrameMetaBytes),
            std::string(300, 'z'));
}

TEST(WireFrameTest, RoundTripAllKinds) {
  for (uint8_t k = 0; k <= static_cast<uint8_t>(FrameKind::kStats); ++k) {
    Frame in;
    in.kind = static_cast<FrameKind>(k);
    in.src = 7;
    in.payload = std::string("payload-") + std::to_string(k);
    const std::string bytes = EncodeFrame(in);
    Frame out;
    size_t pos = 0;
    ASSERT_TRUE(DecodeFrame(bytes, &pos, &out).ok());
    EXPECT_EQ(pos, bytes.size());
    EXPECT_EQ(out.kind, in.kind);
    EXPECT_EQ(out.src, in.src);
    EXPECT_EQ(out.payload, in.payload);
  }
}

TEST(WireFrameTest, CorruptionIsDetected) {
  Frame frame;
  frame.kind = FrameKind::kStatus;
  frame.src = 1;
  frame.payload = "abcdef";
  std::string bytes = EncodeFrame(frame);

  // Flipped payload byte -> checksum mismatch.
  std::string flipped = bytes;
  flipped[kWireHeaderBytes + 2] ^= 0x40;
  size_t pos = 0;
  Frame out;
  EXPECT_EQ(DecodeFrame(flipped, &pos, &out).code(),
            StatusCode::kCorruption);

  // Bad magic.
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  pos = 0;
  EXPECT_EQ(DecodeFrame(bad_magic, &pos, &out).code(),
            StatusCode::kCorruption);

  // Truncation -> IOError (caller should read more).
  pos = 0;
  EXPECT_EQ(DecodeFrame(bytes.substr(0, bytes.size() - 1), &pos, &out)
                .code(),
            StatusCode::kIOError);
}

TEST(WireFrameTest, ControlPayloadsRoundTrip) {
  WireRankStatus status;
  status.pending = -3;
  status.spawn_done = 1;
  status.sent_to = {0, 100, 7};
  status.processed_from = {0, 99, 8};
  status.pending_big = 12;
  WireRankStatus status2;
  ASSERT_TRUE(DecodeRankStatus(EncodeRankStatus(status), &status2).ok());
  EXPECT_EQ(status2.pending, -3);
  EXPECT_EQ(status2.spawn_done, 1);
  EXPECT_EQ(status2.sent_to, (std::vector<uint64_t>{0, 100, 7}));
  EXPECT_EQ(status2.processed_from, (std::vector<uint64_t>{0, 99, 8}));
  EXPECT_EQ(status2.pending_big, 12u);

  uint32_t version = 0, rank = 0, world = 0, receiver = 0, epoch = 0;
  uint64_t pid = 0, want = 0;
  std::string blob;
  ASSERT_TRUE(DecodeHello(EncodeHello(4242), &version, &pid).ok());
  EXPECT_EQ(version, kWireProtocolVersion);
  EXPECT_EQ(pid, 4242u);
  ASSERT_TRUE(DecodeAssign(EncodeAssign(2, 3, "cfg", 5), &rank, &world,
                           &blob, &epoch)
                  .ok());
  EXPECT_EQ(rank, 2u);
  EXPECT_EQ(world, 3u);
  EXPECT_EQ(blob, "cfg");
  EXPECT_EQ(epoch, 5u);
  ASSERT_TRUE(DecodeStealCmd(EncodeStealCmd(1, 16), &receiver, &want).ok());
  EXPECT_EQ(receiver, 1u);
  EXPECT_EQ(want, 16u);

  // Trailing garbage is corruption, not silence.
  EXPECT_EQ(DecodeRankStatus(EncodeRankStatus(status) + "x", &status2)
                .code(),
            StatusCode::kCorruption);
  // So is a sent_to length of 2^61 eight-byte counters, which wraps to 0
  // bytes in 64 bits: the decoder must not try to allocate it.
  Encoder huge;
  huge.PutI64(0);
  huge.PutU8(1);
  huge.PutU64(uint64_t{1} << 61);
  huge.PutU64(0);
  EXPECT_EQ(DecodeRankStatus(huge.Release(), &status2).code(),
            StatusCode::kCorruption);
}

TEST(WireFrameTest, FaultTolerancePayloadsRoundTrip) {
  uint32_t epoch = 0;
  ASSERT_TRUE(DecodePeerHello(EncodePeerHello(3), &epoch).ok());
  EXPECT_EQ(epoch, 3u);

  uint64_t seq = 0;
  ASSERT_TRUE(DecodeHeartbeat(EncodeHeartbeat(0xFEEDull), &seq).ok());
  EXPECT_EQ(seq, 0xFEEDull);

  uint32_t rank = 0;
  ASSERT_TRUE(DecodePeerEvent(EncodePeerEvent(2, 4), &rank, &epoch).ok());
  EXPECT_EQ(rank, 2u);
  EXPECT_EQ(epoch, 4u);

  // Truncated payloads are corruption, never a read past the end.
  EXPECT_FALSE(DecodePeerEvent("abc", &rank, &epoch).ok());
  EXPECT_FALSE(DecodeHeartbeat("", &seq).ok());
}

TEST(WireFrameTest, StatsSampleRoundTrip) {
  WireStatsSample in;
  in.epoch = 2;
  in.ts_usec = 123456789;
  in.queue_depth = 17;
  in.inflight_bytes = 65536;
  in.cache_hits = 1000;
  in.cache_misses = 50;
  in.busy_compers = 3;
  in.tasks_completed = 4242;
  in.pending = -7;  // the detector's pending count can go negative

  WireStatsSample out;
  ASSERT_TRUE(DecodeStatsSample(EncodeStatsSample(in), &out).ok());
  EXPECT_EQ(out.epoch, 2u);
  EXPECT_EQ(out.ts_usec, 123456789u);
  EXPECT_EQ(out.queue_depth, 17u);
  EXPECT_EQ(out.inflight_bytes, 65536u);
  EXPECT_EQ(out.cache_hits, 1000u);
  EXPECT_EQ(out.cache_misses, 50u);
  EXPECT_EQ(out.busy_compers, 3u);
  EXPECT_EQ(out.tasks_completed, 4242u);
  EXPECT_EQ(out.pending, -7);

  // Truncation and trailing garbage are corruption, never a silent
  // partial decode.
  const std::string bytes = EncodeStatsSample(in);
  EXPECT_FALSE(
      DecodeStatsSample(bytes.substr(0, bytes.size() - 1), &out).ok());
  EXPECT_FALSE(DecodeStatsSample(bytes + "x", &out).ok());
}

// ---------------------------------------------------------------------------
// Job spec / engine config / engine report round trips (the other blobs
// that cross process boundaries).
// ---------------------------------------------------------------------------

TEST(JobSpecTest, RoundTripPreservesEveryField) {
  EngineConfig config;
  config.num_machines = 3;
  config.threads_per_machine = 4;
  config.tau_split = 55;
  config.tau_time = 0.125;
  config.mode = DecomposeMode::kSizeThreshold;
  config.local_queue_capacity = 128;
  config.global_queue_capacity = 512;
  config.batch_size = 8;
  config.spill_dir = "/tmp/x";
  config.steal_period_sec = 0.5;
  config.enable_stealing = false;
  config.vertex_cache_capacity = 999;
  config.max_pull_batch = 33;
  config.net_latency_sec = 0.001;
  config.net_coalesce_bytes = 1400;
  config.net_linger_usec = 100;
  config.record_task_log = true;
  config.checkpoint_dir = "/tmp/ckpt";
  config.checkpoint_interval_sec = 0.125;
  config.heartbeat_usec = 50000;
  config.mining.gamma = 0.75;
  config.mining.min_size = 6;
  config.mining.use_lookahead = false;
  config.mining.quick_compat = true;
  config.mining.dense_threshold = 512;
  config.trace_out = "/tmp/run_trace.json";
  config.stats_interval_ms = 250;
  config.graph_snapshot = "/tmp/graph.qcsr";
  config.graph_memory_budget = 1 << 20;

  EngineConfig out;
  ASSERT_TRUE(DecodeJobSpec(EncodeJobSpec(config), &out).ok());
  EXPECT_EQ(out.num_machines, 3);
  EXPECT_EQ(out.threads_per_machine, 4);
  EXPECT_EQ(out.tau_split, 55u);
  EXPECT_EQ(out.tau_time, 0.125);
  EXPECT_EQ(out.mode, DecomposeMode::kSizeThreshold);
  EXPECT_EQ(out.local_queue_capacity, 128u);
  EXPECT_EQ(out.global_queue_capacity, 512u);
  EXPECT_EQ(out.batch_size, 8u);
  EXPECT_EQ(out.spill_dir, "/tmp/x");
  EXPECT_EQ(out.steal_period_sec, 0.5);
  EXPECT_FALSE(out.enable_stealing);
  EXPECT_EQ(out.vertex_cache_capacity, 999u);
  EXPECT_EQ(out.max_pull_batch, 33u);
  EXPECT_EQ(out.net_latency_sec, 0.001);
  EXPECT_EQ(out.net_coalesce_bytes, 1400);
  EXPECT_EQ(out.net_linger_usec, 100);
  EXPECT_TRUE(out.record_task_log);
  EXPECT_EQ(out.checkpoint_dir, "/tmp/ckpt");
  EXPECT_EQ(out.checkpoint_interval_sec, 0.125);
  EXPECT_EQ(out.heartbeat_usec, 50000);
  EXPECT_EQ(out.mining.gamma, 0.75);
  EXPECT_EQ(out.mining.min_size, 6u);
  EXPECT_FALSE(out.mining.use_lookahead);
  EXPECT_TRUE(out.mining.quick_compat);
  EXPECT_EQ(out.mining.dense_threshold, 512);
  EXPECT_EQ(out.trace_out, "/tmp/run_trace.json");
  EXPECT_EQ(out.stats_interval_ms, 250);
  EXPECT_EQ(out.graph_snapshot, "/tmp/graph.qcsr");
  EXPECT_EQ(out.graph_memory_budget, 1 << 20);
}

TEST(JobSpecTest, RejectsTruncatedTrailingAndSnapshotlessBlobs) {
  EngineConfig config;
  config.num_machines = 3;
  config.graph_snapshot = "/tmp/graph.qcsr";
  const std::string blob = EncodeJobSpec(config);
  EngineConfig out;
  ASSERT_TRUE(DecodeJobSpec(blob, &out).ok());

  // Every strict prefix is a truncated blob.
  for (size_t len = 0; len < blob.size(); ++len) {
    EXPECT_FALSE(DecodeJobSpec(blob.substr(0, len), &out).ok())
        << "prefix of " << len << "/" << blob.size() << " bytes decoded";
  }
  // Trailing bytes are corruption, not padding.
  Status trailing = DecodeJobSpec(blob + "x", &out);
  EXPECT_EQ(trailing.code(), StatusCode::kCorruption) << trailing.ToString();

  // A well-formed blob that names no snapshot leaves workers nothing to
  // load.
  config.graph_snapshot.clear();
  Status snapshotless = DecodeJobSpec(EncodeJobSpec(config), &out);
  EXPECT_EQ(snapshotless.code(), StatusCode::kInvalidArgument)
      << snapshotless.ToString();
  EXPECT_NE(snapshotless.message().find("graph_snapshot"), std::string::npos)
      << snapshotless.ToString();
}

// ---------------------------------------------------------------------------
// EngineReport: every registry row (gthinker/metrics.h, MiningStats' rows in
// quick/mining_context.h) must survive the codec, fold by its merge rule and
// print exactly once -- the tests iterate the registries, so a row dropped
// from any of the generated paths fails here.
// ---------------------------------------------------------------------------

/// A report whose every counter cell, MiningStats row and per-thread time
/// holds a distinct nonzero value, counting up from `base`, with `threads`
/// thread summaries and `sets` result sets of growing size.
EngineReport DistinctReport(uint64_t base, int threads, int sets) {
  EngineReport r;
  uint64_t next = base;
  r.wall_seconds = static_cast<double>(next++);
  r.peak_rss_bytes = next++;
  VisitReportCounters(
      [&](const char*, auto, CounterMerge, auto& row) {
        ForEachCell([&](uint64_t& cell) { cell = next++; }, row);
      },
      r.counters);
  VisitMiningStats([&](const char*, uint64_t& v) { v = next++; }, r.mining);
  for (int i = 0; i < threads; ++i) {
    ThreadSummary t;
    t.machine = static_cast<int>(next++);
    t.thread = static_cast<int>(next++);
    VisitThreadSeconds(
        [&](const char*, double& v) { v = static_cast<double>(next++) / 4; },
        t);
    t.tasks_processed = next++;
    r.threads.push_back(t);
  }
  for (int i = 0; i < sets; ++i) {
    VertexSet set;
    for (int k = 0; k < i; ++k) set.push_back(static_cast<VertexId>(next++));
    r.results.push_back(set);
  }
  return r;
}

void ExpectSameThread(const ThreadSummary& want, const ThreadSummary& got) {
  EXPECT_EQ(want.machine, got.machine);
  EXPECT_EQ(want.thread, got.thread);
  VisitThreadSeconds(
      [](const char* name, double w, double g) { EXPECT_EQ(w, g) << name; },
      want, got);
  EXPECT_EQ(want.tasks_processed, got.tasks_processed);
}

std::string EncodeReport(const EngineReport& report) {
  Encoder enc;
  EncodeEngineReport(report, &enc);
  return enc.Release();
}

/// How often `"key":` occurs in `json`.
int KeyCount(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  int n = 0;
  for (size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

/// The text after `"key": ` up to the next comma, newline or closing brace.
std::string JsonValue(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return "<missing>";
  const size_t from = at + needle.size();
  return json.substr(from, json.find_first_of(",\n}", from) - from);
}

TEST(EngineReportSerdeTest, RoundTripAndMerge) {
  const EngineReport a = DistinctReport(1, 2, 3);
  const std::string blob = EncodeReport(a);
  Decoder dec(blob);
  EngineReport b;
  ASSERT_TRUE(DecodeEngineReport(&dec, &b).ok());
  EXPECT_TRUE(dec.Done());
  EXPECT_EQ(b.wall_seconds, a.wall_seconds);
  EXPECT_EQ(b.peak_rss_bytes, a.peak_rss_bytes);
  int cells = 0;
  VisitReportCounters(
      [&](const char* name, auto, CounterMerge, const auto& want,
          const auto& got) {
        ForEachCell(
            [&](uint64_t w, uint64_t g) {
              EXPECT_EQ(w, g) << name;
              ++cells;
            },
            want, got);
      },
      a.counters, b.counters);
  EXPECT_GT(cells, 100);  // the arrays' cells are visited too
  VisitMiningStats(
      [](const char* name, uint64_t w, uint64_t g) { EXPECT_EQ(w, g) << name; },
      a.mining, b.mining);
  ASSERT_EQ(b.threads.size(), a.threads.size());
  for (size_t i = 0; i < a.threads.size(); ++i) {
    ExpectSameThread(a.threads[i], b.threads[i]);
  }
  EXPECT_EQ(b.results, a.results);

  // The second report's cells are all larger, so a kMax row folded as a
  // sum (or a sum row folded as a max) shows, and so does a dropped row.
  const EngineReport c = DistinctReport(100000, 1, 2);
  const EngineReport merged = MergeEngineReports({b, c});
  EXPECT_EQ(merged.wall_seconds, c.wall_seconds);  // the slowest rank
  EXPECT_EQ(merged.peak_rss_bytes, a.peak_rss_bytes + c.peak_rss_bytes);
  int max_rows = 0;
  VisitReportCounters(
      [&](const char* name, auto, CounterMerge merge, const auto& got,
          const auto& x, const auto& y) {
        max_rows += merge == CounterMerge::kMax;
        ForEachCell(
            [&](uint64_t m, uint64_t u, uint64_t v) {
              EXPECT_EQ(m, merge == CounterMerge::kMax ? std::max(u, v) : u + v)
                  << name;
            },
            got, x, y);
      },
      merged.counters, a.counters, c.counters);
  EXPECT_EQ(max_rows, 3);  // the two gauge peaks and scratch_bytes
  VisitMiningStats(
      [](const char* name, uint64_t m, uint64_t u, uint64_t v) {
        EXPECT_EQ(m, u + v) << name;
      },
      merged.mining, a.mining, c.mining);
  ASSERT_EQ(merged.threads.size(), 3u);
  ExpectSameThread(c.threads[0], merged.threads[2]);
  EXPECT_EQ(merged.Total(&ThreadSummary::build_seconds),
            a.threads[0].build_seconds + a.threads[1].build_seconds +
                c.threads[0].build_seconds);
  EXPECT_EQ(merged.results.size(), 5u);

  // --stats-json prints every row's key exactly once, with its value.
  const std::string json = EngineReportJson(a);
  VisitReportCounters(
      [&](const char* name, auto shape, CounterMerge, const auto& row) {
        using Shape = decltype(shape);
        if constexpr (std::is_same_v<Shape, Scalar>) {
          EXPECT_EQ(KeyCount(json, name), 1) << name;
          EXPECT_EQ(JsonValue(json, name), std::to_string(row)) << name;
        } else if constexpr (std::is_same_v<Shape, PerMessageType>) {
          static_assert(kNumMessageTypes == 3);
          const char* kTypes[] = {"pull_request", "pull_response",
                                  "steal_batch"};
          for (int t = 0; t < kNumMessageTypes; ++t) {
            const std::string key = std::string(name) + "_" + kTypes[t];
            EXPECT_EQ(KeyCount(json, key), 1) << key;
            EXPECT_EQ(JsonValue(json, key), std::to_string(row[t])) << key;
          }
        } else if constexpr (std::is_same_v<Shape, StateMatrix>) {
          EXPECT_EQ(KeyCount(json, name), 1) << name;
          for (int from = 0; from < kNumTaskStates; ++from) {
            for (int to = 0; to < kNumTaskStates; ++to) {
              const std::string key =
                  std::string(TaskStateName(static_cast<TaskState>(from))) +
                  "->" + TaskStateName(static_cast<TaskState>(to));
              EXPECT_EQ(KeyCount(json, key), 1) << key;
              EXPECT_EQ(JsonValue(json, key), std::to_string(row[from][to]))
                  << key;
            }
          }
        } else {  // a histogram: one list
          std::string list;
          for (uint64_t v : row) {
            list += (list.empty() ? "[" : ", ") + std::to_string(v);
          }
          EXPECT_EQ(KeyCount(json, name), 1) << name;
          EXPECT_EQ(json.find("\"" + std::string(name) + "\": " + list + "]"),
                    json.find("\"" + std::string(name) + "\":"))
              << name;
        }
      },
      a.counters);
  VisitMiningStats(
      [&](const char* name, uint64_t v) {
        const std::string key = std::string("mining_") + name;
        EXPECT_EQ(KeyCount(json, key), 1) << key;
        EXPECT_EQ(JsonValue(json, key), std::to_string(v)) << key;
      },
      a.mining);
  VisitThreadSeconds(
      [&](const char* name, double) {
        EXPECT_EQ(KeyCount(json, std::string("total_") + name), 1) << name;
        EXPECT_EQ(KeyCount(json, name), 2) << name;  // once per thread
      },
      a.threads[0]);
  EXPECT_EQ(JsonValue(json, "raw_result_sets"), "3");
  // No entry is followed by a comma and then a closing bracket.
  for (const char* dangling : {",\n}", ",\n  }", ",\n    }", ",\n  ]"}) {
    EXPECT_EQ(json.find(dangling), std::string::npos) << json;
  }
}

TEST(EngineReportSerdeTest, DecoderRejectsPrefixesAndSurvivesMutations) {
  const EngineReport report = DistinctReport(1, 3, 5);
  const std::string blob = EncodeReport(report);

  // Every strict prefix lacks a field the decoder needs.
  for (size_t len = 0; len < blob.size(); ++len) {
    Decoder dec(blob.data(), len);
    EngineReport out;
    EXPECT_FALSE(DecodeEngineReport(&dec, &out).ok())
        << "prefix of " << len << "/" << blob.size() << " bytes decoded";
  }

  // The fixed bytes of one thread summary and where the counted tail
  // (thread and result counts, and what they count) starts.
  EngineReport one_thread = report;
  one_thread.threads.resize(1);
  EngineReport no_threads = report;
  no_threads.threads.clear();
  const size_t thread_bytes =
      EncodeReport(one_thread).size() - EncodeReport(no_threads).size();
  EngineReport empty_tail = report;
  empty_tail.threads.clear();
  empty_tail.results.clear();
  const size_t tail_start = EncodeReport(empty_tail).size() - 16;

  // Seeded mutations: flipped bits, overwritten bytes and cut tails, half
  // of them aimed at the counted tail. Each must decode OK or Corruption,
  // and never size a container past what the payload could hold.
  Rng rng(20261017);
  int corrupt = 0;
  for (int i = 0; i < 12000; ++i) {
    std::string m = blob;
    const int edits = 1 + static_cast<int>(rng.Uniform(4));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = rng.Uniform(2) == 0
                             ? rng.Uniform(m.size())
                             : tail_start + rng.Uniform(m.size() - tail_start);
      switch (rng.Uniform(3)) {
        case 0:
          m[pos] = static_cast<char>(m[pos] ^ (1 << rng.Uniform(8)));
          break;
        case 1:
          m[pos] = static_cast<char>(rng.Next());
          break;
        default:
          m[pos] = static_cast<char>(0xff);
      }
    }
    if (rng.Uniform(8) == 0) m.resize(rng.Uniform(m.size() + 1));
    Decoder dec(m);
    EngineReport out;
    const Status s = DecodeEngineReport(&dec, &out);
    ASSERT_TRUE(s.ok() || s.code() == StatusCode::kCorruption)
        << "mutation " << i << ": " << s.ToString();
    corrupt += !s.ok();
    ASSERT_LE(out.threads.capacity() * thread_bytes, m.size()) << i;
    ASSERT_LE(out.results.capacity() * 8, m.size()) << i;
    size_t ids = 0;
    for (const VertexSet& set : out.results) ids += set.capacity();
    ASSERT_LE(ids * sizeof(VertexId), m.size()) << i;
  }
  EXPECT_GT(corrupt, 1000);  // the tail mutations reach the bounds checks
}

}  // namespace
}  // namespace qcm
