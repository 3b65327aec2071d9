// Wire-stability tests: the payload of every CommFabric message type and
// the frame format that carries them across process boundaries are pinned
// byte-for-byte. These bytes ARE the deployment contract between
// qcm_cluster, qcm_worker, and any future remote peer -- a change that
// flips one of the asserts below is a wire-protocol break and must bump
// kWireProtocolVersion.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "gthinker/comm.h"
#include "gthinker/engine_config.h"
#include "gthinker/metrics.h"
#include "mining/qc_task.h"
#include "net/job_spec.h"
#include "net/wire.h"
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
  status.delivery_latency_usec = 1500;
  WireRankStatus status2;
  ASSERT_TRUE(DecodeRankStatus(EncodeRankStatus(status), &status2).ok());
  EXPECT_EQ(status2.pending, -3);
  EXPECT_EQ(status2.spawn_done, 1);
  EXPECT_EQ(status2.sent_to, (std::vector<uint64_t>{0, 100, 7}));
  EXPECT_EQ(status2.processed_from, (std::vector<uint64_t>{0, 99, 8}));
  EXPECT_EQ(status2.pending_big, 12u);
  EXPECT_EQ(status2.delivery_latency_usec, 1500u);

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
  config.spawn_prefetch = true;
  config.steal_rtt_reference_sec = 0.002;
  config.steal_max_batch_factor = 5;
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
  EXPECT_TRUE(out.spawn_prefetch);
  EXPECT_EQ(out.steal_rtt_reference_sec, 0.002);
  EXPECT_EQ(out.steal_max_batch_factor, 5u);
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

TEST(EngineReportSerdeTest, RoundTripAndMerge) {
  EngineReport a;
  a.wall_seconds = 1.5;
  a.peak_rss_bytes = 1000;
  a.counters.tasks_completed = 10;
  a.counters.msg_sent[0] = 4;
  a.counters.msg_inflight_bytes_peak = 77;
  a.counters.msg_latency_hist[2] = 3;
  a.counters.net_flushes = 6;
  a.counters.net_flush_frames = 24;
  a.counters.net_flush_bytes = 4096;
  a.counters.net_flush_size = 4;
  a.counters.net_flush_linger = 2;
  a.counters.net_flush_park_usec = 350;
  a.counters.net_flush_bytes_hist[1] = 6;
  a.mining.nodes_explored = 42;
  a.threads.push_back(ThreadSummary{.machine = 0,
                                    .thread = 1,
                                    .busy_seconds = 0.5,
                                    .idle_seconds = 0.1,
                                    .mining_seconds = 0.4,
                                    .materialize_seconds = 0.05,
                                    .tasks_processed = 9});
  a.results.push_back({1, 2, 3});
  a.results.push_back({4, 5});

  Encoder enc;
  EncodeEngineReport(a, &enc);
  const std::string blob = enc.Release();
  Decoder dec(blob);
  EngineReport b;
  ASSERT_TRUE(DecodeEngineReport(&dec, &b).ok());
  EXPECT_TRUE(dec.Done());
  EXPECT_EQ(b.wall_seconds, 1.5);
  EXPECT_EQ(b.peak_rss_bytes, 1000u);
  EXPECT_EQ(b.counters.tasks_completed, 10u);
  EXPECT_EQ(b.counters.msg_sent[0], 4u);
  EXPECT_EQ(b.counters.msg_inflight_bytes_peak, 77u);
  EXPECT_EQ(b.counters.msg_latency_hist[2], 3u);
  EXPECT_EQ(b.counters.net_flushes, 6u);
  EXPECT_EQ(b.counters.net_flush_frames, 24u);
  EXPECT_EQ(b.counters.net_flush_bytes, 4096u);
  EXPECT_EQ(b.counters.net_flush_size, 4u);
  EXPECT_EQ(b.counters.net_flush_linger, 2u);
  EXPECT_EQ(b.counters.net_flush_park_usec, 350u);
  EXPECT_EQ(b.counters.net_flush_bytes_hist[1], 6u);
  EXPECT_EQ(b.mining.nodes_explored, 42u);
  ASSERT_EQ(b.threads.size(), 1u);
  EXPECT_EQ(b.threads[0].tasks_processed, 9u);
  ASSERT_EQ(b.results.size(), 2u);
  EXPECT_EQ(b.results[0], (VertexSet{1, 2, 3}));

  EngineReport c;
  c.wall_seconds = 0.5;
  c.counters.tasks_completed = 5;
  c.counters.msg_inflight_bytes_peak = 200;
  c.counters.net_flushes = 4;
  c.counters.net_flush_bytes_hist[1] = 1;
  c.results.push_back({6});
  EngineReport merged = MergeEngineReports({b, c});
  EXPECT_EQ(merged.wall_seconds, 1.5);  // max
  EXPECT_EQ(merged.counters.tasks_completed, 15u);  // sum
  EXPECT_EQ(merged.counters.msg_inflight_bytes_peak, 200u);  // peak: max
  EXPECT_EQ(merged.counters.net_flushes, 10u);  // sum across ranks
  EXPECT_EQ(merged.counters.net_flush_bytes_hist[1], 7u);
  EXPECT_EQ(merged.results.size(), 3u);
  EXPECT_EQ(merged.threads.size(), 1u);

  // Truncated blobs must be rejected, never read past the end.
  Decoder short_dec(blob.data(), blob.size() - 3);
  EngineReport d;
  EXPECT_FALSE(DecodeEngineReport(&short_dec, &d).ok());
}

}  // namespace
}  // namespace qcm
