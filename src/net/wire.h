// Wire protocol of the multi-process deployment: length-prefixed frames
// with an integrity checksum, plus the handshake / rank-assignment control
// vocabulary spoken between the cluster coordinator (tools/qcm_cluster)
// and its worker processes (tools/qcm_worker).
//
// Every frame on a connection is
//
//   offset  size  field
//   0       4     magic "QCMW" (bytes 'Q','C','M','W')
//   4       1     kind (FrameKind)
//   5       4     src rank, u32 (kUnassignedRank before the coordinator
//                 has assigned one; the coordinator itself sends
//                 kCoordinatorRank)
//   9       4     payload length n, u32
//   13      n     payload bytes
//   13+n    8     FNV-1a fingerprint of the payload, u64
//
// Multi-byte fields are in host byte order, like every other codec in
// util/serde.h -- the deployment targets same-architecture clusters
// (little-endian on every supported platform; the byte pins in
// tests/wire_serde_test.cc assume it). A mixed-endianness cluster is out
// of contract and fails safely: the length/checksum mismatch rejects the
// first frame.
//
// and is rejected as Corruption on bad magic, an oversized length, or a
// checksum mismatch -- a worker never mines on a frame it cannot prove it
// received intact. This framing is the process-boundary twin of the
// CommFabric message contract: a kData frame carries exactly one fabric
// message as [MessageType u8][send timestamp usec u64][the fabric
// message's serialized payload]. The timestamp is
// the sender's monotonic clock at the moment the message entered the send
// path (BEFORE any coalescing dwell), so the receiver can measure real
// wire transit including time parked in a send buffer; it is meaningful
// across processes on one machine (one monotonic clock) and only
// clock-offset-approximate across hosts.
//
// The data-plane hot path never materializes a contiguous frame: a kData
// frame is encoded as {head, payload, trailer} parts (EncodeDataFrameParts)
// and written with scatter-gather writev/sendmsg (WriteFrameSlices), so the
// fabric message's payload string is the only copy of the payload bytes
// from serialization to syscall.
//
// Connection bring-up (the rank-assignment protocol):
//   1. worker -> coordinator  kHello     {protocol version, pid}
//   2. coordinator -> worker  kAssign    {rank, world size, config blob}
//   3. worker -> coordinator  kListening {port of the worker's peer
//                                         listener}
//   4. coordinator -> worker  kPeers     {peer listener port of every rank}
//   5. workers connect to every lower rank and identify themselves with
//      kPeerHello (src = their rank); the mesh is complete
//   6. worker -> coordinator  kReady; once all ranks are ready the
//      coordinator releases the barrier with kStart
// After kStart the data plane (kData) flows rank-to-rank while the control
// plane (kStatus up, kStealCmd / kTerminate down, kReport up at the end)
// stays on the coordinator connection.

#ifndef QCM_NET_WIRE_H_
#define QCM_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace qcm {

/// First four bytes of every frame.
inline constexpr char kWireMagic[4] = {'Q', 'C', 'M', 'W'};
/// Bump on any incompatible frame/payload change; checked in kHello.
// v2: WireRankStatus grew a mean delivery latency (latency-aware steal
// planning input).
// v3: kData payloads carry the sender's monotonic send timestamp between
// the type byte and the fabric payload (real wire-transit measurement,
// including coalescing dwell); EngineConfig grew the coalescing knobs.
// v4: fault tolerance. New frame kinds kHeartbeat (worker liveness
// beacon), kPeerDown / kPeerUp (coordinator-driven rank recovery
// transitions); kAssign and kPeerHello carry the rank's incarnation
// epoch; WireRankStatus counts data frames per ordered peer pair
// (sent_to / processed_from vectors) so the drain invariant survives a
// rank being replaced mid-run; EngineConfig grew the checkpoint and
// heartbeat knobs.
// v5: observability. New frame kind kStats (epoch-tagged periodic
// telemetry sample: queue depth, in-flight bytes, cache hits/misses,
// busy compers) for the qcm_cluster live ticker and merged-trace counter
// tracks; EngineConfig grew the tracing knobs (trace_out,
// trace_buffer_kb, stats_interval_ms).
// v6: out-of-core graph storage. EngineConfig grew the snapshot knobs
// (graph_snapshot path, graph_page_size, graph_memory_budget) so the
// launcher packs the graph once and ships the .qcsr path to every rank;
// EngineReport grew the paged-store counters (page pins / page-ins /
// evictions / fault-stall time).
// v7: one graph-access path. The kAssign job blob is the bare
// EngineConfig (the edge-list path / planted spec / seed prefix is gone;
// workers only mmap config.graph_snapshot); EngineConfig lost its cache
// eviction-policy byte; EngineReport lost the admission-reject and
// fallback-transfer byte counters.
// v8: one latency model. EngineConfig lost the service-tick delivery
// delay (fabric latency is net_latency_sec only), prefetch_limit and
// trace_buffer_kb (now a spawn-prefetch depth constant and
// trace::kRingKb).
// v9: one engine mode. EngineReport lost steal_idle_usec, which only the
// retired in-process steal master wrote.
// v10: budgeted ranks read their own lists with pread into an LRU.
// EngineReport lost graph_inline_served, always 0 since the mmap pager
// it counted for was deleted.
// v11: EngineConfig lost graph_page_size; the launcher packs its
// snapshot at kCsrDefaultPageSize.
// v12: spawn-time prefetch and latency-aware steal batching are gone.
// EngineConfig lost three fields (the prefetch switch, the steal reference
// RTT and batch factor); WireRankStatus lost its mean delivery latency;
// EngineReport lost four prefetch counters and the prefetching lifecycle
// state.
// v13: EngineReport's MiningStats gained `subsumed`, the candidates each
// task's own maximality filter dropped.
// v14: EngineReport is encoded row by row from the counter registry
// (gthinker/metrics.h), arrays in place; it lost the five total_*_seconds
// (sums over its threads), and each ThreadSummary gained build_seconds.
// v15: EngineReport gained the scratch_bytes counter row.
inline constexpr uint32_t kWireProtocolVersion = 15;
/// Frame header bytes before the payload (magic + kind + src + length).
inline constexpr size_t kWireHeaderBytes = 13;
/// Trailing checksum bytes after the payload.
inline constexpr size_t kWireTrailerBytes = 8;
/// Leading bytes of every kData frame payload: MessageType byte + the
/// sender's monotonic send timestamp (microseconds, u64).
inline constexpr size_t kDataFrameMetaBytes = 1 + 8;
/// Hard cap on a single frame payload; anything larger is Corruption
/// (protects a reader from a garbage length field allocating gigabytes).
inline constexpr uint32_t kMaxFramePayload = 1u << 30;

/// `src` value of a worker that has not been assigned a rank yet.
inline constexpr uint32_t kUnassignedRank = 0xFFFFFFFFu;
/// `src` value of the coordinator on control frames it originates.
inline constexpr uint32_t kCoordinatorRank = 0xFFFFFFFEu;

/// Every frame is exactly one of these.
enum class FrameKind : uint8_t {
  kHello = 0,      // worker -> coordinator: {version u32, pid u64}
  kAssign = 1,     // coordinator -> worker: {rank u32, world u32, config}
  kListening = 2,  // worker -> coordinator: {peer listener port u32}
  kPeers = 3,      // coordinator -> worker: {port u32 per rank}
  kPeerHello = 4,  // worker -> worker: empty (src carries the rank)
  kReady = 5,      // worker -> coordinator: empty
  kStart = 6,      // coordinator -> worker: empty (mining barrier release)
  kStatus = 7,     // worker -> coordinator: RankStatus (termination input)
  kStealCmd = 8,   // coordinator -> worker: {receiver u32, want u64}
  kTerminate = 9,  // coordinator -> worker: empty (global quiescence)
  kReport = 10,    // worker -> coordinator: serialized EngineReport+results
  kData = 11,      // worker -> worker: {MessageType u8, fabric payload}
  kAbort = 12,     // either direction: {human-readable reason}
  kHeartbeat = 13,  // worker -> coordinator: {seq u64} liveness beacon
  kPeerDown = 14,   // coordinator -> worker: {rank u32, epoch u32}
  kPeerUp = 15,     // coordinator -> worker: {rank u32, epoch u32}
  kStats = 16,      // worker -> coordinator: WireStatsSample telemetry
};

const char* FrameKindName(FrameKind kind);

/// One parsed frame.
struct Frame {
  FrameKind kind = FrameKind::kHello;
  uint32_t src = kUnassignedRank;
  std::string payload;
};

/// Serializes a frame into its exact wire bytes (header + payload +
/// checksum). The byte layout is pinned by tests/wire_serde_test.cc.
std::string EncodeFrame(const Frame& frame);

/// Exact wire bytes of a kData frame whose payload is
/// [type byte][send_ts_usec u64][body], built in one buffer. Test/tool
/// convenience; the transport hot path uses EncodeDataFrameParts + a
/// scatter-gather write instead. Byte-identical to EncodeFrame on the
/// equivalent Frame.
std::string EncodeDataFrame(uint32_t src, uint8_t type,
                            uint64_t send_ts_usec, const std::string& body);

/// A kData frame split for scatter-gather writes: `head` is the frame
/// header plus the payload meta (type byte + send timestamp), `trailer`
/// is the checksum; the body bytes stay in the caller's buffer and are
/// never copied. head + body + trailer is byte-identical to
/// EncodeDataFrame(src, type, send_ts_usec, body).
struct DataFrameParts {
  std::string head;     // kWireHeaderBytes + kDataFrameMetaBytes bytes
  std::string trailer;  // kWireTrailerBytes bytes
};

DataFrameParts EncodeDataFrameParts(uint32_t src, uint8_t type,
                                    uint64_t send_ts_usec,
                                    const std::string& body);

/// Splits a received kData frame payload into its meta and fabric body.
/// Returns Corruption when the payload is shorter than the meta prefix.
Status SplitDataFramePayload(const std::string& payload, uint8_t* type,
                             uint64_t* send_ts_usec, std::string* body);

/// Parses one frame starting at `*pos` of `buf`; advances `*pos` past it.
/// Returns Corruption on bad magic / length / checksum, and IOError when
/// `buf` ends before the frame does (caller should read more bytes).
Status DecodeFrame(const std::string& buf, size_t* pos, Frame* frame);

/// Blocking write of one frame to a socket/pipe fd, looping over partial
/// writes. Not synchronized -- callers serialize per-fd access.
Status WriteFrame(int fd, const Frame& frame);

/// Blocking write of pre-encoded frame bytes (EncodeFrame /
/// EncodeDataFrame output). Same contract as WriteFrame.
Status WriteFrameBytes(int fd, const std::string& bytes);

/// One slice of a scatter-gather frame write.
struct WireSlice {
  const char* data;
  size_t len;
};

/// Blocking scatter-gather write of pre-encoded frame slices (e.g. the
/// concatenation of several frames' {head, body, trailer} parts) in one
/// writev/sendmsg per syscall, looping over partial writes and chunking
/// at the iovec limit. Same contract as WriteFrame; `syscalls` (optional)
/// receives the number of write syscalls issued.
Status WriteFrameSlices(int fd, const std::vector<WireSlice>& slices,
                        uint64_t* syscalls = nullptr);

/// Blocking read of one frame from a socket/pipe fd. A clean EOF before
/// the first header byte returns Aborted("connection closed"); EOF inside
/// a frame is Corruption.
Status ReadFrame(int fd, Frame* frame);

// ---------------------------------------------------------------------------
// Typed payload helpers for the control vocabulary.
// ---------------------------------------------------------------------------

/// kStatus payload: one rank's termination-detection inputs. See
/// Transport::PublishStatus for field semantics.
struct WireRankStatus {
  int64_t pending = 0;
  uint8_t spawn_done = 0;
  /// sent_to[j]: data frames this rank handed to the wire for peer j;
  /// processed_from[i]: data frames from peer i this rank fully folded
  /// into its local state. Quiescence requires, for every ordered pair
  /// (i, j), status[i].sent_to[j] == status[j].processed_from[i] -- the
  /// per-pair form survives a rank being replaced mid-run, because both
  /// sides of a dead pair reset symmetrically.
  std::vector<uint64_t> sent_to;
  std::vector<uint64_t> processed_from;
  uint64_t pending_big = 0;
};

std::string EncodeRankStatus(const WireRankStatus& status);
Status DecodeRankStatus(const std::string& payload, WireRankStatus* status);

std::string EncodeHello(uint64_t pid);
Status DecodeHello(const std::string& payload, uint32_t* version,
                   uint64_t* pid);

/// `epoch` is the rank's incarnation number: 0 for the first launch,
/// incremented by the coordinator for every replacement of that rank.
std::string EncodeAssign(uint32_t rank, uint32_t world_size,
                         const std::string& config_blob, uint32_t epoch);
Status DecodeAssign(const std::string& payload, uint32_t* rank,
                    uint32_t* world_size, std::string* config_blob,
                    uint32_t* epoch);

std::string EncodeStealCmd(uint32_t receiver, uint64_t want);
Status DecodeStealCmd(const std::string& payload, uint32_t* receiver,
                      uint64_t* want);

/// kPeerHello payload: the dialing rank's incarnation epoch (the rank
/// itself rides in the frame's src field). A survivor that accepts a
/// hello with a newer epoch than it has seen runs the peer-down
/// transition for the old incarnation before swapping in the new
/// connection.
std::string EncodePeerHello(uint32_t epoch);
Status DecodePeerHello(const std::string& payload, uint32_t* epoch);

/// kHeartbeat payload: a monotonically increasing beacon sequence.
std::string EncodeHeartbeat(uint64_t seq);
Status DecodeHeartbeat(const std::string& payload, uint64_t* seq);

/// kPeerDown / kPeerUp payload: which rank changed state and the epoch
/// of the incarnation the transition refers to (down names the dead
/// incarnation's successor epoch; up confirms that successor is wired).
std::string EncodePeerEvent(uint32_t rank, uint32_t epoch);
Status DecodePeerEvent(const std::string& payload, uint32_t* rank,
                       uint32_t* epoch);

/// kStats payload: one periodic telemetry sample from a rank. Timestamps
/// are the sender's monotonic clock (comparable across loopback ranks);
/// `epoch` is the sending incarnation so samples from a dead incarnation
/// can be told apart from its successor's.
struct WireStatsSample {
  uint32_t epoch = 0;
  uint64_t ts_usec = 0;
  uint64_t queue_depth = 0;     // tasks waiting in the global queue
  uint64_t inflight_bytes = 0;  // fabric bytes sent but not yet processed
  uint64_t cache_hits = 0;      // cumulative vertex-cache hits
  uint64_t cache_misses = 0;    // cumulative vertex-cache misses
  uint32_t busy_compers = 0;    // compers inside Compute right now
  uint64_t tasks_completed = 0; // cumulative tasks finished
  int64_t pending = 0;          // local termination-detector pending count
};

std::string EncodeStatsSample(const WireStatsSample& sample);
Status DecodeStatsSample(const std::string& payload,
                         WireStatsSample* sample);

}  // namespace qcm

#endif  // QCM_NET_WIRE_H_
