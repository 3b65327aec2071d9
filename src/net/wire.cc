#include "net/wire.h"

#include <errno.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <array>
#include <cstring>

#include "util/logging.h"
#include "util/serde.h"

namespace qcm {

const char* FrameKindName(FrameKind kind) {
  switch (kind) {
    case FrameKind::kHello:
      return "hello";
    case FrameKind::kAssign:
      return "assign";
    case FrameKind::kPeers:
      return "peers";
    case FrameKind::kPeerHello:
      return "peer-hello";
    case FrameKind::kReady:
      return "ready";
    case FrameKind::kStart:
      return "start";
    case FrameKind::kStatus:
      return "status";
    case FrameKind::kStealCmd:
      return "steal-cmd";
    case FrameKind::kTerminate:
      return "terminate";
    case FrameKind::kReport:
      return "report";
    case FrameKind::kData:
      return "data";
    case FrameKind::kAbort:
      return "abort";
    case FrameKind::kPeerDown:
      return "peer-down";
    case FrameKind::kPeerUp:
      return "peer-up";
  }
  return "?";
}

namespace {

void AppendFrameHeader(FrameKind kind, uint32_t src, uint32_t len,
                       std::string* out) {
  out->append(kWireMagic, sizeof(kWireMagic));
  out->push_back(static_cast<char>(kind));
  out->append(reinterpret_cast<const char*>(&src), sizeof(src));
  out->append(reinterpret_cast<const char*>(&len), sizeof(len));
}

void AppendChecksum(uint64_t sum, std::string* out) {
  out->append(reinterpret_cast<const char*>(&sum), sizeof(sum));
}

}  // namespace

std::string EncodeFrame(const Frame& frame) {
  std::string out;
  out.reserve(kWireHeaderBytes + frame.payload.size() + kWireTrailerBytes);
  AppendFrameHeader(frame.kind, frame.src,
                    static_cast<uint32_t>(frame.payload.size()), &out);
  out.append(frame.payload);
  AppendChecksum(Fingerprint(frame.payload), &out);
  return out;
}

namespace {

/// The payload meta prefix of a kData frame: type byte + send timestamp.
void AppendDataMeta(uint8_t type, uint64_t send_ts_usec, std::string* out) {
  out->push_back(static_cast<char>(type));
  out->append(reinterpret_cast<const char*>(&send_ts_usec),
              sizeof(send_ts_usec));
}

}  // namespace

DataFrameParts EncodeDataFrameParts(uint32_t src, uint8_t type,
                                    uint64_t send_ts_usec,
                                    const std::string& body) {
  DataFrameParts parts;
  parts.head.reserve(kWireHeaderBytes + kDataFrameMetaBytes);
  AppendFrameHeader(
      FrameKind::kData, src,
      static_cast<uint32_t>(body.size() + kDataFrameMetaBytes), &parts.head);
  AppendDataMeta(type, send_ts_usec, &parts.head);
  // Checksum covers the frame payload = meta + body; FNV-1a streams, so
  // no concatenated copy is needed -- the body bytes stay where the
  // fabric serialized them.
  AppendChecksum(
      ExtendFingerprint(
          ExtendFingerprint(kFingerprintSeed,
                            parts.head.data() + kWireHeaderBytes,
                            kDataFrameMetaBytes),
          body.data(), body.size()),
      &parts.trailer);
  return parts;
}

Status SplitDataFramePayload(const std::string& payload, uint8_t* type,
                             uint64_t* send_ts_usec, std::string* body) {
  if (payload.size() < kDataFrameMetaBytes) {
    return Status::Corruption("data frame payload shorter than its meta");
  }
  *type = static_cast<uint8_t>(payload[0]);
  std::memcpy(send_ts_usec, payload.data() + 1, sizeof(*send_ts_usec));
  body->assign(payload, kDataFrameMetaBytes,
               payload.size() - kDataFrameMetaBytes);
  return Status::OK();
}

Status DecodeFrame(const std::string& buf, size_t* pos, Frame* frame) {
  const size_t avail = buf.size() - *pos;
  if (avail < kWireHeaderBytes) {
    return Status::IOError("frame header truncated");
  }
  const char* p = buf.data() + *pos;
  if (std::memcmp(p, kWireMagic, sizeof(kWireMagic)) != 0) {
    return Status::Corruption("bad frame magic");
  }
  const uint8_t kind = static_cast<uint8_t>(p[4]);
  if (kind > static_cast<uint8_t>(FrameKind::kPeerUp)) {
    return Status::Corruption("unknown frame kind " + std::to_string(kind));
  }
  uint32_t src = 0;
  uint32_t len = 0;
  std::memcpy(&src, p + 5, sizeof(src));
  std::memcpy(&len, p + 9, sizeof(len));
  if (len > kMaxFramePayload) {
    return Status::Corruption("frame payload length " + std::to_string(len) +
                              " exceeds cap");
  }
  if (avail < kWireHeaderBytes + len + kWireTrailerBytes) {
    return Status::IOError("frame body truncated");
  }
  frame->kind = static_cast<FrameKind>(kind);
  frame->src = src;
  frame->payload.assign(p + kWireHeaderBytes, len);
  uint64_t sum = 0;
  std::memcpy(&sum, p + kWireHeaderBytes + len, sizeof(sum));
  if (sum != Fingerprint(frame->payload)) {
    return Status::Corruption("frame checksum mismatch");
  }
  *pos += kWireHeaderBytes + len + kWireTrailerBytes;
  return Status::OK();
}

Status WriteFrame(int fd, const Frame& frame) {
  // Enforce the cap at the sender, where the error can name the real
  // cause -- the receiver would only see an unexplained oversized frame
  // from an apparently-dead peer.
  if (frame.payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(frame.payload.size()) +
        " bytes exceeds the " + std::to_string(kMaxFramePayload) +
        "-byte wire cap");
  }
  const std::string bytes = EncodeFrame(frame);
  const WireSlice slice{bytes.data(), bytes.size()};
  return WriteFrameSlices(fd, {&slice, 1});
}

Status WriteFrameSlices(int fd, std::span<const WireSlice> slices,
                        uint64_t* syscalls) {
  // Mutable iovec window over the caller's slices; partial writes advance
  // base/len in place instead of re-copying any bytes.
  QCM_CHECK(slices.size() <= kMaxFrameSlices)
      << slices.size() << " slices for one frame write";
  std::array<struct iovec, kMaxFrameSlices> iov{};
  size_t count = 0;
  for (const WireSlice& s : slices) {
    if (s.len == 0) continue;
    iov[count++] = {const_cast<char*>(s.data), s.len};
  }
  size_t i = 0;
  bool use_sendmsg = true;  // MSG_NOSIGNAL: a closed peer must surface
                            // as EPIPE, never as a process-killing SIGPIPE
  while (i < count) {
    ssize_t n;
    if (use_sendmsg) {
      struct msghdr msg = {};
      msg.msg_iov = iov.data() + i;
      msg.msg_iovlen = count - i;
      n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
      if (n < 0 && errno == ENOTSOCK) {
        use_sendmsg = false;  // pipe/file fd (tests): plain writev
        continue;
      }
    } else {
      n = ::writev(fd, iov.data() + i, static_cast<int>(count - i));
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("frame writev failed: ") +
                             std::strerror(errno));
    }
    if (syscalls != nullptr) ++*syscalls;
    size_t written = static_cast<size_t>(n);
    while (i < count && written >= iov[i].iov_len) {
      written -= iov[i].iov_len;
      ++i;
    }
    if (written > 0) {
      iov[i].iov_base = static_cast<char*>(iov[i].iov_base) + written;
      iov[i].iov_len -= written;
    }
  }
  return Status::OK();
}

namespace {

/// Reads exactly `n` bytes. An EOF before the first byte returns
/// Aborted("connection closed") when `clean_eof_ok` (a frame boundary is
/// a legitimate place for the peer to close); any other EOF is
/// Corruption -- the peer died mid-frame.
Status ReadExactly(int fd, char* out, size_t n, bool clean_eof_ok) {
  size_t off = 0;
  while (off < n) {
    const ssize_t r = ::read(fd, out + off, n - off);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("frame read failed: ") +
                             std::strerror(errno));
    }
    if (r == 0) {
      if (off == 0 && clean_eof_ok) {
        return Status::Aborted("connection closed");
      }
      return Status::Corruption("EOF inside a frame");
    }
    off += static_cast<size_t>(r);
  }
  return Status::OK();
}

}  // namespace

Status ReadFrame(int fd, Frame* frame) {
  // Only the framing itself (magic + length, needed to know how many
  // bytes to pull off the socket) is interpreted here; everything else
  // is validated by the one DecodeFrame implementation the byte-pinning
  // tests exercise.
  std::string buf(kWireHeaderBytes, '\0');
  QCM_RETURN_IF_ERROR(
      ReadExactly(fd, buf.data(), kWireHeaderBytes, /*clean_eof_ok=*/true));
  if (std::memcmp(buf.data(), kWireMagic, sizeof(kWireMagic)) != 0) {
    return Status::Corruption("bad frame magic");
  }
  uint32_t len = 0;
  std::memcpy(&len, buf.data() + 9, sizeof(len));
  if (len > kMaxFramePayload) {
    return Status::Corruption("frame payload length " + std::to_string(len) +
                              " exceeds cap");
  }
  buf.resize(kWireHeaderBytes + len + kWireTrailerBytes);
  QCM_RETURN_IF_ERROR(ReadExactly(fd, buf.data() + kWireHeaderBytes,
                                  len + kWireTrailerBytes,
                                  /*clean_eof_ok=*/false));
  size_t pos = 0;
  return DecodeFrame(buf, &pos, frame);
}

Status ReadFrameOfKind(int fd, FrameKind want, Frame* frame) {
  QCM_RETURN_IF_ERROR(ReadFrame(fd, frame));
  if (frame->kind != want) {
    return Status::Corruption(std::string("expected ") + FrameKindName(want) +
                              ", got " + FrameKindName(frame->kind));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Typed payloads.
// ---------------------------------------------------------------------------

std::string EncodeRankStatus(const RankStatus& status) {
  Encoder enc;
  enc.PutI64(status.pending);
  enc.PutU8(status.spawn_done ? 1 : 0);
  enc.PutU64Vector(status.sent_to);
  enc.PutU64Vector(status.processed_from);
  enc.PutU64(status.pending_big);
  enc.PutU32(status.busy_compers);
  enc.PutU64(status.inflight_bytes);
  enc.PutU64(status.cache_hits);
  enc.PutU64(status.cache_misses);
  enc.PutU64(status.tasks_completed);
  return enc.Release();
}

Status DecodeRankStatus(const std::string& payload, RankStatus* status) {
  Decoder dec(payload);
  uint8_t spawn_done = 0;
  QCM_RETURN_IF_ERROR(dec.GetI64(&status->pending));
  QCM_RETURN_IF_ERROR(dec.GetU8(&spawn_done));
  if (spawn_done > 1) return Status::Corruption("bad spawn_done in status");
  status->spawn_done = spawn_done != 0;
  QCM_RETURN_IF_ERROR(dec.GetU64Vector(&status->sent_to));
  QCM_RETURN_IF_ERROR(dec.GetU64Vector(&status->processed_from));
  QCM_RETURN_IF_ERROR(dec.GetU64(&status->pending_big));
  QCM_RETURN_IF_ERROR(dec.GetU32(&status->busy_compers));
  QCM_RETURN_IF_ERROR(dec.GetU64(&status->inflight_bytes));
  QCM_RETURN_IF_ERROR(dec.GetU64(&status->cache_hits));
  QCM_RETURN_IF_ERROR(dec.GetU64(&status->cache_misses));
  QCM_RETURN_IF_ERROR(dec.GetU64(&status->tasks_completed));
  if (!dec.Done()) return Status::Corruption("trailing bytes in status");
  return Status::OK();
}

std::string EncodeHello(uint16_t listener_port) {
  Encoder enc;
  enc.PutU32(kWireProtocolVersion);
  enc.PutU32(listener_port);
  return enc.Release();
}

Status DecodeHello(const std::string& payload, uint32_t* version,
                   uint16_t* listener_port) {
  Decoder dec(payload);
  uint32_t port = 0;
  QCM_RETURN_IF_ERROR(dec.GetU32(version));
  QCM_RETURN_IF_ERROR(dec.GetU32(&port));
  if (!dec.Done()) return Status::Corruption("trailing bytes in hello");
  if (port == 0 || port > 65535) {
    return Status::Corruption("bad listener port " + std::to_string(port) +
                              " in hello");
  }
  *listener_port = static_cast<uint16_t>(port);
  return Status::OK();
}

std::string EncodeAssign(uint32_t rank, uint32_t world_size,
                         const std::string& config_blob, uint32_t epoch) {
  Encoder enc;
  enc.PutU32(rank);
  enc.PutU32(world_size);
  enc.PutString(config_blob);
  enc.PutU32(epoch);
  return enc.Release();
}

Status DecodeAssign(const std::string& payload, uint32_t* rank,
                    uint32_t* world_size, std::string* config_blob,
                    uint32_t* epoch) {
  Decoder dec(payload);
  QCM_RETURN_IF_ERROR(dec.GetU32(rank));
  QCM_RETURN_IF_ERROR(dec.GetU32(world_size));
  QCM_RETURN_IF_ERROR(dec.GetString(config_blob));
  QCM_RETURN_IF_ERROR(dec.GetU32(epoch));
  if (!dec.Done()) return Status::Corruption("trailing bytes in assign");
  return Status::OK();
}

std::string EncodeStealCmd(uint32_t receiver, uint64_t want) {
  Encoder enc;
  enc.PutU32(receiver);
  enc.PutU64(want);
  return enc.Release();
}

Status DecodeStealCmd(const std::string& payload, uint32_t* receiver,
                      uint64_t* want) {
  Decoder dec(payload);
  QCM_RETURN_IF_ERROR(dec.GetU32(receiver));
  QCM_RETURN_IF_ERROR(dec.GetU64(want));
  if (!dec.Done()) return Status::Corruption("trailing bytes in steal-cmd");
  return Status::OK();
}

std::string EncodePeerHello(uint32_t epoch) {
  Encoder enc;
  enc.PutU32(epoch);
  return enc.Release();
}

Status DecodePeerHello(const std::string& payload, uint32_t* epoch) {
  // A v3 peer hello had an empty payload; that worker predates recovery
  // and can only be epoch 0, but mixed versions are rejected at kHello
  // anyway -- so an empty payload here is corruption, not compatibility.
  Decoder dec(payload);
  QCM_RETURN_IF_ERROR(dec.GetU32(epoch));
  if (!dec.Done()) return Status::Corruption("trailing bytes in peer-hello");
  return Status::OK();
}

std::string EncodePeerEvent(uint32_t rank, uint32_t epoch) {
  Encoder enc;
  enc.PutU32(rank);
  enc.PutU32(epoch);
  return enc.Release();
}

Status DecodePeerEvent(const std::string& payload, uint32_t* rank,
                       uint32_t* epoch) {
  Decoder dec(payload);
  QCM_RETURN_IF_ERROR(dec.GetU32(rank));
  QCM_RETURN_IF_ERROR(dec.GetU32(epoch));
  if (!dec.Done()) return Status::Corruption("trailing bytes in peer event");
  return Status::OK();
}

}  // namespace qcm
