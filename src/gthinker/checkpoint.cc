#include "gthinker/checkpoint.h"

#include <errno.h>
#include <sys/stat.h>
#include <sys/types.h>

#include <cstring>

#include "util/serde.h"
#include "util/timer.h"
#include "util/trace.h"

namespace qcm {

namespace {

/// Record framing around a payload: [type u8][len u32][payload][fnv u64].
constexpr size_t kRecordHeaderBytes = 1 + 4;
constexpr size_t kRecordTrailerBytes = 8;

std::string FrameRecord(uint8_t type, const std::string& payload) {
  std::string out;
  out.reserve(kRecordHeaderBytes + payload.size() + kRecordTrailerBytes);
  out.push_back(static_cast<char>(type));
  const uint32_t len = static_cast<uint32_t>(payload.size());
  out.append(reinterpret_cast<const char*>(&len), sizeof(len));
  out.append(payload);
  const uint64_t sum = Fingerprint(payload);
  out.append(reinterpret_cast<const char*>(&sum), sizeof(sum));
  return out;
}

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::OK();
  }
  return Status::IOError("mkdir " + dir + ": " + std::strerror(errno));
}

std::string ReadWholeFile(std::FILE* f) {
  std::string out;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  return out;
}

}  // namespace

CheckpointLog::~CheckpointLog() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Status CheckpointLog::Open(const std::string& dir, uint32_t epoch,
                           double flush_interval_sec, LoadResult* replay) {
  std::lock_guard<std::mutex> lock(mu_);
  QCM_RETURN_IF_ERROR(EnsureDir(dir));
  flush_interval_usec_ =
      static_cast<int64_t>(flush_interval_sec * 1e6);
  const std::string path = dir + "/log";
  if (epoch == 0) {
    // First incarnation: any log at this path is leftover state from an
    // unrelated earlier run and must not leak into this one.
    file_ = std::fopen(path.c_str(), "wb");
  } else {
    QCM_TRACE_SPAN(trace::kCheckpoint, "ckpt_replay", epoch);
    std::FILE* in = std::fopen(path.c_str(), "rb");
    std::string bytes;
    if (in != nullptr) {
      bytes = ReadWholeFile(in);
      std::fclose(in);
    }
    ParseRecords(bytes, replay);
    if (replay->torn_bytes > 0) {
      // Drop the torn tail on disk too, so this incarnation's appends
      // start at a record boundary.
      std::FILE* trunc = std::fopen(path.c_str(), "wb");
      if (trunc == nullptr) {
        return Status::IOError("checkpoint rewrite failed: " + path);
      }
      const size_t keep = bytes.size() - replay->torn_bytes;
      if (keep > 0 && std::fwrite(bytes.data(), 1, keep, trunc) != keep) {
        std::fclose(trunc);
        return Status::IOError("checkpoint rewrite failed: " + path);
      }
      std::fclose(trunc);
    }
    file_ = std::fopen(path.c_str(), "ab");
  }
  if (file_ == nullptr) {
    return Status::IOError("checkpoint open failed: " + path + ": " +
                           std::strerror(errno));
  }
  last_flush_usec_ = NowMicros();
  return Status::OK();
}

void CheckpointLog::AppendLocked(const std::string& record) {
  if (file_ == nullptr) return;
  std::fwrite(record.data(), 1, record.size(), file_);
  bytes_appended_ += record.size();
  const int64_t now = NowMicros();
  if (now - last_flush_usec_ >= flush_interval_usec_) {
    QCM_TRACE_SPAN(trace::kCheckpoint, "ckpt_flush", bytes_appended_);
    std::fflush(file_);
    last_flush_usec_ = now;
    ++flushes_;
  }
}

void CheckpointLog::AppendResult(const VertexSet& result) {
  std::lock_guard<std::mutex> lock(mu_);
  AppendLocked(EncodeResultRecord(result));
}

void CheckpointLog::AppendRootDone(VertexId root) {
  std::lock_guard<std::mutex> lock(mu_);
  AppendLocked(EncodeRootDoneRecord(root));
}

void CheckpointLog::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  QCM_TRACE_SPAN(trace::kCheckpoint, "ckpt_flush", bytes_appended_);
  std::fflush(file_);
  last_flush_usec_ = NowMicros();
  ++flushes_;
}

uint64_t CheckpointLog::flushes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flushes_;
}

uint64_t CheckpointLog::bytes_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_appended_;
}

std::string CheckpointLog::EncodeResultRecord(const VertexSet& result) {
  Encoder enc;
  enc.PutU32Vector(result);
  return FrameRecord(kResultRecord, enc.Release());
}

std::string CheckpointLog::EncodeRootDoneRecord(VertexId root) {
  Encoder enc;
  enc.PutU32(root);
  return FrameRecord(kRootDoneRecord, enc.Release());
}

void CheckpointLog::ParseRecords(const std::string& bytes, LoadResult* out) {
  size_t pos = 0;
  while (pos < bytes.size()) {
    const size_t remaining = bytes.size() - pos;
    if (remaining < kRecordHeaderBytes + kRecordTrailerBytes) break;
    const uint8_t type = static_cast<uint8_t>(bytes[pos]);
    uint32_t len = 0;
    std::memcpy(&len, bytes.data() + pos + 1, sizeof(len));
    if (type != kResultRecord && type != kRootDoneRecord) break;
    if (remaining < kRecordHeaderBytes + len + kRecordTrailerBytes) break;
    const char* payload = bytes.data() + pos + kRecordHeaderBytes;
    uint64_t sum = 0;
    std::memcpy(&sum, payload + len, sizeof(sum));
    if (sum != ExtendFingerprint(kFingerprintSeed, payload, len)) break;
    Decoder dec(payload, len);
    if (type == kResultRecord) {
      VertexSet result;
      if (!dec.GetU32Vector(&result).ok() || !dec.Done()) break;
      out->results.push_back(std::move(result));
    } else {
      VertexId root = 0;
      if (!dec.GetU32(&root).ok() || !dec.Done()) break;
      out->completed_roots.insert(root);
    }
    ++out->records;
    pos += kRecordHeaderBytes + len + kRecordTrailerBytes;
  }
  out->torn_bytes = bytes.size() - pos;
}

void RootProgress::OnSpawn(VertexId root) {
  std::lock_guard<std::mutex> lock(mu_);
  roots_[root] = State{1, false};
}

void RootProgress::OnSubtask(VertexId root) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = roots_.find(root);
  if (it != roots_.end()) ++it->second.outstanding;
}

void RootProgress::OnTaskDone(VertexId root) {
  bool done = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = roots_.find(root);
    if (it == roots_.end()) return;
    if (--it->second.outstanding > 0) return;
    done = !it->second.tainted;
    roots_.erase(it);
  }
  if (done && log_ != nullptr) log_->AppendRootDone(root);
}

void RootProgress::Taint(VertexId root) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = roots_.find(root);
  if (it != roots_.end()) it->second.tainted = true;
}

size_t RootProgress::tracked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return roots_.size();
}

}  // namespace qcm
