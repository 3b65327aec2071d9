// Binary encoding/decoding used for task spilling to disk and for the
// inter-machine transfer of stolen tasks. Little-endian
// fixed-width integers plus varint-free length-prefixed containers; the
// format carries a small magic + checksum per blob so corrupted spill files
// surface as Status::Corruption instead of undefined behavior.

#ifndef QCM_UTIL_SERDE_H_
#define QCM_UTIL_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/status.h"

namespace qcm {

/// Appends typed values to a growable byte buffer.
class Encoder {
 public:
  Encoder() = default;

  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }

  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }

  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }

  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }

  void PutString(const std::string& s) {
    PutU64(s.size());
    buf_.append(s);
  }

  /// Length-prefixed vector of 32-bit values (vertex id lists).
  void PutU32Vector(const std::vector<uint32_t>& v) {
    PutU32Span(v.data(), v.size());
  }

  /// Length-prefixed span of 32-bit values; decodes via GetU32Vector.
  /// Avoids materializing a temporary vector when the source is a raw
  /// range (adjacency spans on the pull-serve path).
  void PutU32Span(const uint32_t* data, size_t n) {
    PutU64(n);
    if (n != 0) PutRaw(data, n * sizeof(uint32_t));
  }

  /// Length-prefixed vector of 64-bit values (offset arrays).
  void PutU64Vector(const std::vector<uint64_t>& v) {
    PutU64(v.size());
    if (!v.empty()) PutRaw(v.data(), v.size() * sizeof(uint64_t));
  }

  const std::string& buffer() const { return buf_; }
  std::string Release() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  void PutRaw(const void* p, size_t n) {
    buf_.append(reinterpret_cast<const char*>(p), n);
  }

  std::string buf_;
};

/// Reads typed values back from a byte span; all getters return
/// Status::Corruption on underflow rather than reading out of bounds.
class Decoder {
 public:
  Decoder(const char* data, size_t size) : data_(data), size_(size) {}
  explicit Decoder(const std::string& s) : Decoder(s.data(), s.size()) {}

  Status GetU8(uint8_t* out) { return GetRaw(out, sizeof(*out)); }
  Status GetU32(uint32_t* out) { return GetRaw(out, sizeof(*out)); }
  Status GetU64(uint64_t* out) { return GetRaw(out, sizeof(*out)); }
  Status GetI64(int64_t* out) { return GetRaw(out, sizeof(*out)); }
  Status GetDouble(double* out) { return GetRaw(out, sizeof(*out)); }

  Status GetString(std::string* out) {
    uint64_t n = 0;
    QCM_RETURN_IF_ERROR(GetU64(&n));
    if (n > Remaining()) return Underflow();
    out->assign(data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  Status GetU32Vector(std::vector<uint32_t>* out) {
    uint64_t n = 0;
    QCM_RETURN_IF_ERROR(GetU64(&n));
    if (n * sizeof(uint32_t) > Remaining()) return Underflow();
    out->resize(n);
    return n == 0 ? Status::OK() : GetRaw(out->data(), n * sizeof(uint32_t));
  }

  Status GetU64Vector(std::vector<uint64_t>* out) {
    uint64_t n = 0;
    QCM_RETURN_IF_ERROR(GetU64(&n));
    if (n * sizeof(uint64_t) > Remaining()) return Underflow();
    out->resize(n);
    return n == 0 ? Status::OK() : GetRaw(out->data(), n * sizeof(uint64_t));
  }

  size_t Remaining() const { return size_ - pos_; }
  bool Done() const { return pos_ == size_; }

 private:
  Status GetRaw(void* out, size_t n) {
    if (n > Remaining()) return Underflow();
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  static Status Underflow() {
    return Status::Corruption("decode underflow: truncated blob");
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// FNV-1a checksum over a byte buffer; cheap integrity guard for spill blobs.
/// Streamable: Fingerprint(a+b) == ExtendFingerprint(Fingerprint(a), b).
inline constexpr uint64_t kFingerprintSeed = 0xcbf29ce484222325ULL;
uint64_t ExtendFingerprint(uint64_t state, const char* data, size_t size);
inline uint64_t Fingerprint(const char* data, size_t size) {
  return ExtendFingerprint(kFingerprintSeed, data, size);
}
inline uint64_t Fingerprint(const std::string& s) {
  return Fingerprint(s.data(), s.size());
}

/// Frames `payload` as [magic u32][len u64][fingerprint u64][payload] and
/// appends it to `out`. Paired with ReadFramedBlob.
void AppendFramedBlob(const std::string& payload, std::string* out);

/// Reads one framed blob starting at *pos; advances *pos past it.
/// Returns Corruption on bad magic / truncation / checksum mismatch.
Status ReadFramedBlob(const std::string& buf, size_t* pos,
                      std::string* payload);

}  // namespace qcm

#endif  // QCM_UTIL_SERDE_H_
