#include "graph/csr_snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/logging.h"
#include "util/serde.h"

namespace qcm {

namespace {

std::string At(const std::string& path, uint64_t offset,
               const std::string& what) {
  return path + ":" + std::to_string(offset) + ": " + what;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool IsPow2(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

uint64_t AlignUp(uint64_t v, uint64_t align) {
  return (v + align - 1) / align * align;
}

// Reads up to `len` bytes at `offset`, retrying EINTR and short reads.
// Returns the bytes read -- fewer than `len` only at end of file -- or -1
// on an I/O error (errno set).
ssize_t PreadFull(int fd, void* buf, size_t len, uint64_t offset) {
  char* p = static_cast<char*>(buf);
  size_t done = 0;
  while (done < len) {
    const ssize_t r = ::pread(fd, p + done, len - done,
                              static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (r == 0) break;
    done += static_cast<size_t>(r);
  }
  return static_cast<ssize_t>(done);
}

// Serializes the header into its fixed kCsrHeaderBytes image. The checksum
// field is computed over the bytes before it, so callers fill it after a
// first pass with checksum 0.
std::string EncodeHeader(const CsrHeader& h) {
  Encoder enc;
  enc.PutU32(h.magic);
  enc.PutU32(h.version);
  enc.PutU32(h.page_size);
  enc.PutU32(h.num_vertices);
  enc.PutU64(h.num_edges);
  enc.PutU64(h.file_bytes);
  for (const CsrSectionDesc& s : h.sections) {
    enc.PutU64(s.file_offset);
    enc.PutU64(s.bytes);
    enc.PutU64(s.checksum);
  }
  enc.PutU64(h.header_checksum);
  return enc.Release();
}

// Buffered sequential file writer tracking the absolute offset, so
// section layout and padding stay in one place.
class FileWriter {
 public:
  FileWriter(int fd, std::string path) : fd_(fd), path_(std::move(path)) {
    buf_.reserve(kBufCap);
  }

  Status Append(const void* data, size_t n) {
    const char* p = static_cast<const char*>(data);
    while (n != 0) {
      const size_t take = std::min(n, kBufCap - buf_.size());
      buf_.append(p, take);
      p += take;
      n -= take;
      offset_ += take;
      if (buf_.size() == kBufCap) QCM_RETURN_IF_ERROR(Flush());
    }
    return Status::OK();
  }

  Status PadTo(uint64_t target) {
    static const char zeros[4096] = {0};
    while (offset_ < target) {
      const size_t n =
          std::min<uint64_t>(sizeof(zeros), target - offset_);
      QCM_RETURN_IF_ERROR(Append(zeros, n));
    }
    return Status::OK();
  }

  Status Flush() {
    const char* p = buf_.data();
    size_t n = buf_.size();
    while (n != 0) {
      const ssize_t w = ::write(fd_, p, n);
      if (w < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(path_ + ": write: " +
                               std::string(std::strerror(errno)));
      }
      p += w;
      n -= static_cast<size_t>(w);
    }
    buf_.clear();
    return Status::OK();
  }

  uint64_t offset() const { return offset_; }

 private:
  static constexpr size_t kBufCap = 1u << 20;
  int fd_;
  std::string path_;
  std::string buf_;
  uint64_t offset_ = 0;
};

}  // namespace

const char* CsrSectionName(int section) {
  switch (section) {
    case kCsrOffsets: return "offsets";
    case kCsrOriginalIds: return "original-ids";
    case kCsrAdjacency: return "adjacency";
    default: return "unknown";
  }
}

Status WriteCsrSnapshot(const Graph& g, const IdMap& original_ids,
                        const std::string& path) {
  const uint32_t n = g.NumVertices();
  const uint64_t m = g.NumEdges();
  if (!original_ids.ids.empty() && original_ids.ids.size() != n) {
    return Status::InvalidArgument(
        "original-id map has " + std::to_string(original_ids.ids.size()) +
        " entries for a " + std::to_string(n) + "-vertex graph");
  }

  CsrHeader hdr;
  hdr.num_vertices = n;
  hdr.num_edges = m;
  const uint64_t psz = hdr.page_size;
  hdr.sections[kCsrOffsets].bytes = (uint64_t{n} + 1) * sizeof(uint64_t);
  hdr.sections[kCsrOriginalIds].bytes = uint64_t{n} * sizeof(uint64_t);
  hdr.sections[kCsrAdjacency].bytes = 2 * m * sizeof(VertexId);
  uint64_t off = psz;  // header occupies page 0
  for (CsrSectionDesc& s : hdr.sections) {
    s.file_offset = off;
    off = AlignUp(off + s.bytes, psz);
  }
  hdr.file_bytes =
      hdr.sections[kCsrAdjacency].file_offset +
      hdr.sections[kCsrAdjacency].bytes + sizeof(kCsrTailMagic);

  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError(path + ": open: " +
                           std::string(std::strerror(errno)));
  }
  FileWriter out(fd, path);
  auto fail = [&](Status s) {
    ::close(fd);
    ::unlink(path.c_str());
    return s;
  };

  // Pass 1: header with a zero checksum; rewritten once sections land.
  std::string header_img = EncodeHeader(hdr);
  if (Status s = out.Append(header_img.data(), header_img.size()); !s.ok())
    return fail(s);

  // Offsets.
  if (Status s = out.PadTo(hdr.sections[kCsrOffsets].file_offset); !s.ok())
    return fail(s);
  {
    std::vector<uint64_t> offsets(uint64_t{n} + 1, 0);
    for (VertexId v = 0; v < n; ++v)
      offsets[v + 1] = offsets[v] + g.Degree(v);
    hdr.sections[kCsrOffsets].checksum =
        Fingerprint(reinterpret_cast<const char*>(offsets.data()),
                    hdr.sections[kCsrOffsets].bytes);
    if (Status s = out.Append(offsets.data(),
                              hdr.sections[kCsrOffsets].bytes);
        !s.ok())
      return fail(s);
  }

  // Original ids.
  if (Status s = out.PadTo(hdr.sections[kCsrOriginalIds].file_offset);
      !s.ok())
    return fail(s);
  {
    std::vector<uint64_t> ids(n);
    for (VertexId v = 0; v < n; ++v) ids[v] = original_ids[v];
    hdr.sections[kCsrOriginalIds].checksum =
        Fingerprint(reinterpret_cast<const char*>(ids.data()),
                    hdr.sections[kCsrOriginalIds].bytes);
    if (Status s = out.Append(ids.data(),
                              hdr.sections[kCsrOriginalIds].bytes);
        !s.ok())
      return fail(s);
  }

  // Adjacency, streamed per vertex.
  if (Status s = out.PadTo(hdr.sections[kCsrAdjacency].file_offset); !s.ok())
    return fail(s);
  {
    uint64_t fp = kFingerprintSeed;
    for (VertexId v = 0; v < n; ++v) {
      auto adj = g.Neighbors(v);
      if (adj.empty()) continue;
      const char* bytes = reinterpret_cast<const char*>(adj.data());
      const size_t len = adj.size() * sizeof(VertexId);
      fp = ExtendFingerprint(fp, bytes, len);
      if (Status s = out.Append(bytes, len); !s.ok()) return fail(s);
    }
    hdr.sections[kCsrAdjacency].checksum = fp;
  }

  // Tail sentinel.
  if (Status s = out.Append(&kCsrTailMagic, sizeof(kCsrTailMagic)); !s.ok())
    return fail(s);
  if (Status s = out.Flush(); !s.ok()) return fail(s);
  QCM_CHECK(out.offset() == hdr.file_bytes)
      << "snapshot writer layout mismatch: wrote " << out.offset()
      << " bytes, header declares " << hdr.file_bytes;

  // Pass 2: final header with section checksums + header checksum.
  header_img = EncodeHeader(hdr);
  hdr.header_checksum =
      Fingerprint(header_img.data(), kCsrHeaderBytes - sizeof(uint64_t));
  header_img = EncodeHeader(hdr);
  for (size_t done = 0; done < header_img.size();) {
    const ssize_t w = ::pwrite(fd, header_img.data() + done,
                               header_img.size() - done, done);
    if (w < 0) {
      if (errno == EINTR) continue;
      return fail(Status::IOError(path + ": pwrite header: " +
                                  std::string(std::strerror(errno))));
    }
    done += static_cast<size_t>(w);
  }
  if (::fsync(fd) != 0) {
    return fail(Status::IOError(path + ": fsync: " +
                                std::string(std::strerror(errno))));
  }
  ::close(fd);
  return Status::OK();
}

StatusOr<std::shared_ptr<CsrSnapshot>> CsrSnapshot::Open(
    const std::string& path, const OpenOptions& opts) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError(path + ": open: " +
                           std::string(std::strerror(errno)));
  }
  auto snap = std::shared_ptr<CsrSnapshot>(new CsrSnapshot());
  snap->path_ = path;
  snap->fd_ = fd;

  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return Status::IOError(path + ": fstat: " +
                           std::string(std::strerror(errno)));
  }
  const uint64_t actual_bytes = static_cast<uint64_t>(st.st_size);
  if (actual_bytes < kCsrHeaderBytes) {
    return Status::Corruption(
        At(path, 0, "truncated header: file is only " +
                        std::to_string(actual_bytes) + " bytes"));
  }

  // Parse + validate the header from a pread (the page size that governs
  // the mapping is not known until the header is read).
  char raw[kCsrHeaderBytes];
  if (PreadFull(fd, raw, sizeof(raw), 0) < 0) {
    return Status::IOError(path + ": pread header: " +
                           std::string(std::strerror(errno)));
  }
  CsrHeader& h = snap->hdr_;
  Decoder dec(raw, sizeof(raw));
  QCM_CHECK(dec.GetU32(&h.magic).ok() && dec.GetU32(&h.version).ok() &&
            dec.GetU32(&h.page_size).ok() &&
            dec.GetU32(&h.num_vertices).ok() &&
            dec.GetU64(&h.num_edges).ok() && dec.GetU64(&h.file_bytes).ok());
  for (CsrSectionDesc& s : h.sections) {
    QCM_CHECK(dec.GetU64(&s.file_offset).ok() && dec.GetU64(&s.bytes).ok() &&
              dec.GetU64(&s.checksum).ok());
  }
  QCM_CHECK(dec.GetU64(&h.header_checksum).ok() && dec.Done());

  if (h.magic != kCsrMagic) {
    return Status::Corruption(
        At(path, 0, "bad magic " + Hex(h.magic) + " (want " +
                        Hex(kCsrMagic) + "): not a .qcsr snapshot"));
  }
  if (h.version != kCsrVersion) {
    return Status::Corruption(
        At(path, 4, "unsupported snapshot version " +
                        std::to_string(h.version) + " (this build reads v" +
                        std::to_string(kCsrVersion) + ")"));
  }
  if (h.page_size < kCsrMinPageSize || !IsPow2(h.page_size) ||
      h.page_size > (1u << 30)) {
    return Status::Corruption(
        At(path, 8, "bad page size " + std::to_string(h.page_size)));
  }
  const uint64_t want_hdr_fp =
      Fingerprint(raw, kCsrHeaderBytes - sizeof(uint64_t));
  if (h.header_checksum != want_hdr_fp) {
    return Status::Corruption(
        At(path, kCsrHeaderBytes - sizeof(uint64_t),
           "header checksum mismatch (stored " + Hex(h.header_checksum) +
               ", computed " + Hex(want_hdr_fp) + ")"));
  }
  if (h.file_bytes != actual_bytes) {
    return Status::Corruption(
        At(path, 24, "torn tail: header declares " +
                         std::to_string(h.file_bytes) + " bytes, file has " +
                         std::to_string(actual_bytes)));
  }

  // Section geometry: expected sizes, page alignment, in-bounds. Every
  // field is untrusted, so nothing here may wrap: num_edges is bounded by
  // the file before it is multiplied, and a section's end is checked by
  // subtraction. `room` is the file less its tail sentinel; file_bytes is
  // the actual size, at least kCsrHeaderBytes.
  const uint64_t n = h.num_vertices;
  const uint64_t room = h.file_bytes - sizeof(kCsrTailMagic);
  if (h.num_edges > room / (2 * sizeof(VertexId))) {
    return Status::Corruption(
        At(path, 16, std::to_string(h.num_edges) +
                         " edges cannot fit in a file of " +
                         std::to_string(h.file_bytes) + " bytes"));
  }
  const uint64_t expected_bytes[kCsrNumSections] = {
      (n + 1) * sizeof(uint64_t), n * sizeof(uint64_t),
      2 * h.num_edges * sizeof(VertexId)};
  for (int i = 0; i < kCsrNumSections; ++i) {
    const CsrSectionDesc& s = h.sections[i];
    if (s.bytes != expected_bytes[i] || s.file_offset % h.page_size != 0 ||
        s.file_offset < h.page_size || s.bytes > room ||
        s.file_offset > room - s.bytes) {
      return Status::Corruption(
          At(path, 32 + static_cast<uint64_t>(i) * 24,
             std::string(CsrSectionName(i)) + " section descriptor invalid" +
                 " (offset " + std::to_string(s.file_offset) + ", " +
                 std::to_string(s.bytes) + " bytes, expected " +
                 std::to_string(expected_bytes[i]) + " bytes)"));
    }
  }

  uint64_t tail = 0;
  if (PreadFull(fd, &tail, sizeof(tail), h.file_bytes - sizeof(tail)) < 0) {
    return Status::IOError(path + ": pread tail: " +
                           std::string(std::strerror(errno)));
  }
  if (tail != kCsrTailMagic) {
    return Status::Corruption(
        At(path, h.file_bytes - sizeof(tail),
           "torn tail: sentinel is " + Hex(tail) + " (want " +
               Hex(kCsrTailMagic) + ")"));
  }

  void* map = ::mmap(nullptr, h.file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  if (map == MAP_FAILED) {
    return Status::IOError(path + ": mmap: " +
                           std::string(std::strerror(errno)));
  }
  snap->map_ = static_cast<uint8_t*>(map);
  snap->map_len_ = h.file_bytes;
  snap->offsets_ = reinterpret_cast<const uint64_t*>(
      snap->map_ + h.sections[kCsrOffsets].file_offset);
  snap->original_ids_ = reinterpret_cast<const uint64_t*>(
      snap->map_ + h.sections[kCsrOriginalIds].file_offset);
  snap->adj_ = reinterpret_cast<const VertexId*>(
      snap->map_ + h.sections[kCsrAdjacency].file_offset);

  // Offset-array sanity: every accessor indexes adjacency through these,
  // so a corrupt row must be caught here regardless of checksum options.
  if (snap->offsets_[0] != 0 || snap->offsets_[n] != 2 * h.num_edges) {
    return Status::Corruption(
        At(path, h.sections[kCsrOffsets].file_offset,
           "offsets section endpoints invalid (offsets[0]=" +
               std::to_string(snap->offsets_[0]) + ", offsets[n]=" +
               std::to_string(snap->offsets_[n]) + ", 2m=" +
               std::to_string(2 * h.num_edges) + ")"));
  }
  for (uint64_t v = 0; v < n; ++v) {
    if (snap->offsets_[v] > snap->offsets_[v + 1]) {
      return Status::Corruption(
          At(path,
             h.sections[kCsrOffsets].file_offset + v * sizeof(uint64_t),
             "offsets section not monotone at vertex " + std::to_string(v)));
    }
  }

  const int last =
      opts.verify_adjacency ? kCsrAdjacency : kCsrOriginalIds;
  if (opts.verify_sections) {
    for (int i = 0; i <= last; ++i) {
      const CsrSectionDesc& s = h.sections[i];
      const uint64_t fp = Fingerprint(
          reinterpret_cast<const char*>(snap->map_ + s.file_offset),
          s.bytes);
      if (fp != s.checksum) {
        return Status::Corruption(
            At(path, s.file_offset,
               std::string(CsrSectionName(i)) +
                   " section checksum mismatch (stored " + Hex(s.checksum) +
                   ", computed " + Hex(fp) + ")"));
      }
    }
  }
  return snap;
}

IdMap CsrSnapshot::OriginalIds() const {
  IdMap map;
  const uint32_t n = hdr_.num_vertices;
  if (n == 0) return map;
  VertexId v = 1;
  while (v < n && original_ids_[v] == original_ids_[0] + v) ++v;
  if (v == n) {
    map.first = original_ids_[0];
  } else {
    map.ids.assign(original_ids_, original_ids_ + n);
  }
  return map;
}

Status CsrSnapshot::ReadNeighbors(VertexId v,
                                  std::vector<VertexId>* out) const {
  out->resize(offsets_[v + 1] - offsets_[v]);
  const size_t len = out->size() * sizeof(VertexId);
  const uint64_t offset = hdr_.sections[kCsrAdjacency].file_offset +
                          offsets_[v] * sizeof(VertexId);
  const ssize_t got = PreadFull(fd_, out->data(), len, offset);
  if (got == static_cast<ssize_t>(len)) return Status::OK();
  return Status::IOError(At(
      path_, offset,
      "pread of vertex " + std::to_string(v) + "'s " + std::to_string(len) +
          "-byte adjacency list: " +
          (got < 0 ? std::string(std::strerror(errno))
                   : "end of file after " + std::to_string(got) +
                         " bytes (the file shrank after it was opened)")));
}

CsrSnapshot::~CsrSnapshot() {
  if (map_ != nullptr) ::munmap(map_, map_len_);
  if (fd_ >= 0) ::close(fd_);
}

StatusOr<Graph> CsrSnapshot::ToGraph() const {
  std::vector<VertexId> endpoints;
  endpoints.reserve(2 * hdr_.num_edges);
  for (VertexId v = 0; v < hdr_.num_vertices; ++v) {
    for (VertexId u : Neighbors(v)) {
      if (v < u) {
        endpoints.push_back(v);
        endpoints.push_back(u);
      }
    }
  }
  return Graph::FromEndpoints(hdr_.num_vertices, std::move(endpoints));
}

}  // namespace qcm
