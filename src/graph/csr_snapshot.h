// Binary on-disk CSR graph snapshots (.qcsr): the out-of-core storage
// format of the system. A snapshot is a page-aligned, versioned,
// per-section checksummed image of an immutable Graph plus its original
// external ids, laid out so a worker can mmap the file and touch only the
// pages that hold its partition instead of text-parsing and transiently
// materializing the full graph (ROADMAP "out-of-core graph storage").
//
// File layout (all integers little-endian; every section starts on a
// page_size boundary and is padded with zeros up to the next one):
//
//   offset 0    header (112 bytes, zero-padded to page_size)
//     +0   u32  magic "QCSR"
//     +4   u32  format version (2)
//     +8   u32  page_size (power of two, >= 4096)
//     +12  u32  num_vertices
//     +16  u64  num_edges (undirected)
//     +24  u64  file_bytes (total size incl. tail sentinel)
//     +32  3 x {u64 file_offset, u64 bytes, u64 fnv1a checksum}
//          section table: offsets, original-ids, adjacency
//     +104 u64  fnv1a checksum of header bytes [0, 104)
//   offsets       u64[n+1]  adjacency entry offsets (CSR row starts)
//   original-ids  u64[n]    dense id -> external id map (IdMap)
//   adjacency     u32[2m]   concatenated sorted adjacency lists
//   tail          u64       tail magic at file_bytes-8 (torn-tail guard)
//
// Each fact is stored once: a vertex's degree is its row's length,
// offsets[v+1] - offsets[v], as in Graph, so no two sections can disagree.
//
// The adjacency section is deliberately last: a rank validates the two
// metadata sections (a contiguous prefix) and then reads adjacency on
// demand -- through the mapping, or, under a memory budget, one list at a
// time with pread (ReadNeighbors; gthinker/vertex_table.h caches the
// copies).

#ifndef QCM_GRAPH_CSR_SNAPSHOT_H_
#define QCM_GRAPH_CSR_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/id_map.h"
#include "util/status.h"

namespace qcm {

inline constexpr uint32_t kCsrMagic = 0x52534351u;  // "QCSR" little-endian
inline constexpr uint32_t kCsrVersion = 2;
inline constexpr uint32_t kCsrMinPageSize = 4096;
inline constexpr uint32_t kCsrDefaultPageSize = 1u << 16;
inline constexpr uint64_t kCsrTailMagic = 0x4c494154'52534351ull;  // "QCSRTAIL"
inline constexpr size_t kCsrHeaderBytes = 112;

/// Section ids, in file order.
enum CsrSectionId : int {
  kCsrOffsets = 0,
  kCsrOriginalIds = 1,
  kCsrAdjacency = 2,
  kCsrNumSections = 3,
};

const char* CsrSectionName(int section);

struct CsrSectionDesc {
  uint64_t file_offset = 0;  // page_size-aligned
  uint64_t bytes = 0;        // payload bytes, unpadded
  uint64_t checksum = 0;     // FNV-1a over the payload
};

struct CsrHeader {
  uint32_t magic = kCsrMagic;
  uint32_t version = kCsrVersion;
  uint32_t page_size = kCsrDefaultPageSize;
  uint32_t num_vertices = 0;
  uint64_t num_edges = 0;
  uint64_t file_bytes = 0;
  CsrSectionDesc sections[kCsrNumSections];
  uint64_t header_checksum = 0;
};

/// Packs `g` into a .qcsr snapshot at `path`, every section padded to
/// kCsrDefaultPageSize. The original-ids section holds original_ids[v]
/// for every vertex v (the identity for the default map); a map with a
/// table must have exactly NumVertices() entries. Overwrites any existing
/// file.
Status WriteCsrSnapshot(const Graph& g, const IdMap& original_ids,
                        const std::string& path);

/// A read-only mmap of a .qcsr file. Open() always validates the header
/// (magic/version/page-size/checksum), the declared-vs-actual file size,
/// the tail sentinel, section-table geometry (in arithmetic that cannot
/// wrap) and offset-array monotonicity -- so the accessors below can never
/// read out of bounds on a corrupt file. Section checksum verification is
/// opt-out for the adjacency section only, because streaming it faults
/// every page (a budget-constrained rank wants to avoid exactly that).
///
/// Neighbors() returns a span into the mapping, valid for the lifetime of
/// the CsrSnapshot; ReadNeighbors() copies a list out of the file and
/// never touches the mapping.
class CsrSnapshot {
 public:
  struct OpenOptions {
    /// Stream-verify the offsets/original-ids checksums.
    bool verify_sections = true;
    /// Also stream-verify the adjacency checksum (touches every page).
    bool verify_adjacency = false;
  };

  static StatusOr<std::shared_ptr<CsrSnapshot>> Open(
      const std::string& path, const OpenOptions& opts);
  static StatusOr<std::shared_ptr<CsrSnapshot>> Open(const std::string& path) {
    return Open(path, OpenOptions{});
  }

  ~CsrSnapshot();
  CsrSnapshot(const CsrSnapshot&) = delete;
  CsrSnapshot& operator=(const CsrSnapshot&) = delete;

  const CsrHeader& header() const { return hdr_; }
  const std::string& path() const { return path_; }
  uint32_t NumVertices() const { return hdr_.num_vertices; }
  uint64_t NumEdges() const { return hdr_.num_edges; }
  uint32_t page_size() const { return hdr_.page_size; }

  /// Total bytes mapped (the whole file).
  uint64_t MappedBytes() const { return map_len_; }

  /// v's row length.
  uint32_t Degree(VertexId v) const {
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// CSR row start of v, in adjacency *entries* (not bytes).
  uint64_t AdjOffset(VertexId v) const { return offsets_[v]; }

  /// The mapped row starts (NumVertices()+1 entries) and adjacency.
  const uint64_t* offsets() const { return offsets_; }
  const VertexId* adjacency() const { return adj_; }

  uint64_t OriginalId(VertexId v) const { return original_ids_[v]; }

  /// The original-ids section as a map: one run first .. first+n-1 is
  /// {first} with no table, anything else a copy of the section.
  IdMap OriginalIds() const;

  std::span<const VertexId> Neighbors(VertexId v) const {
    return {adj_ + offsets_[v], adj_ + offsets_[v + 1]};
  }

  /// Reads v's adjacency list into `out` (resized to fit) with pread on
  /// the file, retrying EINTR and short reads. An I/O error, or an end of
  /// file before the list ends (the file shrank after Open), is an
  /// IOError naming the file, the vertex and the offset.
  Status ReadNeighbors(VertexId v, std::vector<VertexId>* out) const;

  /// Materializes a fully resident in-memory Graph (the qcm_mine
  /// resident-load path; also the parity reference in tests).
  StatusOr<Graph> ToGraph() const;

 private:
  CsrSnapshot() = default;

  std::string path_;
  int fd_ = -1;
  uint8_t* map_ = nullptr;
  size_t map_len_ = 0;
  CsrHeader hdr_;
  const uint64_t* offsets_ = nullptr;
  const uint64_t* original_ids_ = nullptr;
  const VertexId* adj_ = nullptr;
};

}  // namespace qcm

#endif  // QCM_GRAPH_CSR_SNAPSHOT_H_
