// .qcsr snapshot format + budgeted vertex table tests: byte-pinned header
// layout, round-trip fidelity (also of a file laid out on 4 KiB pages),
// original-ids sections read back as id maps, corrupt-header / old-version
// / torn-tail / checksum-mismatch / wrapping-section-table rejection with
// file:offset errors, a seeded mutation fuzz loop over snapshots of the
// edge-list corpus, parity between resident, snapshot-mmap and budgeted
// tables (also under eviction churn), the budget's bound on what the rank
// holds, hub lists cached whole, pins that outlive eviction, and the loud
// failure of a read past a truncated file's end.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/csr_snapshot.h"
#include "graph/edge_io.h"
#include "graph/generators.h"
#include "gthinker/engine_config.h"
#include "gthinker/vertex_table.h"
#include "util/serde.h"

#ifndef QCM_CORPUS_DIR
#define QCM_CORPUS_DIR "tests/corpus"
#endif

namespace qcm {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

Graph MakePlanted(uint32_t n, uint64_t seed) {
  auto spec = ParsePlantedSpec(
      "n=" + std::to_string(n) + ",communities=6,size=10..14,density=0.95",
      seed);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  auto g = GenPlantedCommunities(spec.value());
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good());
}

template <typename T>
T ReadAt(const std::string& bytes, size_t offset) {
  T v;
  std::memcpy(&v, bytes.data() + offset, sizeof(T));
  return v;
}

template <typename T>
void WriteAt(std::string* bytes, size_t offset, T v) {
  std::memcpy(bytes->data() + offset, &v, sizeof(T));
}

/// `wide`, a snapshot as the writer lays it out, laid out again on the
/// smallest page size the format allows.
std::string OnSmallestPages(const std::string& wide) {
  constexpr uint32_t kPage = kCsrMinPageSize;
  std::string header = wide.substr(0, kCsrHeaderBytes);
  std::string body;  // everything after the header page
  for (int i = 0; i < kCsrNumSections; ++i) {
    const uint64_t offset = ReadAt<uint64_t>(wide, 32 + 24 * i);
    const uint64_t size = ReadAt<uint64_t>(wide, 40 + 24 * i);
    body.resize((body.size() + kPage - 1) / kPage * kPage, '\0');
    WriteAt<uint64_t>(&header, 32 + 24 * i, kPage + body.size());
    body += wide.substr(offset, size);
  }
  body += wide.substr(wide.size() - sizeof(kCsrTailMagic));
  WriteAt<uint32_t>(&header, 8, kPage);
  WriteAt<uint64_t>(&header, 24, kPage + body.size());
  WriteAt<uint64_t>(&header, 104, Fingerprint(header.data(), 104));
  header.resize(kPage, '\0');
  return header + body;
}

/// Resident bytes of this process's mappings of files whose path ends in
/// `suffix`: the sum of the Rss: lines of their /proc/self/smaps entries.
uint64_t MappedRssBytes(const std::string& suffix) {
  std::ifstream smaps("/proc/self/smaps");
  EXPECT_TRUE(smaps.good());
  uint64_t kb = 0;
  bool ours = false;
  for (std::string line; std::getline(smaps, line);) {
    // An entry starts with "start-end perms offset dev inode path".
    const size_t dash = line.find_first_not_of("0123456789abcdef");
    if (dash != 0 && dash != std::string::npos && line[dash] == '-') {
      ours = line.size() >= suffix.size() &&
             line.compare(line.size() - suffix.size(), suffix.size(),
                          suffix) == 0;
    } else if (ours && line.rfind("Rss:", 0) == 0) {
      kb += std::stoull(line.substr(4));
    }
  }
  return kb * 1024;
}

EngineCountersSnapshot GraphCounters(const VertexTable& table) {
  EngineCountersSnapshot c;
  table.AddGraphCounters(&c);
  return c;
}

bool SameList(const Graph& g, VertexId v, std::span<const VertexId> got) {
  auto want = g.Neighbors(v);
  return std::equal(want.begin(), want.end(), got.begin(), got.end());
}

TEST(CsrSnapshotTest, HeaderLayoutIsBytePinned) {
  const Graph g = MakePlanted(64, 3);
  const std::string path = TempPath("pinned.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path).ok());

  const std::string bytes = ReadAll(path);
  // Fixed field offsets: any change here is a format break that must come
  // with a version bump.
  EXPECT_EQ(ReadAt<uint32_t>(bytes, 0), kCsrMagic);
  EXPECT_EQ(ReadAt<uint32_t>(bytes, 0), 0x52534351u);  // "QCSR"
  EXPECT_EQ(ReadAt<uint32_t>(bytes, 4), kCsrVersion);
  EXPECT_EQ(kCsrVersion, 2u);
  EXPECT_EQ(ReadAt<uint32_t>(bytes, 8), 65536u);  // page size
  EXPECT_EQ(ReadAt<uint32_t>(bytes, 12), g.NumVertices());
  EXPECT_EQ(ReadAt<uint64_t>(bytes, 16), g.NumEdges());
  EXPECT_EQ(ReadAt<uint64_t>(bytes, 24), bytes.size());
  // Section table: 3 x {offset, bytes, checksum} from byte 32; offsets
  // first, page-aligned right after the header page, then original ids
  // and adjacency.
  EXPECT_EQ(kCsrNumSections, 3);
  EXPECT_EQ(ReadAt<uint64_t>(bytes, 32), 65536u);
  EXPECT_EQ(ReadAt<uint64_t>(bytes, 40),
            (uint64_t{g.NumVertices()} + 1) * sizeof(uint64_t));
  EXPECT_EQ(ReadAt<uint64_t>(bytes, 64),
            uint64_t{g.NumVertices()} * sizeof(uint64_t));
  EXPECT_EQ(ReadAt<uint64_t>(bytes, 88), 2 * g.NumEdges() * sizeof(VertexId));
  // Header checksum over bytes [0, 104), the header's last field.
  EXPECT_EQ(kCsrHeaderBytes, 112u);
  EXPECT_EQ(ReadAt<uint64_t>(bytes, 104),
            Fingerprint(bytes.data(), 104));
  // Tail sentinel closes the file.
  EXPECT_EQ(ReadAt<uint64_t>(bytes, bytes.size() - 8), kCsrTailMagic);
  // Every section starts on a page boundary.
  for (int i = 0; i < kCsrNumSections; ++i) {
    EXPECT_EQ(ReadAt<uint64_t>(bytes, 32 + 24 * i) % 65536, 0u)
        << CsrSectionName(i);
  }
}

TEST(CsrSnapshotTest, RoundTripPreservesGraphAndOriginalIds) {
  const Graph g = MakePlanted(200, 7);
  std::vector<uint64_t> ids(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) ids[v] = 1000 + 3 * v;

  const std::string path = TempPath("roundtrip.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(g, IdMap{0, ids}, path).ok());
  // The writer pads to 64 KiB pages, but the reader takes any page size
  // the header declares, so the same file on 4 KiB pages reads back too.
  const std::string small_pages = TempPath("roundtrip_small_pages.qcsr");
  WriteAll(small_pages, OnSmallestPages(ReadAll(path)));

  for (const auto& [file, page_size] :
       std::vector<std::pair<std::string, uint32_t>>{
           {path, 65536}, {small_pages, kCsrMinPageSize}}) {
    SCOPED_TRACE(file);
    CsrSnapshot::OpenOptions open_opts;
    open_opts.verify_sections = true;
    open_opts.verify_adjacency = true;
    auto snap = CsrSnapshot::Open(file, open_opts);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    EXPECT_EQ((*snap)->page_size(), page_size);

    ASSERT_EQ((*snap)->NumVertices(), g.NumVertices());
    ASSERT_EQ((*snap)->NumEdges(), g.NumEdges());
    EXPECT_EQ((*snap)->OriginalIds(), (IdMap{0, ids}));
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      EXPECT_EQ((*snap)->Degree(v), g.Degree(v));
      EXPECT_EQ((*snap)->OriginalId(v), ids[v]);
      auto want = g.Neighbors(v);
      auto got = (*snap)->Neighbors(v);
      ASSERT_EQ(got.size(), want.size()) << "vertex " << v;
      EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()))
          << "vertex " << v;
    }

    // Resident materialization reproduces the identical CSR.
    auto back = (*snap)->ToGraph();
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(back->NumVertices(), g.NumVertices());
    ASSERT_EQ(back->NumEdges(), g.NumEdges());
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      auto want = g.Neighbors(v);
      auto got = back->Neighbors(v);
      ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin(),
                             got.end()));
    }
  }
}

TEST(CsrSnapshotTest, RejectsBadMagicWithFileOffset) {
  const Graph g = MakePlanted(32, 1);
  const std::string path = TempPath("badmagic.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path).ok());
  std::string bytes = ReadAll(path);
  bytes[0] ^= 0xff;
  WriteAll(path, bytes);

  auto snap = CsrSnapshot::Open(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kCorruption);
  EXPECT_NE(snap.status().ToString().find(path + ":0:"),
            std::string::npos)
      << snap.status().ToString();
  EXPECT_NE(snap.status().ToString().find("magic"), std::string::npos);
}

// A version-1 file (a degrees section of its own and a build seed in a
// 144-byte header) is refused by its version field, the first one checked
// after the magic.
TEST(CsrSnapshotTest, RejectsVersionOneNamingIt) {
  const Graph g = MakePlanted(32, 1);
  const std::string path = TempPath("version1.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path).ok());
  std::string bytes = ReadAll(path);
  WriteAt<uint32_t>(&bytes, 4, 1);
  WriteAll(path, bytes);

  auto snap = CsrSnapshot::Open(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kCorruption);
  EXPECT_NE(snap.status().ToString().find(
                path + ":4: unsupported snapshot version 1 (this build "
                       "reads v2)"),
            std::string::npos)
      << snap.status().ToString();
}

TEST(CsrSnapshotTest, RejectsHeaderFieldCorruption) {
  const Graph g = MakePlanted(32, 1);
  const std::string path = TempPath("badheader.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path).ok());
  std::string bytes = ReadAll(path);
  bytes[16] ^= 0x01;  // num_edges
  WriteAll(path, bytes);

  auto snap = CsrSnapshot::Open(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kCorruption);
  EXPECT_NE(snap.status().ToString().find("header checksum mismatch"),
            std::string::npos)
      << snap.status().ToString();
}

/// Recomputes, as the writer would, the checksum of every section that
/// lies inside the file and then the header's, after pointing file_bytes
/// and the tail sentinel at the file's end: a corrupt field then reaches
/// the structural checks behind the checksums.
void Reseal(std::string* bytes) {
  const uint64_t size = bytes->size();
  if (size < kCsrHeaderBytes + sizeof(kCsrTailMagic)) return;
  WriteAt<uint64_t>(bytes, 24, size);
  WriteAt<uint64_t>(bytes, size - sizeof(kCsrTailMagic), kCsrTailMagic);
  for (int i = 0; i < kCsrNumSections; ++i) {
    const uint64_t offset = ReadAt<uint64_t>(*bytes, 32 + 24 * i);
    const uint64_t len = ReadAt<uint64_t>(*bytes, 40 + 24 * i);
    if (len > size || offset > size - len) continue;
    WriteAt<uint64_t>(bytes, 48 + 24 * i,
                      Fingerprint(bytes->data() + offset, len));
  }
  WriteAt<uint64_t>(bytes, 104, Fingerprint(bytes->data(), 104));
}

// Structural corruption re-sealed behind valid checksums, so that only
// Open's structural checks stand in its way, with and without section
// verification. Two section-table sums that wrap: the offsets section of
// an 8,191-vertex file moved to 64 KiB below 2^64, so its end wraps to 0
// (Open used to read 64 KiB before the mapping), and an edge count 2^61
// too high, whose adjacency size of 8 bytes per edge wraps to the
// section's true size (the last row offset moved to match; Neighbors used
// to read 2^64 bytes past the section).
TEST(CsrSnapshotTest, RejectsResealedStructuralCorruption) {
  const Graph g = MakePlanted(8191, 1);
  const uint64_t n = g.NumVertices();
  const uint64_t m = g.NumEdges();
  const std::string path = TempPath("resealed.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path).ok());
  const std::string pristine = ReadAll(path);
  const uint64_t offsets_at = ReadAt<uint64_t>(pristine, 32);
  ASSERT_EQ(ReadAt<uint64_t>(pristine, 40), 65536u);  // offsets bytes

  std::string offset_wraps = pristine;
  WriteAt<uint64_t>(&offset_wraps, 32, 0 - uint64_t{65536});
  Reseal(&offset_wraps);
  std::string edges_wrap = pristine;
  WriteAt<uint64_t>(&edges_wrap, 16, m + (uint64_t{1} << 61));
  WriteAt<uint64_t>(&edges_wrap, offsets_at + 8 * n,
                    2 * m + (uint64_t{1} << 62));
  Reseal(&edges_wrap);

  const struct {
    const std::string& bytes;
    std::string error;
  } cases[] = {
      {offset_wraps, ":32: offsets section descriptor invalid (offset " +
                         std::to_string(0 - uint64_t{65536})},
      {edges_wrap, ":16: " + std::to_string(m + (uint64_t{1} << 61)) +
                       " edges cannot fit in a file of"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.error);
    WriteAll(path, c.bytes);
    for (const bool verify : {true, false}) {
      CsrSnapshot::OpenOptions opts;
      opts.verify_sections = verify;
      auto snap = CsrSnapshot::Open(path, opts);
      ASSERT_FALSE(snap.ok()) << "verify " << verify;
      EXPECT_EQ(snap.status().code(), StatusCode::kCorruption);
      EXPECT_NE(snap.status().ToString().find(path + c.error),
                std::string::npos)
          << snap.status().ToString();
    }
  }
}

// The original-ids section reads back as the map it was written from: a
// run as {first} with no table, whatever its first id, and ids with a
// gap as a table.
TEST(CsrSnapshotTest, OriginalIdsReadBackAsTheirMap) {
  const Graph g = MakePlanted(200, 7);
  std::vector<uint64_t> gapped(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) gapped[v] = v + (v > 9);
  const std::string path = TempPath("original_ids.qcsr");
  for (const IdMap& map :
       {IdMap{}, IdMap{1, {}}, IdMap{uint64_t{1} << 40, {}},
        IdMap{0, gapped}}) {
    ASSERT_TRUE(WriteCsrSnapshot(g, map, path).ok());
    auto snap = CsrSnapshot::Open(path);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    EXPECT_EQ((*snap)->OriginalIds(), map);
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      ASSERT_EQ((*snap)->OriginalId(v), map[v]) << "vertex " << v;
    }
  }
  // A table of the wrong size is refused.
  EXPECT_EQ(WriteCsrSnapshot(g, IdMap{0, {1, 2}}, path).code(),
            StatusCode::kInvalidArgument);
}

/// Snapshot mutants per seed file.
constexpr int kSnapshotMutantsPerSeed = 400;

/// The fuzz loop's seeds: a snapshot of each file of the edge-list corpus,
/// with its id map, laid out on 4 KiB pages so a mutant is small.
std::vector<std::string> SnapshotSeeds() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(QCM_CORPUS_DIR) + "/edge_list")) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());  // a fixed order for the seed
  const std::string path = TempPath("fuzz_seed.qcsr");
  std::vector<std::string> seeds;
  for (const auto& file : files) {
    auto loaded = LoadEdgeList(file.string());
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    if (!loaded.ok()) continue;
    EXPECT_TRUE(
        WriteCsrSnapshot(loaded->graph, loaded->original_ids, path).ok());
    seeds.push_back(OnSmallestPages(ReadAll(path)));
  }
  std::remove(path.c_str());
  return seeds;
}

/// Flips, overwrites, truncates or extends bytes of `bytes`: in the
/// header (its section table most of all) or anywhere in the file, with
/// values at the edges of the fields' ranges, or moves a section to a
/// page or two below 2^64, where its end wraps. Half the mutants are then
/// re-sealed.
std::string MutateSnapshot(std::string bytes, std::mt19937_64& rng) {
  static const uint64_t kValues[] = {0,
                                     1,
                                     kCsrMinPageSize,
                                     kCsrDefaultPageSize,
                                     UINT32_MAX,
                                     uint64_t{1} << 32,
                                     uint64_t{1} << 61,
                                     uint64_t{1} << 62,
                                     uint64_t{1} << 63,
                                     0 - uint64_t{kCsrMinPageSize},
                                     0 - uint64_t{2 * kCsrMinPageSize},
                                     0 - uint64_t{kCsrDefaultPageSize},
                                     UINT64_MAX};
  const auto value = [&]() -> uint64_t {
    switch (rng() % 4) {
      case 0: return rng();
      case 1: return bytes.size() + rng() % 3 * kCsrMinPageSize;
      default: return kValues[rng() % std::size(kValues)] + rng() % 3 - 1;
    }
  };
  // An offset in the header half the time, else anywhere.
  const auto at = [&](size_t width) -> size_t {
    const size_t end = rng() % 2 == 0
                           ? std::min(bytes.size(), kCsrHeaderBytes)
                           : bytes.size();
    return end < width ? 0 : rng() % (end - width + 1) / width * width;
  };
  const int steps = 1 + static_cast<int>(rng() % 3);
  for (int s = 0; s < steps; ++s) {
    switch (rng() % 7) {
      case 0:
        if (!bytes.empty()) {
          bytes[at(1)] ^= static_cast<char>(1 << (rng() % 8));
        }
        break;
      case 1:
        if (bytes.size() >= 8) WriteAt<uint64_t>(&bytes, at(8), value());
        break;
      case 2:
        if (bytes.size() >= 4) {
          WriteAt<uint32_t>(&bytes, at(4), static_cast<uint32_t>(value()));
        }
        break;
      case 3:
        bytes.resize(bytes.empty() ? 0 : rng() % bytes.size());
        break;
      case 4:
        bytes.resize(bytes.size() + 1 + rng() % (2 * kCsrMinPageSize),
                     static_cast<char>(rng()));
        break;
      case 5:  // a section descriptor field
        if (bytes.size() >= kCsrHeaderBytes) {
          WriteAt<uint64_t>(&bytes, 32 + 8 * (rng() % (3 * kCsrNumSections)),
                            value());
        }
        break;
      default:  // a section offset whose end wraps
        if (bytes.size() >= kCsrHeaderBytes) {
          const uint64_t page = ReadAt<uint32_t>(bytes, 8);
          WriteAt<uint64_t>(&bytes, 32 + 24 * (rng() % kCsrNumSections),
                            0 - page * (1 + rng() % 2));
        }
        break;
    }
  }
  if (rng() % 2 == 0) Reseal(&bytes);
  return bytes;
}

/// What every opened snapshot must give: sections inside the file
/// (checked in 128-bit arithmetic, which cannot wrap) and sized for its
/// counts, rows inside the adjacency section, every row read the same
/// through the mapping and with pread, Degree(v) its row's length, the id
/// map the section's values, and ToGraph either a graph of n vertices or
/// a Status.
void ExpectOpenedSnapshotInBounds(const CsrSnapshot& snap) {
  using Wide = unsigned __int128;
  const CsrHeader& h = snap.header();
  const uint64_t n = snap.NumVertices();
  const Wide want[kCsrNumSections] = {(Wide{n} + 1) * 8, Wide{n} * 8,
                                      Wide{h.num_edges} * 8};
  for (int i = 0; i < kCsrNumSections; ++i) {
    const CsrSectionDesc& s = h.sections[i];
    ASSERT_TRUE(Wide{s.bytes} == want[i]) << CsrSectionName(i);
    ASSERT_GE(s.file_offset, h.page_size) << CsrSectionName(i);
    ASSERT_TRUE(Wide{s.file_offset} + s.bytes + 8 <= Wide{h.file_bytes})
        << CsrSectionName(i);
  }
  ASSERT_EQ(h.file_bytes, snap.MappedBytes());
  const IdMap ids = snap.OriginalIds();
  std::vector<VertexId> list;
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_LE(snap.AdjOffset(v), snap.AdjOffset(v + 1));
    const std::span<const VertexId> row = snap.Neighbors(v);
    ASSERT_EQ(snap.Degree(v), row.size());
    ASSERT_TRUE(snap.ReadNeighbors(v, &list).ok());
    ASSERT_TRUE(std::equal(row.begin(), row.end(), list.begin(), list.end()))
        << "vertex " << v;
    ASSERT_EQ(ids[v], snap.OriginalId(v));
  }
  ASSERT_TRUE(Wide{snap.AdjOffset(static_cast<VertexId>(n))} ==
              Wide{h.num_edges} * 2);
  auto g = snap.ToGraph();
  if (g.ok()) {
    ASSERT_EQ(g->NumVertices(), n);
  }
}

// Seeded mutation fuzzing of CsrSnapshot::Open and every accessor, with
// section verification on (adjacency included) and off: a mutant opens
// and stays in bounds, or fails with a Corruption naming the file. The
// ASan+UBSan build is the oracle for reads the checks above cannot see.
TEST(CsrSnapshotFuzzTest, MutantsOpenInBoundsOrFailCleanly) {
  const std::vector<std::string> seeds = SnapshotSeeds();
  ASSERT_GE(seeds.size(), 5u) << "corpus missing under " << QCM_CORPUS_DIR;
  const std::string path = TempPath("snapshot_fuzz.qcsr");
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0) << path;
  std::mt19937_64 rng(20261019);
  int opened = 0, rejected = 0;
  for (size_t s = 0; s < seeds.size(); ++s) {
    for (int i = 0; i < kSnapshotMutantsPerSeed; ++i) {
      SCOPED_TRACE("seed file " + std::to_string(s) + ", mutant " +
                   std::to_string(i));
      // Rewritten in place, not truncated to zero and refilled.
      const std::string bytes = MutateSnapshot(seeds[s], rng);
      ASSERT_EQ(::pwrite(fd, bytes.data(), bytes.size(), 0),
                static_cast<ssize_t>(bytes.size()));
      ASSERT_EQ(::ftruncate(fd, static_cast<off_t>(bytes.size())), 0);
      for (const bool verify : {true, false}) {
        CsrSnapshot::OpenOptions opts;
        opts.verify_sections = verify;
        opts.verify_adjacency = verify;
        auto snap = CsrSnapshot::Open(path, opts);
        if (!snap.ok()) {
          ASSERT_EQ(snap.status().code(), StatusCode::kCorruption)
              << snap.status().ToString();
          ASSERT_EQ(snap.status().message().rfind(path + ":", 0), 0u)
              << snap.status().ToString();
          ++rejected;
          continue;
        }
        ++opened;
        ASSERT_NO_FATAL_FAILURE(ExpectOpenedSnapshotInBounds(**snap));
      }
    }
  }
  // Both outcomes must be common, or the loop tests little.
  EXPECT_GT(opened, kSnapshotMutantsPerSeed / 4) << rejected << " rejected";
  EXPECT_GT(rejected, kSnapshotMutantsPerSeed / 4) << opened << " opened";
  std::printf("%d snapshot mutants opened, %d rejected\n", opened, rejected);
  ::close(fd);
  std::remove(path.c_str());
}

TEST(CsrSnapshotTest, RejectsTornTail) {
  const Graph g = MakePlanted(32, 1);
  const std::string path = TempPath("torntail.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path).ok());
  std::string bytes = ReadAll(path);
  WriteAll(path, bytes.substr(0, bytes.size() - 5));

  auto snap = CsrSnapshot::Open(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kCorruption);
  EXPECT_NE(snap.status().ToString().find("torn tail"), std::string::npos)
      << snap.status().ToString();

  // Right length, clobbered sentinel (e.g. a partial rewrite).
  std::string clobbered = bytes;
  clobbered[clobbered.size() - 3] ^= 0xff;
  WriteAll(path, clobbered);
  snap = CsrSnapshot::Open(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_NE(snap.status().ToString().find("torn tail"), std::string::npos);
}

TEST(CsrSnapshotTest, RejectsSectionChecksumMismatchNamingSection) {
  const Graph g = MakePlanted(64, 5);
  const std::string path = TempPath("badsection.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path).ok());
  const std::string pristine = ReadAll(path);

  // Offsets section (validated by default): the row start of a vertex
  // with neighbours moved up by one, which keeps the rows monotone, so
  // only the checksum can catch it.
  VertexId v = 1;
  while (g.Degree(v) == 0) ++v;
  const uint64_t row_at = kCsrDefaultPageSize + v * sizeof(uint64_t);
  std::string bytes = pristine;
  WriteAt<uint64_t>(&bytes, row_at, ReadAt<uint64_t>(pristine, row_at) + 1);
  WriteAll(path, bytes);
  auto snap = CsrSnapshot::Open(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kCorruption);
  EXPECT_NE(
      snap.status().ToString().find("offsets section checksum mismatch"),
      std::string::npos)
      << snap.status().ToString();
  EXPECT_NE(snap.status().ToString().find(
                path + ":" + std::to_string(kCsrDefaultPageSize) + ":"),
            std::string::npos);

  // Adjacency section: caught only when verify_adjacency is on.
  bytes = pristine;
  const uint64_t adj_off = ReadAt<uint64_t>(pristine, 32 + 24 * 2);
  bytes[adj_off] ^= 0x01;
  WriteAll(path, bytes);
  snap = CsrSnapshot::Open(path);  // metadata-only validation passes
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  CsrSnapshot::OpenOptions full;
  full.verify_adjacency = true;
  snap = CsrSnapshot::Open(path, full);
  ASSERT_FALSE(snap.ok());
  EXPECT_NE(
      snap.status()
          .ToString()
          .find("adjacency section checksum mismatch"),
      std::string::npos)
      << snap.status().ToString();
}

// A budgeted rank reads its lists with pread into a charged LRU: across
// three shuffled passes over every rank's lists the table must match the
// resident graph, the cache's charge must never exceed the budget, and
// the snapshot mapping must not grow by more than the budget (the retired
// mmap pager grew it by ~90 KiB here: unpinned reads refaulted evicted
// pages, and fault-around mapped their neighbours). Each list is read
// twice in a row, and the second read must be a cache hit.
TEST(CsrSnapshotTest, BudgetBoundsResidentAdjacency) {
  const Graph g = MakePlanted(20000, 11);
  const std::string name = "budget_bound.qcsr";
  const std::string path = TempPath(name);
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path).ok());
  auto snap = CsrSnapshot::Open(path);
  ASSERT_TRUE(snap.ok());
  const uint64_t kBudget = 8192;
  ASSERT_GT((*snap)->header().sections[kCsrAdjacency].bytes, 16 * kBudget)
      << "the adjacency section must be many times the budget";

  const uint64_t rss_before = MappedRssBytes("/" + name);
  const int kMachines = 3;
  for (int rank = 0; rank < kMachines; ++rank) {
    VertexTable resident(&g, kMachines, rank);
    VertexTable budgeted(*snap, kMachines, rank, kBudget);
    ASSERT_EQ(budgeted.OwnedVertices(), resident.OwnedVertices());

    std::vector<VertexId> order = resident.OwnedVertices();
    std::mt19937 rng(rank + 1);
    for (int pass = 0; pass < 3; ++pass) {
      std::shuffle(order.begin(), order.end(), rng);
      for (VertexId v : order) {
        ASSERT_EQ(budgeted.Degree(v), resident.Degree(v));
        const AdjRef got = budgeted.Adjacency(v);
        ASSERT_TRUE(SameList(g, v, got.adj)) << "vertex " << v;
        ASSERT_LE(budgeted.CachedBytes(), kBudget) << "vertex " << v;
        // Just cached: the re-read is served the same copy.
        const AdjRef again = budgeted.Adjacency(v);
        ASSERT_EQ(again.adj.data(), got.adj.data()) << "vertex " << v;
      }
    }
    const EngineCountersSnapshot c = GraphCounters(budgeted);
    EXPECT_EQ(c.graph_page_pins, 6 * order.size()) << "rank " << rank;
    EXPECT_GT(c.graph_page_ins, 0u) << "rank " << rank;
    EXPECT_GT(c.graph_page_pins, c.graph_page_ins) << "rank " << rank;
    EXPECT_LE(c.graph_page_ins, 3 * order.size())
        << "rank " << rank << ": a re-read went to the file";
    EXPECT_GT(c.graph_page_evictions, 0u)
        << "rank " << rank << ": budget never forced an eviction -- the "
        << "churn premise of this test is broken";
  }
  const uint64_t rss_after = MappedRssBytes("/" + name);
  EXPECT_LE(rss_after, rss_before + kBudget)
      << "mapping grew from " << rss_before << " to " << rss_after
      << " resident bytes";
}

// A hub list charged more than an eighth of the budget -- more than one
// shard of an 8-way sharded cache would hold -- is still cached: read
// twice, it is read from the file once.
TEST(CsrSnapshotTest, BudgetedTableCachesHubList) {
  const uint32_t kHubDegree = 3000;
  std::vector<Edge> star;
  for (VertexId v = 1; v <= kHubDegree; ++v) star.push_back({0, v});
  auto g = Graph::FromEdges(kHubDegree + 1, std::move(star));
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  const std::string path = TempPath("hub.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(*g, {}, path).ok());
  auto snap = CsrSnapshot::Open(path);
  ASSERT_TRUE(snap.ok());

  const uint64_t kBudget = 64 * 1024;
  const uint64_t hub_charge =
      kHubDegree * sizeof(VertexId) + kListChargeOverhead;
  ASSERT_GT(hub_charge, kBudget / 8);
  ASSERT_LT(hub_charge, kBudget);
  const VertexTable table(*snap, /*num_machines=*/1, /*rank=*/0, kBudget);

  const AdjRef first = table.Adjacency(0);
  const AdjRef second = table.Adjacency(0);
  EXPECT_TRUE(SameList(*g, 0, second.adj));
  EXPECT_EQ(second.adj.data(), first.adj.data());
  const EngineCountersSnapshot c = GraphCounters(table);
  EXPECT_EQ(c.graph_page_pins, 2u);
  EXPECT_EQ(c.graph_page_ins, 1u);
  EXPECT_EQ(table.CachedBytes(), hub_charge);
}

// Two threads read overlapping lists through one table whose budget holds
// only a few of them, each keeping its last few AdjRefs while the other's
// inserts evict: a pinned list must stay intact after its eviction.
TEST(CsrSnapshotTest, BudgetedPinsOutliveEviction) {
  const Graph g = MakePlanted(3000, 19);
  const std::string path = TempPath("pins_outlive.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path).ok());
  auto snap = CsrSnapshot::Open(path);
  ASSERT_TRUE(snap.ok());
  // Room for about four lists: each costs its bytes plus
  // kListChargeOverhead.
  const uint64_t kBudget = 1000;
  const VertexTable table(*snap, /*num_machines=*/1, /*rank=*/0, kBudget);

  std::vector<VertexId> lists;
  for (VertexId v : table.OwnedVertices()) {
    if (g.Degree(v) != 0) lists.push_back(v);
  }
  ASSERT_GT(lists.size(), 1000u);
  auto reader = [&](uint32_t seed, int* mismatches) {
    std::mt19937 rng(seed);
    std::deque<std::pair<VertexId, AdjRef>> held;
    for (int i = 0; i < 20000; ++i) {
      // Overlap: both threads draw from the same first 64 lists half the
      // time.
      const size_t range = (i % 2 == 0) ? 64 : lists.size();
      const VertexId v = lists[rng() % range];
      held.emplace_back(v, table.Adjacency(v));
      if (held.size() > 4) held.pop_front();
      for (const auto& [u, ref] : held) {
        if (!SameList(g, u, ref.adj)) ++*mismatches;
      }
    }
  };
  int mismatches[2] = {0, 0};
  std::thread other(reader, 2, &mismatches[1]);
  reader(1, &mismatches[0]);
  other.join();
  EXPECT_EQ(mismatches[0], 0);
  EXPECT_EQ(mismatches[1], 0);
  EXPECT_GT(GraphCounters(table).graph_page_evictions, 0u);
  EXPECT_GT(table.CachedBytes(), 0u);
  EXPECT_LE(table.CachedBytes(), kBudget);
}

// Shrinking the file under an open snapshot must not turn a budgeted read
// into zeros (or a SIGBUS, as a read through the mapping would be): the
// read aborts naming the file and the vertex.
TEST(CsrSnapshotDeathTest, TruncatedSnapshotReadFailsLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Graph g = MakePlanted(2000, 23);
  const std::string path = TempPath("truncated.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path).ok());
  auto snap = CsrSnapshot::Open(path);
  ASSERT_TRUE(snap.ok());
  const VertexTable table(*snap, /*num_machines=*/1, /*rank=*/0,
                          /*graph_memory_budget=*/8192);

  // Cut the file in the middle of the adjacency section.
  VertexId first = 0;
  while (g.Degree(first) == 0) ++first;
  VertexId last = g.NumVertices() - 1;
  while (g.Degree(last) == 0) --last;
  const uint64_t adj_off =
      (*snap)->header().sections[kCsrAdjacency].file_offset;
  ASSERT_EQ(::truncate(path.c_str(),
                       static_cast<off_t>(adj_off + (*snap)->AdjOffset(last) *
                                                        sizeof(VertexId))),
            0);

  // A list before the cut still reads; the last one lies past it.
  EXPECT_TRUE(SameList(g, first, table.Adjacency(first).adj));
  EXPECT_DEATH(table.Adjacency(last),
               "truncated\\.qcsr:[0-9]+: pread of vertex " +
                   std::to_string(last) + "'s");
}

// A resident graph, an unbudgeted mapping and a budgeted snapshot give a
// rank the same partition: the first two read one CSR, every owned list
// an unpinned span and no list cache; the third reads the same lists from
// the file, each pinned.
TEST(CsrSnapshotTest, ResidentMappedAndBudgetedTablesAgree) {
  const Graph g = MakePlanted(300, 13);
  const std::string path = TempPath("serve_partition.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path).ok());
  auto snap = CsrSnapshot::Open(path);
  ASSERT_TRUE(snap.ok());

  for (int rank = 0; rank < 2; ++rank) {
    SCOPED_TRACE("rank " + std::to_string(rank));
    const VertexTable resident(&g, /*num_machines=*/2, rank);
    const VertexTable mapped(*snap, /*num_machines=*/2, rank,
                             /*graph_memory_budget=*/0);
    const VertexTable budgeted(*snap, /*num_machines=*/2, rank,
                               /*graph_memory_budget=*/4096);
    for (const VertexTable* table : {&resident, &mapped, &budgeted}) {
      EXPECT_EQ(table->NumVertices(), g.NumVertices());
      ASSERT_EQ(table->OwnedVertices(), resident.OwnedVertices());
      for (VertexId v : table->OwnedVertices()) {
        ASSERT_EQ(table->Degree(v), g.Degree(v)) << "vertex " << v;
        const AdjRef got = table->Adjacency(v);
        EXPECT_EQ(got.pin != nullptr, table == &budgeted) << "vertex " << v;
        ASSERT_TRUE(SameList(g, v, got.adj)) << "vertex " << v;
      }
    }
    for (const VertexTable* table : {&resident, &mapped}) {
      const EngineCountersSnapshot c = GraphCounters(*table);
      EXPECT_EQ(c.graph_page_pins, 0u);  // no list cache at all
      EXPECT_EQ(c.graph_page_ins, 0u);
      EXPECT_EQ(table->CachedBytes(), 0u);
    }
    EXPECT_EQ(GraphCounters(budgeted).graph_page_pins,
              budgeted.OwnedVertices().size());
  }
}

TEST(CsrSnapshotTest, ValidateRejectsBadGraphStorageKnobs) {
  EngineConfig config;
  ASSERT_TRUE(config.Validate().ok());

  config.graph_memory_budget = -1;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);

  // Budget without a snapshot is a contradiction...
  config.graph_memory_budget = 1 << 20;
  Status s = config.Validate();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("engine_config.cc:"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.ToString().find("contradictory"), std::string::npos);
  // ...resolved by naming one.
  config.graph_snapshot = "/tmp/whatever.qcsr";
  EXPECT_TRUE(config.Validate().ok());

  // Any positive budget is valid, whatever the page size: one too small
  // for a list caches nothing, and every read goes to the file.
  config.graph_memory_budget = 1;
  EXPECT_TRUE(config.Validate().ok());
}

}  // namespace
}  // namespace qcm
