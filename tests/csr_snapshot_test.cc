// .qcsr snapshot format + paged adjacency store tests: byte-pinned header
// layout, round-trip fidelity, corrupt-header / torn-tail / checksum-
// mismatch rejection with file:offset errors, and digest-level parity
// between resident, snapshot-mmap, and budget-constrained paged tables
// (including a budget tight enough to force eviction churn).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "graph/csr_snapshot.h"
#include "graph/generators.h"
#include "graph/paged_adjacency.h"
#include "gthinker/engine_config.h"
#include "gthinker/vertex_table.h"
#include "util/serde.h"

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

TEST(CsrSnapshotTest, HeaderLayoutIsBytePinned) {
  const Graph g = MakePlanted(64, 3);
  const std::string path = TempPath("pinned.qcsr");
  CsrWriteOptions opts;
  opts.page_size = 4096;
  opts.build_seed = 3;
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path, opts).ok());

  const std::string bytes = ReadAll(path);
  // Fixed field offsets: any change here is a format break that must come
  // with a version bump.
  EXPECT_EQ(ReadAt<uint32_t>(bytes, 0), kCsrMagic);
  EXPECT_EQ(ReadAt<uint32_t>(bytes, 0), 0x52534351u);  // "QCSR"
  EXPECT_EQ(ReadAt<uint32_t>(bytes, 4), kCsrVersion);
  EXPECT_EQ(ReadAt<uint32_t>(bytes, 8), 4096u);
  EXPECT_EQ(ReadAt<uint32_t>(bytes, 12), g.NumVertices());
  EXPECT_EQ(ReadAt<uint64_t>(bytes, 16), g.NumEdges());
  EXPECT_EQ(ReadAt<uint64_t>(bytes, 24), 3u);  // build seed
  EXPECT_EQ(ReadAt<uint64_t>(bytes, 32), bytes.size());
  // Section table: 4 x {offset, bytes, checksum} from byte 40; degrees
  // first, page-aligned right after the header page.
  EXPECT_EQ(ReadAt<uint64_t>(bytes, 40), 4096u);
  EXPECT_EQ(ReadAt<uint64_t>(bytes, 48),
            uint64_t{g.NumVertices()} * sizeof(uint32_t));
  // Header checksum over bytes [0, 136).
  EXPECT_EQ(ReadAt<uint64_t>(bytes, 136),
            Fingerprint(bytes.data(), 136));
  // Tail sentinel closes the file.
  EXPECT_EQ(ReadAt<uint64_t>(bytes, bytes.size() - 8), kCsrTailMagic);
  // Every section starts on a page boundary.
  for (int i = 0; i < kCsrNumSections; ++i) {
    EXPECT_EQ(ReadAt<uint64_t>(bytes, 40 + 24 * i) % 4096, 0u)
        << CsrSectionName(i);
  }
}

TEST(CsrSnapshotTest, RoundTripPreservesGraphAndOriginalIds) {
  const Graph g = MakePlanted(200, 7);
  std::vector<uint64_t> ids(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) ids[v] = 1000 + 3 * v;

  const std::string path = TempPath("roundtrip.qcsr");
  CsrWriteOptions opts;
  opts.page_size = 4096;
  ASSERT_TRUE(WriteCsrSnapshot(g, ids, path, opts).ok());

  CsrSnapshot::OpenOptions open_opts;
  open_opts.verify_sections = true;
  open_opts.verify_adjacency = true;
  auto snap = CsrSnapshot::Open(path, open_opts);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  ASSERT_EQ((*snap)->NumVertices(), g.NumVertices());
  ASSERT_EQ((*snap)->NumEdges(), g.NumEdges());
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

TEST(CsrSnapshotTest, RejectsBadMagicWithFileOffset) {
  const Graph g = MakePlanted(32, 1);
  const std::string path = TempPath("badmagic.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path, {4096, 0}).ok());
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

TEST(CsrSnapshotTest, RejectsHeaderFieldCorruption) {
  const Graph g = MakePlanted(32, 1);
  const std::string path = TempPath("badheader.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path, {4096, 0}).ok());
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

TEST(CsrSnapshotTest, RejectsTornTail) {
  const Graph g = MakePlanted(32, 1);
  const std::string path = TempPath("torntail.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path, {4096, 0}).ok());
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
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path, {4096, 0}).ok());
  const std::string pristine = ReadAll(path);

  // Degrees section (validated by default).
  std::string bytes = pristine;
  bytes[4096] ^= 0x01;
  WriteAll(path, bytes);
  auto snap = CsrSnapshot::Open(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kCorruption);
  EXPECT_NE(
      snap.status().ToString().find("degrees section checksum mismatch"),
      std::string::npos)
      << snap.status().ToString();
  EXPECT_NE(snap.status().ToString().find(path + ":4096:"),
            std::string::npos);

  // Adjacency section: caught only when verify_adjacency is on.
  bytes = pristine;
  const uint64_t adj_off = ReadAt<uint64_t>(pristine, 40 + 24 * 3);
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

TEST(CsrSnapshotTest, PagedStoreMatchesResidentUnderEvictionChurn) {
  const Graph g = MakePlanted(600, 11);
  const std::string path = TempPath("paged_parity.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path, {4096, 0}).ok());
  auto snap = CsrSnapshot::Open(path);
  ASSERT_TRUE(snap.ok());

  const int kMachines = 3;
  for (int rank = 0; rank < kMachines; ++rank) {
    VertexTable resident(&g, kMachines);
    // Two pages of budget against a multi-page partition: every pass over
    // the owned vertices must evict and repin mid-scan.
    VertexTable paged(*snap, kMachines, rank, /*graph_memory_budget=*/8192);
    ASSERT_TRUE(paged.partitioned());
    ASSERT_NE(paged.paged_store(), nullptr);

    // Randomized access order, several passes: churn the CLOCK ring.
    std::vector<VertexId> order = resident.OwnedVertices(rank);
    std::mt19937 rng(rank + 1);
    for (int pass = 0; pass < 3; ++pass) {
      std::shuffle(order.begin(), order.end(), rng);
      for (VertexId v : order) {
        ASSERT_EQ(paged.Degree(v), resident.Degree(v));
        auto want = resident.Adjacency(v);
        auto got = paged.Adjacency(v);
        ASSERT_EQ(got.size(), want.size()) << "vertex " << v;
        ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin()))
            << "vertex " << v;
      }
    }
    const PagedStoreStatsSnapshot stats = paged.paged_store()->stats();
    EXPECT_GT(stats.page_ins, 0u) << "rank " << rank;
    EXPECT_GT(stats.page_evictions, 0u)
        << "rank " << rank << ": budget never forced an eviction -- the "
        << "churn premise of this test is broken";
    EXPECT_GT(stats.page_pins, stats.page_ins) << "rank " << rank;
    EXPECT_LE(stats.resident_pages,
              stats.frame_capacity + 8u)  // transient overflow headroom
        << "rank " << rank;
  }
}

TEST(CsrSnapshotTest, UnboundedSnapshotTableServesAllVertices) {
  const Graph g = MakePlanted(300, 13);
  const std::string path = TempPath("serve_all.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path, {4096, 0}).ok());
  auto snap = CsrSnapshot::Open(path);
  ASSERT_TRUE(snap.ok());

  // local_rank -1 + budget 0: the single-process resident-equivalent
  // table; every adjacency is a direct mmap span.
  VertexTable table(*snap, /*num_machines=*/2, /*local_rank=*/-1,
                    /*graph_memory_budget=*/0);
  EXPECT_FALSE(table.partitioned());
  EXPECT_EQ(table.NumVertices(), g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    auto want = g.Neighbors(v);
    auto got = table.Adjacency(v);
    ASSERT_TRUE(
        std::equal(want.begin(), want.end(), got.begin(), got.end()));
  }
  const PagedStoreStatsSnapshot stats = table.paged_store()->stats();
  EXPECT_EQ(stats.page_ins, 0u);  // paging disabled entirely
  EXPECT_EQ(stats.page_evictions, 0u);
}

TEST(CsrSnapshotTest, ValidateRejectsBadGraphStorageKnobs) {
  EngineConfig config;
  ASSERT_TRUE(config.Validate().ok());

  config.graph_page_size = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.graph_page_size = -4096;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.graph_page_size = 12345;  // not a power of two
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.graph_page_size = 2048;  // < kCsrMinPageSize
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.graph_page_size = 65536;
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

  // Budget smaller than one page cannot hold a single frame.
  config.graph_memory_budget = 4096;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.graph_memory_budget = 65536;
  EXPECT_TRUE(config.Validate().ok());
}

}  // namespace
}  // namespace qcm
