// .qcsr snapshot format + budgeted vertex table tests: byte-pinned header
// layout, round-trip fidelity (also of a file laid out on 4 KiB pages),
// corrupt-header / torn-tail / checksum-mismatch rejection with
// file:offset errors, parity between resident, snapshot-mmap and budgeted
// tables under eviction churn, the budget's bound on what the rank holds,
// hub lists cached whole, pins that outlive eviction, and the loud
// failure of a read past a truncated file's end.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/csr_snapshot.h"
#include "graph/generators.h"
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
    const uint64_t offset = ReadAt<uint64_t>(wide, 40 + 24 * i);
    const uint64_t size = ReadAt<uint64_t>(wide, 48 + 24 * i);
    body.resize((body.size() + kPage - 1) / kPage * kPage, '\0');
    WriteAt<uint64_t>(&header, 40 + 24 * i, kPage + body.size());
    body += wide.substr(offset, size);
  }
  body += wide.substr(wide.size() - sizeof(kCsrTailMagic));
  WriteAt<uint32_t>(&header, 8, kPage);
  WriteAt<uint64_t>(&header, 32, kPage + body.size());
  WriteAt<uint64_t>(&header, 136, Fingerprint(header.data(), 136));
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
  CsrWriteOptions opts;
  opts.build_seed = 3;
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path, opts).ok());

  const std::string bytes = ReadAll(path);
  // Fixed field offsets: any change here is a format break that must come
  // with a version bump.
  EXPECT_EQ(ReadAt<uint32_t>(bytes, 0), kCsrMagic);
  EXPECT_EQ(ReadAt<uint32_t>(bytes, 0), 0x52534351u);  // "QCSR"
  EXPECT_EQ(ReadAt<uint32_t>(bytes, 4), kCsrVersion);
  EXPECT_EQ(ReadAt<uint32_t>(bytes, 8), 65536u);  // page size
  EXPECT_EQ(ReadAt<uint32_t>(bytes, 12), g.NumVertices());
  EXPECT_EQ(ReadAt<uint64_t>(bytes, 16), g.NumEdges());
  EXPECT_EQ(ReadAt<uint64_t>(bytes, 24), 3u);  // build seed
  EXPECT_EQ(ReadAt<uint64_t>(bytes, 32), bytes.size());
  // Section table: 4 x {offset, bytes, checksum} from byte 40; degrees
  // first, page-aligned right after the header page.
  EXPECT_EQ(ReadAt<uint64_t>(bytes, 40), 65536u);
  EXPECT_EQ(ReadAt<uint64_t>(bytes, 48),
            uint64_t{g.NumVertices()} * sizeof(uint32_t));
  // Header checksum over bytes [0, 136).
  EXPECT_EQ(ReadAt<uint64_t>(bytes, 136),
            Fingerprint(bytes.data(), 136));
  // Tail sentinel closes the file.
  EXPECT_EQ(ReadAt<uint64_t>(bytes, bytes.size() - 8), kCsrTailMagic);
  // Every section starts on a page boundary.
  for (int i = 0; i < kCsrNumSections; ++i) {
    EXPECT_EQ(ReadAt<uint64_t>(bytes, 40 + 24 * i) % 65536, 0u)
        << CsrSectionName(i);
  }
}

TEST(CsrSnapshotTest, RoundTripPreservesGraphAndOriginalIds) {
  const Graph g = MakePlanted(200, 7);
  std::vector<uint64_t> ids(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) ids[v] = 1000 + 3 * v;

  const std::string path = TempPath("roundtrip.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(g, ids, path).ok());
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

  // Degrees section (validated by default).
  std::string bytes = pristine;
  bytes[kCsrDefaultPageSize] ^= 0x01;
  WriteAll(path, bytes);
  auto snap = CsrSnapshot::Open(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kCorruption);
  EXPECT_NE(
      snap.status().ToString().find("degrees section checksum mismatch"),
      std::string::npos)
      << snap.status().ToString();
  EXPECT_NE(snap.status().ToString().find(
                path + ":" + std::to_string(kCsrDefaultPageSize) + ":"),
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

TEST(CsrSnapshotTest, UnboundedSnapshotTableServesItsPartition) {
  const Graph g = MakePlanted(300, 13);
  const std::string path = TempPath("serve_partition.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path).ok());
  auto snap = CsrSnapshot::Open(path);
  ASSERT_TRUE(snap.ok());

  // Budget 0: every owned adjacency is an unpinned span of the mapping.
  for (int rank = 0; rank < 2; ++rank) {
    VertexTable table(*snap, /*num_machines=*/2, rank,
                      /*graph_memory_budget=*/0);
    EXPECT_EQ(table.NumVertices(), g.NumVertices());
    for (VertexId v : table.OwnedVertices()) {
      const AdjRef got = table.Adjacency(v);
      EXPECT_EQ(got.pin, nullptr);
      ASSERT_TRUE(SameList(g, v, got.adj));
    }
    const EngineCountersSnapshot c = GraphCounters(table);
    EXPECT_EQ(c.graph_page_pins, 0u);  // no list cache at all
    EXPECT_EQ(c.graph_page_ins, 0u);
    EXPECT_EQ(table.CachedBytes(), 0u);
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
