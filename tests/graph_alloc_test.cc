// The memory shape of loading a graph: what Graph::FromEndpoints,
// CompactKCore, OrderByDegeneracy and LoadEdgeList allocate beyond their
// inputs. This suite replaces the global operator new with one that counts
// live bytes (each block carries its size in a header), so it is a binary
// of its own, like mining_alloc_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "graph/edge_io.h"
#include "graph/generators.h"
#include "graph/id_map.h"
#include "graph/graph.h"
#include "graph/kcore.h"

namespace {

// The size header keeps the caller's block at malloc's alignment.
constexpr std::size_t kHeader = alignof(std::max_align_t);

std::atomic<uint64_t> g_live{0};     // bytes in live blocks
std::atomic<uint64_t> g_peak{0};     // most live bytes since ResetPeak()
std::atomic<uint64_t> g_largest{0};  // largest block since ResetPeak()
std::atomic<uint64_t> g_blocks{0};   // blocks allocated since ResetPeak()

/// Where each block since ResetPeak() went, while logging.
struct Block {
  const void* at;
  uint64_t bytes;
};
constexpr size_t kLogCapacity = 1024;
Block g_log[kLogCapacity];
std::atomic<bool> g_logging{false};

void* CountedAlloc(std::size_t size) {
  char* raw = static_cast<char*>(std::malloc(size + kHeader));
  if (raw == nullptr) return nullptr;
  *reinterpret_cast<std::size_t*>(raw) = size;
  const uint64_t live =
      g_live.fetch_add(size, std::memory_order_relaxed) + size;
  uint64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  uint64_t largest = g_largest.load(std::memory_order_relaxed);
  while (size > largest && !g_largest.compare_exchange_weak(
                               largest, size, std::memory_order_relaxed)) {
  }
  const uint64_t index = g_blocks.fetch_add(1, std::memory_order_relaxed);
  if (g_logging.load(std::memory_order_relaxed) && index < kLogCapacity) {
    g_log[index] = {raw + kHeader, size};
  }
  return raw + kHeader;
}

// Out of line: inlined into a vector's destructor, it makes GCC 12 read
// the size header as out of bounds and the free() as mismatched with the
// vector's operator new (false -Warray-bounds, -Wmismatched-new-delete).
[[gnu::noinline]] void CountedFree(void* p) {
  if (p == nullptr) return;
  char* raw = static_cast<char*>(p) - kHeader;
  g_live.fetch_sub(*reinterpret_cast<std::size_t*>(raw),
                   std::memory_order_relaxed);
  std::free(raw);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}

namespace qcm {
namespace {

/// Starts a measured region; returns the live bytes at its start.
uint64_t ResetPeak() {
  const uint64_t live = g_live.load(std::memory_order_relaxed);
  g_peak.store(live, std::memory_order_relaxed);
  g_largest.store(0, std::memory_order_relaxed);
  g_blocks.store(0, std::memory_order_relaxed);
  return live;
}

uint64_t Live() { return g_live.load(std::memory_order_relaxed); }
uint64_t Peak() { return g_peak.load(std::memory_order_relaxed); }

/// Slack for a few small blocks (a Status, a lambda's state).
constexpr uint64_t kSmallBytes = 256;

/// `pairs` random endpoint pairs on n vertices, duplicates and self-loops
/// included; sorted by the first endpoint when `sorted`.
std::vector<VertexId> RandomEndpoints(uint32_t n, size_t pairs, bool sorted,
                                      uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::pair<VertexId, VertexId>> edges(pairs);
  for (auto& [u, v] : edges) {
    u = static_cast<VertexId>(rng() % n);
    v = static_cast<VertexId>(rng() % n);
  }
  if (sorted) std::sort(edges.begin(), edges.end());
  std::vector<VertexId> flat;
  flat.reserve(2 * pairs);
  for (const auto& [u, v] : edges) {
    flat.push_back(u);
    flat.push_back(v);
  }
  return flat;
}

TEST(GraphAllocTest, FromEndpointsAddsOnlyTwelveBytesPerVertex) {
  constexpr uint32_t n = 1000;
  const uint64_t offsets_bytes = 8 * (uint64_t{n} + 1);
  for (const bool sorted : {false, true}) {
    SCOPED_TRACE(sorted ? "sorted" : "shuffled");
    std::vector<VertexId> flat = RandomEndpoints(n, 60'000, sorted, 3);
    const VertexId* buffer = flat.data();
    const uint64_t before = ResetPeak();
    auto g = Graph::FromEndpoints(n, std::move(flat));
    const uint64_t largest = g_largest.load(std::memory_order_relaxed);
    const uint64_t peak = Peak() - before;
    const uint64_t kept = Live() - before;
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    ASSERT_GT(g->NumEdges(), uint64_t{20} * n);
    // E >> n, yet nothing edge-sized is allocated: the largest block is the
    // offsets array, and the adjacency is the endpoint buffer itself.
    EXPECT_EQ(largest, offsets_bytes);
    EXPECT_EQ(g->Neighbors(0).data(), buffer);
    EXPECT_LE(peak, 12 * (uint64_t{n} + 1) + kSmallBytes);
    EXPECT_EQ(kept, offsets_bytes);
  }
}

/// A 20k-vertex graph whose k-cores, for k in 3..12, are a few hundred
/// community vertices.
Graph CommunityGraph() {
  PlantedConfig planted;
  planted.num_vertices = 20'000;
  planted.background_edges = 3;
  planted.num_communities = 12;
  planted.community_min = 14;
  planted.community_max = 18;
  planted.intra_density = 0.9;
  planted.overlap_fraction = 0.2;
  return std::move(GenPlantedCommunities(planted)).value();
}

/// The bytes of a KCore's arrays at their exact sizes: ids, offsets, adj.
uint64_t CoreBytes(const KCore& core) {
  const uint64_t m = core.graph.NumVertices();
  return 4 * m + 8 * (m + 1) + 8 * core.graph.NumEdges();
}

TEST(GraphAllocTest, CompactKCoreHoldsFourBytesPerInputVertex) {
  const Graph g = CommunityGraph();
  const uint64_t n = g.NumVertices();
  // The first call interns its trace span's name, a block kept for good.
  CompactKCore(g, 3);
  for (uint32_t k : {3u, 5u, 8u, 12u}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    // Only a vertex that starts at degree >= k and is peeled can sit on the
    // peel's stack; a growing vector holds at most twice its size.
    const std::vector<uint8_t> mask = KCoreMask(g, k);
    uint64_t stackable = 0;
    for (VertexId v = 0; v < n; ++v) {
      stackable += !mask[v] && g.Degree(v) >= k;
    }
    const uint64_t before = ResetPeak();
    KCore core = CompactKCore(g, k);
    const uint64_t peak = Peak() - before;
    const uint64_t kept = Live() - before;
    const uint64_t m = core.graph.NumVertices();
    ASSERT_GT(m, 0u);
    ASSERT_LT(m, n);
    // The core's own arrays, each at its exact size...
    EXPECT_EQ(kept, CoreBytes(core));
    // ...plus one 32-bit word per input vertex and the stack.
    EXPECT_LE(peak, kept + 4 * n + 2 * 4 * stackable + kSmallBytes)
        << stackable << " stackable vertices";
  }
}

TEST(GraphAllocTest, OrderByDegeneracyHoldsOnlyCoreSizedScratch) {
  const Graph g = CommunityGraph();
  // The first call interns its trace span's name, a block kept for good.
  OrderByDegeneracy(CompactKCore(g, 3));
  for (uint32_t k : {3u, 5u, 8u, 12u}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    KCore core = CompactKCore(g, k);
    const uint64_t m = core.graph.NumVertices();
    const uint64_t core_bytes = CoreBytes(core);
    const uint64_t max_degree = core.graph.MaxDegree();
    ASSERT_GT(m, 0u);
    const uint64_t before = ResetPeak();
    KCore ordered = OrderByDegeneracy(std::move(core));
    const uint64_t peak = Peak() - before;
    ASSERT_EQ(ordered.graph.NumVertices(), m);
    // The input core is freed on return, and what is kept is the ordered
    // core's own arrays, each at its exact size...
    EXPECT_EQ(Live() - (before - core_bytes), CoreBytes(ordered));
    // ...while the step held both cores and the peel's core numbers,
    // ranks and degree buckets: no term grows with the input graph.
    EXPECT_LE(peak, CoreBytes(ordered) + 4 * 2 * m + 4 * (max_degree + 2) +
                        kSmallBytes);
  }
}

std::string WriteFile(const std::string& name, const std::string& text) {
  const std::string path = testing::TempDir() + "/" + name;
  FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return path;
}

struct LoadShape {
  uint64_t blocks = 0;       // operator new calls inside LoadEdgeList
  uint64_t table_block = 0;  // bytes of the block original_ids' table is in
  uint64_t id_blocks = 0;    // blocks of 8 bytes per vertex
  uint64_t span_blocks = 0;  // blocks of 4 bytes per id of the span
  uint64_t vertices = 0;
  IdMap original_ids;
};

LoadShape MeasureLoad(const std::string& path) {
  ResetPeak();
  g_logging.store(true, std::memory_order_relaxed);
  auto loaded = LoadEdgeList(path);
  g_logging.store(false, std::memory_order_relaxed);
  LoadShape shape;
  shape.blocks = g_blocks.load(std::memory_order_relaxed);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_LE(shape.blocks, kLogCapacity);
  if (!loaded.ok() || shape.blocks > kLogCapacity) return shape;
  shape.vertices = loaded->graph.NumVertices();
  const std::vector<uint64_t>& table = loaded->original_ids.ids;
  const uint64_t span =
      shape.vertices == 0 ? 0
                          : loaded->original_ids[shape.vertices - 1] -
                                loaded->original_ids[0] + 1;
  // Freed blocks' addresses can come back: the latest one is live.
  for (size_t i = shape.blocks; i-- > 0;) {
    if (shape.table_block == 0 && table.data() != nullptr &&
        g_log[i].at == table.data()) {
      shape.table_block = g_log[i].bytes;
    }
    shape.id_blocks += g_log[i].bytes == 8 * shape.vertices;
    shape.span_blocks += g_log[i].bytes == 4 * span;
  }
  shape.original_ids = std::move(loaded->original_ids);
  return shape;
}

TEST(GraphAllocTest, LoadEdgeListAllocatesOriginalIdsOnceAtSize) {
  // Each pair of files has the same lines but for how many distinct ids
  // they name: a path over 3001 ids and a multigraph over 61. Only the id
  // map grows with the id count, so a load must make as many allocations
  // for either. Dense ids from 5 are one run: no table, and no rank table
  // either (Graph::FromEndpoints' lower-neighbour counts are the one block
  // of 4 bytes per id); sparse and wide ids hold one table of n entries.
  constexpr int kEdges = 3000;
  struct IdScheme {
    const char* name;
    uint64_t scale, shift;  // id x is written as x * scale + shift
  };
  for (const IdScheme& s : {IdScheme{"dense", 1, 5},
                            IdScheme{"sparse", 100'003, 7},
                            IdScheme{"wide", 100'003, uint64_t{1} << 40}}) {
    SCOPED_TRACE(s.name);
    std::string path_text, multi_text;
    for (int i = 0; i < kEdges; ++i) {
      const auto line = [&](uint64_t u, uint64_t v) {
        return std::to_string(u * s.scale + s.shift) + " " +
               std::to_string(v * s.scale + s.shift) + "\n";
      };
      path_text += line(i, i + 1);
      multi_text += line(i % 61, (i * 7 + 1) % 61);
    }
    const LoadShape path = MeasureLoad(WriteFile("alloc_path.txt", path_text));
    const LoadShape multi =
        MeasureLoad(WriteFile("alloc_multi.txt", multi_text));
    EXPECT_EQ(path.vertices, uint64_t{kEdges} + 1);
    EXPECT_EQ(multi.vertices, 61u);
    if (s.scale == 1) {
      EXPECT_EQ(path.original_ids, (IdMap{s.shift, {}}));
      EXPECT_EQ(multi.original_ids, (IdMap{s.shift, {}}));
      EXPECT_EQ(path.id_blocks, 0u);
      EXPECT_EQ(multi.id_blocks, 0u);
      EXPECT_EQ(path.span_blocks, 1u);
      EXPECT_EQ(multi.span_blocks, 1u);
    } else {
      EXPECT_EQ(path.table_block, 8 * path.vertices);
      EXPECT_EQ(multi.table_block, 8 * multi.vertices);
    }
    EXPECT_EQ(path.blocks, multi.blocks);
  }
}

// The peak of loading a run: while the file is read, the endpoint buffer
// (its last doubling holds the old half beside it) and the read buffer;
// then the buffer and Graph::FromEndpoints' offsets and lower-neighbour
// counts, 12 bytes per vertex. A path is sparse enough that the second
// phase sets the peak, so an id array of 8 bytes per vertex alive at its
// end would break the bound.
TEST(GraphAllocTest, LoadOfARunHoldsNoIdArray) {
  constexpr uint64_t n = 50'000;
  std::string text;
  for (uint64_t v = 1; v < n; ++v) {
    text += std::to_string(v) + " " + std::to_string(v + 1) + "\n";
  }
  const std::string path = WriteFile("alloc_run.txt", text);
  const uint64_t before = ResetPeak();
  auto loaded = LoadEdgeList(path);
  const uint64_t peak = Peak() - before;
  // The endpoint buffer is the largest block, and the graph keeps it.
  const uint64_t buffer = g_largest.load(std::memory_order_relaxed);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->graph.NumVertices(), n);
  EXPECT_EQ(loaded->original_ids, (IdMap{1, {}}));
  const uint64_t reading = buffer + buffer / 2 + kEdgeListReadBuffer + 1;
  const uint64_t building = buffer + 12 * (n + 1);
  ASSERT_GE(building, reading) << "the read would set the peak";
  EXPECT_LE(peak, building + kSmallBytes)
      << "buffer " << buffer << ", " << n << " vertices";
}

/// A file whose edges mostly lie outside its k-core for k = 10: a path
/// over ids 1 .. path_length, each edge listed both ways, then a 20-clique
/// on the next 20 ids, each edge once.
std::string PathAndClique(uint64_t path_length) {
  std::string text;
  for (uint64_t v = 1; v < path_length; ++v) {
    text += std::to_string(v) + " " + std::to_string(v + 1) + "\n";
    text += std::to_string(v + 1) + " " + std::to_string(v) + "\n";
  }
  for (uint64_t a = path_length + 1; a <= path_length + 20; ++a) {
    for (uint64_t b = a + 1; b <= path_length + 20; ++b) {
      text += std::to_string(a) + " " + std::to_string(b) + "\n";
    }
  }
  return text;
}

// The k-core prefilter's load reserves its endpoint buffer once, from the
// file's size: the largest block is that reservation, and a load makes as
// many allocations for a 50k-vertex path as for a 5k-vertex one. Its peak
// is the reservation, one byte of count per vertex and the read buffer;
// what it leaves is the graph's offsets and the exact adjacency of the
// edges that survive (the clique's), with no edge-sized buffer.
TEST(GraphAllocTest, PrefilteredLoadReservesOnceAndKeepsNoEdgeBuffer) {
  constexpr uint32_t k = 10;
  constexpr uint64_t clique_edges = 20 * 19 / 2;
  uint64_t blocks[2] = {0, 0};
  for (const uint64_t path_length : {uint64_t{50'000}, uint64_t{5'000}}) {
    SCOPED_TRACE("path of " + std::to_string(path_length));
    const std::string text = PathAndClique(path_length);
    const std::string path = WriteFile("alloc_prefilter.txt", text);
    const uint64_t n = path_length + 20;
    const uint64_t reservation = 4 * (text.size() / 2 + 2);
    const uint64_t before = ResetPeak();
    auto loaded = LoadEdgeList(path, k);
    const uint64_t peak = Peak() - before;
    const uint64_t kept = Live() - before;
    blocks[path_length == 5'000] = g_blocks.load(std::memory_order_relaxed);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded->graph.NumVertices(), n);
    ASSERT_EQ(loaded->graph.NumEdges(), clique_edges);
    EXPECT_EQ(loaded->edge_lines, 2 * (path_length - 1) + clique_edges);
    EXPECT_EQ(loaded->original_ids, (IdMap{1, {}}));
    EXPECT_EQ(g_largest.load(std::memory_order_relaxed), reservation);
    EXPECT_LE(peak, reservation + n + kEdgeListReadBuffer + 1 + kSmallBytes);
    EXPECT_EQ(kept, 8 * (n + 1) + 8 * clique_edges);
  }
  EXPECT_EQ(blocks[0], blocks[1]);
}

}  // namespace
}  // namespace qcm
