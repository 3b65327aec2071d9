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

void CountedFree(void* p) {
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
  uint64_t blocks = 0;     // operator new calls inside LoadEdgeList
  uint64_t ids_block = 0;  // bytes of the block original_ids lives in
  uint64_t vertices = 0;
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
  shape.vertices = loaded->original_ids.size();
  // Freed blocks' addresses can come back: the latest one is live.
  for (size_t i = shape.blocks; i-- > 0;) {
    if (g_log[i].at == loaded->original_ids.data()) {
      shape.ids_block = g_log[i].bytes;
      break;
    }
  }
  return shape;
}

TEST(GraphAllocTest, LoadEdgeListAllocatesOriginalIdsOnceAtSize) {
  // Each pair of files has the same lines but for how many distinct ids
  // they name: a path over 3001 ids and a multigraph over 61. Only
  // original_ids grows with the id count, so a load must make as many
  // allocations for either, and hold the ids in one block of n entries.
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
    EXPECT_EQ(path.ids_block, 8 * path.vertices);
    EXPECT_EQ(multi.ids_block, 8 * multi.vertices);
    EXPECT_EQ(path.blocks, multi.blocks);
  }
}

}  // namespace
}  // namespace qcm
