// Unit tests for graph/: CSR construction, k-core peeling, edge I/O, stats.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/edge_io.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/kcore.h"
#include "graph/stats.h"
#include "reference_graph.h"

namespace qcm {
namespace {

Graph MakePath(uint32_t n) {
  std::vector<Edge> edges;
  for (uint32_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return std::move(Graph::FromEdges(n, std::move(edges))).value();
}

Graph MakeClique(uint32_t n) {
  std::vector<Edge> edges;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) edges.emplace_back(i, j);
  }
  return std::move(Graph::FromEdges(n, std::move(edges))).value();
}

TEST(GraphTest, EmptyGraph) {
  auto g = Graph::FromEdges(0, {});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumVertices(), 0u);
  EXPECT_EQ(g->NumEdges(), 0u);
  EXPECT_EQ(g->MaxDegree(), 0u);
}

TEST(GraphTest, RejectsOutOfRangeEndpoint) {
  auto g = Graph::FromEdges(3, {{0, 3}});
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphTest, DropsSelfLoopsAndDuplicates) {
  auto g = Graph::FromEdges(4, {{0, 1}, {1, 0}, {2, 2}, {0, 1}, {1, 2}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumEdges(), 2u);
  EXPECT_EQ(g->Degree(0), 1u);
  EXPECT_EQ(g->Degree(1), 2u);
  EXPECT_EQ(g->Degree(2), 1u);
  EXPECT_EQ(g->Degree(3), 0u);
}

TEST(GraphTest, AdjacencySortedAndSymmetric) {
  auto g = Graph::FromEdges(5, {{3, 1}, {3, 0}, {3, 4}, {3, 2}, {1, 4}});
  ASSERT_TRUE(g.ok());
  auto nbrs = g->Neighbors(3);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 4u);
  for (VertexId u = 0; u < g->NumVertices(); ++u) {
    for (VertexId v : g->Neighbors(u)) {
      EXPECT_TRUE(g->HasEdge(v, u)) << u << "-" << v;
    }
  }
}

using RawPairs = std::vector<std::pair<uint64_t, uint64_t>>;

std::vector<VertexId> Flat(const RawPairs& pairs) {
  std::vector<VertexId> flat;
  for (const auto& [u, v] : pairs) {
    flat.push_back(static_cast<VertexId>(u));
    flat.push_back(static_cast<VertexId>(v));
  }
  return flat;
}

std::vector<Edge> AsEdges(const RawPairs& pairs) {
  std::vector<Edge> edges;
  for (const auto& [u, v] : pairs) {
    edges.emplace_back(static_cast<VertexId>(u), static_cast<VertexId>(v));
  }
  return edges;
}

/// Both builders on `pairs` must give the set reference's rows.
void ExpectBuildsMatchReference(uint32_t n, const RawPairs& pairs) {
  const SetAdjacency want = ReferenceAdjacency(n, pairs);
  auto flat = Graph::FromEndpoints(n, Flat(pairs));
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  EXPECT_TRUE(SameAdjacency(*flat, want)) << "FromEndpoints";
  auto edges = Graph::FromEdges(n, AsEdges(pairs));
  ASSERT_TRUE(edges.ok()) << edges.status().ToString();
  EXPECT_TRUE(SameAdjacency(*edges, want)) << "FromEdges";
}

/// `count` pairs over a random subset of [0, n), so some vertices stay
/// isolated; about 1 in 8 is a self-loop and 1 in 4 repeats an earlier
/// pair, flipped half of the time.
RawPairs RandomPairs(std::mt19937_64& rng, uint32_t n, size_t count) {
  std::vector<uint64_t> used;
  for (uint64_t v = 0; v < n; ++v) {
    if (rng() % 4 != 0) used.push_back(v);
  }
  if (used.empty()) used.push_back(rng() % n);
  RawPairs pairs;
  for (size_t i = 0; i < count; ++i) {
    uint64_t u = used[rng() % used.size()];
    uint64_t v = used[rng() % used.size()];
    if (rng() % 8 == 0) v = u;
    if (!pairs.empty() && rng() % 4 == 0) {
      std::tie(u, v) = pairs[rng() % pairs.size()];
      if (rng() % 2 == 0) std::swap(u, v);
    }
    pairs.emplace_back(u, v);
  }
  return pairs;
}

TEST(GraphTest, BuildsMatchSetReferenceOnRandomPairs) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    std::mt19937_64 rng(seed);
    const uint32_t n = 1 + static_cast<uint32_t>(rng() % 80);
    RawPairs pairs = RandomPairs(rng, n, rng() % (6 * n));
    SCOPED_TRACE("seed=" + std::to_string(seed) + " n=" + std::to_string(n) +
                 " pairs=" + std::to_string(pairs.size()));
    ExpectBuildsMatchReference(n, pairs);  // shuffled
    std::sort(pairs.begin(), pairs.end());
    ExpectBuildsMatchReference(n, pairs);  // pre-sorted
    std::reverse(pairs.begin(), pairs.end());
    ExpectBuildsMatchReference(n, pairs);  // sorted descending
  }
}

TEST(GraphTest, BuildsMatchSetReferenceOnEdgeShapes) {
  ExpectBuildsMatchReference(0, {});
  ExpectBuildsMatchReference(7, {});  // isolated vertices only
  ExpectBuildsMatchReference(5, {{0, 0}, {3, 3}, {3, 3}, {4, 4}});
  ExpectBuildsMatchReference(2, {{1, 0}, {0, 1}, {1, 0}, {1, 1}});
  // One hub adjacent to every other vertex, each spoke listed in both
  // orientations, shuffled, plus a sparse ring among the leaves.
  std::mt19937_64 rng(7);
  for (uint32_t n : {2u, 3u, 500u, 4097u}) {
    const uint64_t hub = rng() % n;
    RawPairs pairs;
    for (uint64_t v = 0; v < n; ++v) {
      if (v == hub) continue;
      pairs.emplace_back(hub, v);
      pairs.emplace_back(v, hub);
      pairs.emplace_back(v, (v + 1) % n);
    }
    std::shuffle(pairs.begin(), pairs.end(), rng);
    SCOPED_TRACE("hub n=" + std::to_string(n));
    ExpectBuildsMatchReference(n, pairs);
  }
}

TEST(GraphTest, OutOfRangePairIsNamedWhereverItSits) {
  std::mt19937_64 rng(11);
  const uint32_t n = 10;
  for (size_t at : {size_t{0}, size_t{50}, size_t{99}}) {
    RawPairs pairs = RandomPairs(rng, n, 100);
    pairs[at] = at == 50 ? std::pair<uint64_t, uint64_t>{10, 3}
                         : std::pair<uint64_t, uint64_t>{3, 10};
    const std::string named = at == 50 ? "(10, 3)" : "(3, 10)";
    for (const auto& g : {Graph::FromEndpoints(n, Flat(pairs)),
                          Graph::FromEdges(n, AsEdges(pairs))}) {
      ASSERT_FALSE(g.ok()) << "at=" << at;
      EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(g.status().message().find(named), std::string::npos)
          << "at=" << at << ": " << g.status().ToString();
    }
  }
  auto odd = Graph::FromEndpoints(n, {1, 2, 3});
  EXPECT_EQ(odd.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphTest, HasEdge) {
  Graph g = MakePath(4);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(0, 0));
  EXPECT_FALSE(g.HasEdge(0, 99));
}

TEST(GraphTest, CliqueDegrees) {
  Graph g = MakeClique(6);
  EXPECT_EQ(g.NumEdges(), 15u);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(g.Degree(v), 5u);
  EXPECT_EQ(g.MaxDegree(), 5u);
}

TEST(KCoreTest, PathCoreNumbers) {
  Graph g = MakePath(5);
  auto core = CoreDecomposition(g);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(core[v], 1u) << v;
}

TEST(KCoreTest, CliqueCoreNumbers) {
  Graph g = MakeClique(5);
  auto core = CoreDecomposition(g);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(core[v], 4u);
}

TEST(KCoreTest, CliqueWithPendant) {
  // Clique 0-3 plus pendant 4 attached to 0.
  std::vector<Edge> edges;
  for (uint32_t i = 0; i < 4; ++i) {
    for (uint32_t j = i + 1; j < 4; ++j) edges.emplace_back(i, j);
  }
  edges.emplace_back(0, 4);
  auto g = std::move(Graph::FromEdges(5, std::move(edges))).value();
  auto core = CoreDecomposition(g);
  EXPECT_EQ(core[4], 1u);
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(core[v], 3u);
  auto mask = KCoreMask(g, 3);
  EXPECT_EQ(KCoreSize(g, 3), 4u);
  EXPECT_FALSE(mask[4]);
}

TEST(KCoreTest, PeelingCascades) {
  // A "tail" 0-1-2 hanging off a triangle 2,3,4: 2-core is the triangle.
  auto g = std::move(Graph::FromEdges(
                         5, {{0, 1}, {1, 2}, {2, 3}, {2, 4}, {3, 4}}))
               .value();
  EXPECT_EQ(KCoreSize(g, 2), 3u);
  auto mask = KCoreMask(g, 2);
  EXPECT_FALSE(mask[0]);
  EXPECT_FALSE(mask[1]);
  EXPECT_TRUE(mask[2]);
  EXPECT_TRUE(mask[3]);
  EXPECT_TRUE(mask[4]);
}

TEST(KCoreTest, MatchesBruteForceOnRandomGraphs) {
  // Property: the k-core mask equals iterated naive peeling.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto g = std::move(GenErdosRenyi(60, 150, seed)).value();
    for (uint32_t k = 1; k <= 5; ++k) {
      auto mask = KCoreMask(g, k);
      // Naive peeling.
      std::vector<uint8_t> alive(g.NumVertices(), 1);
      bool changed = true;
      while (changed) {
        changed = false;
        for (VertexId v = 0; v < g.NumVertices(); ++v) {
          if (!alive[v]) continue;
          uint32_t d = 0;
          for (VertexId u : g.Neighbors(v)) d += alive[u];
          if (d < k) {
            alive[v] = 0;
            changed = true;
          }
        }
      }
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        EXPECT_EQ(mask[v] != 0, alive[v] != 0)
            << "seed=" << seed << " k=" << k << " v=" << v;
      }
    }
  }
}

TEST(KCoreTest, CoreMonotoneInK) {
  auto g = std::move(GenBarabasiAlbert(200, 3, 5)).value();
  uint64_t prev = g.NumVertices();
  for (uint32_t k = 1; k <= 8; ++k) {
    uint64_t size = KCoreSize(g, k);
    EXPECT_LE(size, prev);
    prev = size;
  }
}

/// The k-core properties' shapes: Erdos-Renyi, Barabasi-Albert and
/// planted communities, three seeds each.
std::vector<Graph> KCoreShapes() {
  std::vector<Graph> graphs;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    graphs.push_back(std::move(GenErdosRenyi(80, 240, seed)).value());
    graphs.push_back(std::move(GenBarabasiAlbert(150, 3, seed)).value());
    PlantedConfig planted;
    planted.num_vertices = 300;
    planted.num_communities = 4;
    planted.community_min = 8;
    planted.community_max = 12;
    planted.seed = seed;
    graphs.push_back(std::move(GenPlantedCommunities(planted)).value());
  }
  return graphs;
}

constexpr uint32_t kCoreKs[] = {0, 1, 2, 3, 5, 8};

TEST(KCoreTest, CompactCoreRenumbersTheCoreInInputOrder) {
  // Property: CompactKCore keeps exactly the KCoreMask vertices, numbered
  // in ascending input-id order, and each list is the input's list
  // filtered by the mask and renumbered -- the graph FromEdges builds from
  // the renumbered edges between k-core vertices.
  for (const Graph& g : KCoreShapes()) {
    for (uint32_t k : kCoreKs) {
      SCOPED_TRACE("n=" + std::to_string(g.NumVertices()) +
                   " k=" + std::to_string(k));
      const std::vector<uint8_t> mask = KCoreMask(g, k);
      const KCore core = CompactKCore(g, k);
      // The map back is the mask's vertices, strictly ascending.
      std::vector<VertexId> members;
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        if (mask[v]) members.push_back(v);
      }
      ASSERT_EQ(core.ids, members);
      const uint32_t n = static_cast<uint32_t>(core.ids.size());
      ASSERT_EQ(core.graph.NumVertices(), n);
      std::vector<VertexId> compact(g.NumVertices(), UINT32_MAX);
      for (VertexId c = 0; c < n; ++c) compact[core.ids[c]] = c;
      std::vector<Edge> core_edges;
      for (VertexId c = 0; c < n; ++c) {
        std::vector<VertexId> want;
        for (VertexId u : g.Neighbors(core.ids[c])) {
          if (mask[u]) want.push_back(compact[u]);
        }
        const auto got = core.graph.Neighbors(c);
        EXPECT_EQ(std::vector<VertexId>(got.begin(), got.end()), want)
            << "c=" << c;
        EXPECT_TRUE(std::is_sorted(got.begin(), got.end())) << "c=" << c;
        EXPECT_GE(core.graph.Degree(c), k) << "c=" << c;
        for (VertexId d : want) {
          if (c < d) core_edges.emplace_back(c, d);
        }
      }
      const Graph rebuilt =
          std::move(Graph::FromEdges(n, core_edges)).value();
      ASSERT_EQ(core.graph.NumEdges(), rebuilt.NumEdges());
      for (VertexId c = 0; c < n; ++c) {
        EXPECT_TRUE(std::ranges::equal(core.graph.Neighbors(c),
                                       rebuilt.Neighbors(c)))
            << "c=" << c;
      }
    }
  }
}

TEST(EdgeIoTest, RoundTrip) {
  auto g = std::move(GenErdosRenyi(50, 100, 42)).value();
  const std::string path = testing::TempDir() + "/qcm_edgeio_test.txt";
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  const Graph& h = loaded->graph;
  // Isolated vertices are not representable in edge lists; compare edges.
  ASSERT_EQ(h.NumEdges(), g.NumEdges());
  for (VertexId u = 0; u < h.NumVertices(); ++u) {
    for (VertexId v : h.Neighbors(u)) {
      VertexId gu = static_cast<VertexId>(loaded->original_ids[u]);
      VertexId gv = static_cast<VertexId>(loaded->original_ids[v]);
      EXPECT_TRUE(g.HasEdge(gu, gv));
    }
  }
  std::remove(path.c_str());
}

TEST(EdgeIoTest, ParsesCommentsAndCompactsIds) {
  const std::string path = testing::TempDir() + "/qcm_edgeio_comments.txt";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("# SNAP header\n% konect header\n1000 7\n7 42\n\n42 1000\n", f);
  fclose(f);
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->graph.NumVertices(), 3u);
  EXPECT_EQ(loaded->graph.NumEdges(), 3u);
  EXPECT_EQ(loaded->original_ids.ids, (std::vector<uint64_t>{7, 42, 1000}));
  std::remove(path.c_str());
}

TEST(EdgeIoTest, MissingFileIsIOError) {
  auto loaded = LoadEdgeList("/nonexistent/path/graph.txt");
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST(EdgeIoTest, MalformedLineIsCorruption) {
  const std::string path = testing::TempDir() + "/qcm_edgeio_bad.txt";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("1 2\nnot an edge\n", f);
  fclose(f);
  auto loaded = LoadEdgeList(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(StatsTest, CliqueStats) {
  Graph g = MakeClique(10);
  GraphStats s = ComputeGraphStats(g);
  EXPECT_EQ(s.num_vertices, 10u);
  EXPECT_EQ(s.num_edges, 45u);
  EXPECT_EQ(s.min_degree, 9u);
  EXPECT_EQ(s.max_degree, 9u);
  EXPECT_DOUBLE_EQ(s.avg_degree, 9.0);
  EXPECT_DOUBLE_EQ(s.density, 1.0);
}

TEST(StatsTest, EmptyGraphStats) {
  auto g = std::move(Graph::FromEdges(0, {})).value();
  GraphStats s = ComputeGraphStats(g);
  EXPECT_EQ(s.num_vertices, 0u);
  EXPECT_EQ(s.num_edges, 0u);
}

TEST(KCoreTest, DegeneracyOrderRenumbersTheCoreSmallestLast) {
  // Property: OrderByDegeneracy permutes CompactKCore's ids, carries each
  // list over (mapped, sorted, symmetric), and leaves every vertex at most
  // its core number of later neighbours -- exactly the degeneracy at the
  // most. The order is a function of the graph alone.
  size_t reordered = 0, cores = 0;
  for (const Graph& g : KCoreShapes()) {
    const std::vector<uint32_t> core_number = CoreDecomposition(g);
    for (uint32_t k : kCoreKs) {
      SCOPED_TRACE("n=" + std::to_string(g.NumVertices()) +
                   " k=" + std::to_string(k));
      const KCore compact = CompactKCore(g, k);
      const KCore ordered = OrderByDegeneracy(CompactKCore(g, k));
      const uint32_t n = ordered.graph.NumVertices();
      ASSERT_EQ(n, compact.graph.NumVertices());
      ASSERT_EQ(ordered.graph.NumEdges(), compact.graph.NumEdges());
      std::vector<VertexId> sorted_ids = ordered.ids;
      std::sort(sorted_ids.begin(), sorted_ids.end());
      ASSERT_EQ(sorted_ids, compact.ids);
      if (n > 0) ++cores;
      reordered += ordered.ids != compact.ids;
      // Input id -> ordered id.
      std::vector<VertexId> rank(g.NumVertices(), UINT32_MAX);
      for (VertexId c = 0; c < n; ++c) rank[ordered.ids[c]] = c;
      uint32_t degeneracy = 0, most_later = 0;
      for (VertexId c = 0; c < n; ++c) {
        const VertexId v = ordered.ids[c];
        std::vector<VertexId> want;
        for (VertexId u : g.Neighbors(v)) {
          if (rank[u] != UINT32_MAX) want.push_back(rank[u]);
        }
        std::sort(want.begin(), want.end());
        const auto got = ordered.graph.Neighbors(c);
        ASSERT_EQ(std::vector<VertexId>(got.begin(), got.end()), want)
            << "c=" << c;
        uint32_t later = 0;
        for (VertexId d : got) {
          EXPECT_TRUE(ordered.graph.HasEdge(d, c)) << c << "-" << d;
          later += d > c;
        }
        EXPECT_LE(later, core_number[v]) << "c=" << c;
        degeneracy = std::max(degeneracy, core_number[v]);
        most_later = std::max(most_later, later);
      }
      EXPECT_EQ(ordered.degeneracy, degeneracy);
      // The first vertex the peel takes from the top core has all of that
      // core's neighbours after it.
      EXPECT_EQ(most_later, degeneracy);
      const KCore again = OrderByDegeneracy(CompactKCore(g, k));
      EXPECT_EQ(again.ids, ordered.ids);
      for (VertexId c = 0; c < n; ++c) {
        EXPECT_TRUE(std::ranges::equal(again.graph.Neighbors(c),
                                       ordered.graph.Neighbors(c)))
            << "c=" << c;
      }
    }
  }
  // The order is not the input order in disguise.
  EXPECT_GT(2 * reordered, cores) << reordered << " of " << cores;
}

}  // namespace
}  // namespace qcm
