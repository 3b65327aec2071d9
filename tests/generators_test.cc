// Unit tests for the synthetic graph generators.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <string>
#include <unordered_set>

#include "graph/generators.h"
#include "graph/stats.h"
#include "quick/quasi_clique.h"
#include "util/rng.h"

namespace qcm {
namespace {

TEST(ErdosRenyiTest, ExactEdgeCount) {
  auto g = GenErdosRenyi(100, 500, 1);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumVertices(), 100u);
  EXPECT_EQ(g->NumEdges(), 500u);
}

TEST(ErdosRenyiTest, DeterministicForSeed) {
  auto a = GenErdosRenyi(50, 100, 7);
  auto b = GenErdosRenyi(50, 100, 7);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (VertexId v = 0; v < 50; ++v) {
    auto na = a->Neighbors(v);
    auto nb = b->Neighbors(v);
    ASSERT_EQ(na.size(), nb.size());
    EXPECT_TRUE(std::equal(na.begin(), na.end(), nb.begin()));
  }
}

TEST(ErdosRenyiTest, RejectsOverfullGraph) {
  auto g = GenErdosRenyi(4, 7, 1);  // max is 6
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
}

TEST(ErdosRenyiTest, RejectsTinyN) {
  EXPECT_FALSE(GenErdosRenyi(1, 0, 1).ok());
}

TEST(BarabasiAlbertTest, SizeAndConnectivity) {
  auto g = GenBarabasiAlbert(500, 3, 2);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumVertices(), 500u);
  // Every vertex beyond the seed clique attaches >= 1 edge.
  for (VertexId v = 0; v < g->NumVertices(); ++v) {
    EXPECT_GE(g->Degree(v), 1u);
  }
  // Power-law-ish: max degree far above average.
  GraphStats s = ComputeGraphStats(*g);
  EXPECT_GT(s.max_degree, 3 * s.avg_degree);
}

TEST(BarabasiAlbertTest, RejectsBadArgs) {
  EXPECT_FALSE(GenBarabasiAlbert(10, 0, 1).ok());
  EXPECT_FALSE(GenBarabasiAlbert(3, 3, 1).ok());
}

TEST(PlantedTest, CommunitiesAreQuasiCliques) {
  PlantedConfig config;
  config.num_vertices = 400;
  config.background = BackgroundModel::kErdosRenyi;
  config.background_edges = 800;
  config.num_communities = 5;
  config.community_min = 12;
  config.community_max = 16;
  config.intra_density = 1.0;  // plant full cliques
  config.seed = 11;
  std::vector<std::vector<VertexId>> communities;
  auto g = GenPlantedCommunities(config, &communities);
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(communities.size(), 5u);
  auto gamma = std::move(Gamma::Create(0.9)).value();
  for (const auto& c : communities) {
    EXPECT_GE(c.size(), 12u);
    EXPECT_LE(c.size(), 16u);
    EXPECT_TRUE(std::is_sorted(c.begin(), c.end()));
    // A planted clique certainly passes any gamma.
    EXPECT_TRUE(IsQuasiCliqueGlobal(*g, c, gamma));
  }
}

TEST(PlantedTest, OverlapSharesMembers) {
  PlantedConfig config;
  config.num_vertices = 300;
  config.num_communities = 4;
  config.community_min = 10;
  config.community_max = 10;
  config.intra_density = 1.0;
  config.overlap_fraction = 0.5;
  config.seed = 5;
  std::vector<std::vector<VertexId>> communities;
  auto g = GenPlantedCommunities(config, &communities);
  ASSERT_TRUE(g.ok());
  for (size_t i = 1; i < communities.size(); ++i) {
    std::unordered_set<VertexId> prev(communities[i - 1].begin(),
                                      communities[i - 1].end());
    size_t shared = 0;
    for (VertexId v : communities[i]) shared += prev.count(v);
    EXPECT_GE(shared, 3u) << "community " << i;
  }
}

TEST(PlantedTest, RejectsBadConfig) {
  PlantedConfig config;
  config.num_vertices = 100;
  config.community_min = 2;  // too small
  EXPECT_FALSE(GenPlantedCommunities(config).ok());
  config.community_min = 10;
  config.community_max = 5;  // inverted
  EXPECT_FALSE(GenPlantedCommunities(config).ok());
  config.community_max = 200;  // bigger than graph
  EXPECT_FALSE(GenPlantedCommunities(config).ok());
}

TEST(PlantedSpecTest, ParsesEveryKey) {
  auto spec = ParsePlantedSpec(
      "n=1134890,communities=160,size=27..27,density=0.92,overlap=0.25,"
      "edges=12000",
      7);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->num_vertices, 1134890u);
  EXPECT_EQ(spec->num_communities, 160u);
  EXPECT_EQ(spec->community_min, 27u);
  EXPECT_EQ(spec->community_max, 27u);
  EXPECT_EQ(spec->intra_density, 0.92);
  EXPECT_EQ(spec->overlap_fraction, 0.25);
  EXPECT_EQ(spec->background, BackgroundModel::kErdosRenyi);
  EXPECT_EQ(spec->background_edges, 12000u);
  EXPECT_EQ(spec->seed, 7u);

  auto single = ParsePlantedSpec("n=200000,size=14..16,density=0.97", 1);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  EXPECT_EQ(single->community_min, 14u);
  EXPECT_EQ(single->community_max, 16u);
  EXPECT_EQ(single->background, BackgroundModel::kPowerLaw);
  auto fixed = ParsePlantedSpec("size=12", 1);
  ASSERT_TRUE(fixed.ok());
  EXPECT_EQ(fixed->community_min, 12u);
  EXPECT_EQ(fixed->community_max, 12u);
}

TEST(PlantedSpecTest, RejectsMalformedNumbers) {
  // A negative count must not wrap to ~4 billion vertices, an exponent
  // must not truncate to its mantissa, and no value may carry trailing
  // junk or be missing.
  for (const char* spec :
       {"n=-5,communities=2,size=10..10,density=1", "n=1e4",
        "density=0.9x", "size=10..", "size=..10", "communities=",
        "edges=12k", "overlap=nan", "n=99999999999"}) {
    auto parsed = ParsePlantedSpec(spec, 1);
    ASSERT_FALSE(parsed.ok()) << spec;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << spec;
  }
  auto bad = ParsePlantedSpec("n=-5", 1);
  EXPECT_NE(bad.status().message().find("'-5'"), std::string::npos)
      << bad.status().ToString();
  EXPECT_NE(bad.status().message().find("n:"), std::string::npos);
}

// Every tool hands its --gen-planted value to ParsePlantedSpec. Seeded
// mutations of valid specs -- flipped bits, bytes overwritten with spec
// characters or anything else, cut tails, inserted and erased bytes --
// must each parse OK or fail with InvalidArgument, never crash; and both
// outcomes must occur many times.
TEST(PlantedSpecTest, ParserSurvivesMutations) {
  const std::string seeds[] = {
      "n=1134890,communities=160,size=27..27,density=0.92,overlap=0.25,"
      "edges=12000",
      "n=200000,size=14..16,density=0.97",
      "n=1500,communities=5,size=9..13,density=0.95",
      "size=12",
  };
  const std::string spec_chars = "=,.0123456789-+e";
  Rng rng(20261020);
  int ok = 0;
  int invalid = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string m = seeds[rng.Uniform(std::size(seeds))];
    const int edits = 1 + static_cast<int>(rng.Uniform(3));
    for (int e = 0; e < edits && !m.empty(); ++e) {
      const size_t pos = rng.Uniform(m.size());
      const char spec_char = spec_chars[rng.Uniform(spec_chars.size())];
      switch (rng.Uniform(5)) {
        case 0:
          m[pos] = static_cast<char>(m[pos] ^ (1 << rng.Uniform(8)));
          break;
        case 1:
          m[pos] = rng.Uniform(2) == 0 ? spec_char
                                       : static_cast<char>(rng.Next());
          break;
        case 2:
          m.resize(pos);
          break;
        case 3:
          m.insert(m.begin() + static_cast<std::ptrdiff_t>(pos), spec_char);
          break;
        default:
          m.erase(pos, 1);
      }
    }
    const auto parsed = ParsePlantedSpec(m, 1);
    if (parsed.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << "mutation " << i << ": " << m;
      ++invalid;
    }
  }
  EXPECT_GT(ok, 1000);
  EXPECT_GT(invalid, 1000);
}

TEST(Figure4Test, MatchesPaperFacts) {
  Graph g = PaperFigure4Graph();
  EXPECT_EQ(g.NumVertices(), 9u);
  constexpr VertexId a = 0, b = 1, c = 2, d = 3, e = 4, f = 5, gg = 6, h = 7,
                     i = 8;
  // Gamma(d) = {a, c, e, h, i}.
  auto nd = g.Neighbors(d);
  EXPECT_EQ((std::vector<VertexId>(nd.begin(), nd.end())),
            (std::vector<VertexId>{a, c, e, h, i}));
  // Gamma(e) = {a, b, c, d}.
  auto ne = g.Neighbors(e);
  EXPECT_EQ((std::vector<VertexId>(ne.begin(), ne.end())),
            (std::vector<VertexId>{a, b, c, d}));
  // {a,b,c,d} and {a,b,c,d,e} are 0.6-quasi-cliques.
  auto gamma = std::move(Gamma::Create(0.6)).value();
  EXPECT_TRUE(IsQuasiCliqueGlobal(g, {a, b, c, d}, gamma));
  EXPECT_TRUE(IsQuasiCliqueGlobal(g, {a, b, c, d, e}, gamma));
  // B(e) = {f, g, h, i}: all vertices are within 2 hops of e.
  (void)f;
  (void)gg;
  (void)h;
  (void)i;
}

}  // namespace
}  // namespace qcm
