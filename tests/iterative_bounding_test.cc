// Focused tests for Algorithm 1 (iterative bounding): Type-I/Type-II rule
// firing, critical-vertex expansion semantics, candidate emission sites,
// and the contract that `pruned == false` implies a non-empty ext.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "graph/ego_builder.h"
#include "graph/generators.h"
#include "graph/local_graph.h"
#include "quick/iterative_bounding.h"
#include "quick/mining_context.h"
#include "quick/naive_enum.h"

namespace qcm {
namespace {

LocalGraph FromGraph(const Graph& g) {
  EgoBuilder builder;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    std::vector<VertexId> adj(g.Neighbors(v).begin(), g.Neighbors(v).end());
    builder.Stage(v, adj);
  }
  return builder.Build();
}

Graph Clique(uint32_t n) {
  std::vector<Edge> edges;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) edges.emplace_back(i, j);
  }
  return std::move(Graph::FromEdges(n, std::move(edges))).value();
}

struct Fixture {
  LocalGraph graph;
  MiningOptions options;
  VectorSink sink;
  std::unique_ptr<MiningContext> ctx;

  Fixture(const Graph& g, double gamma, uint32_t min_size) {
    graph = FromGraph(g);
    options.gamma = gamma;
    options.min_size = min_size;
    ctx = std::make_unique<MiningContext>(&graph, options, &sink);
  }
};

TEST(IterativeBoundingTest, CliqueKeepsEverything) {
  Fixture fx(Clique(8), 0.9, 3);
  std::vector<LocalId> s = {0};
  std::vector<LocalId> ext = {1, 2, 3, 4, 5, 6, 7};
  BoundingResult r = IterativeBounding(*fx.ctx, s, ext);
  EXPECT_FALSE(r.pruned);
  EXPECT_EQ(ext.size(), 7u);  // nothing pruned in a clique
  EXPECT_EQ(s.size(), 1u);
}

TEST(IterativeBoundingTest, PrunedFalseImpliesNonEmptyExt) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    auto g = std::move(GenErdosRenyi(20, 70, seed)).value();
    Fixture fx(g, 0.7, 3);
    std::vector<LocalId> s = {0};
    std::vector<LocalId> ext;
    for (LocalId u = 1; u < 20; ++u) ext.push_back(u);
    BoundingResult r = IterativeBounding(*fx.ctx, s, ext);
    if (!r.pruned) {
      EXPECT_FALSE(ext.empty());
    }
  }
}

TEST(IterativeBoundingTest, IsolatedExtVertexPruned) {
  // Vertex 4 is connected to nothing in {0} ∪ ext: diameter/degree rules
  // must remove it. Graph: clique {0,1,2,3} plus isolated-ish 4-5 edge.
  auto g = std::move(Graph::FromEdges(6, {{0, 1},
                                          {0, 2},
                                          {0, 3},
                                          {1, 2},
                                          {1, 3},
                                          {2, 3},
                                          {4, 5}}))
               .value();
  Fixture fx(g, 0.9, 2);
  std::vector<LocalId> s = {0};
  std::vector<LocalId> ext = {1, 2, 3, 4};
  BoundingResult r = IterativeBounding(*fx.ctx, s, ext);
  EXPECT_FALSE(r.pruned);
  // 4 has dS = dExt = 0 -> Theorem 3 prunes it immediately.
  EXPECT_EQ(ext, (std::vector<LocalId>{1, 2, 3}));
}

TEST(IterativeBoundingTest, StateFlagsRestoredOnExit) {
  Fixture fx(Clique(6), 0.9, 3);
  std::vector<LocalId> s = {0};
  std::vector<LocalId> ext = {1, 2, 3, 4, 5};
  IterativeBounding(*fx.ctx, s, ext);
  for (LocalId v = 0; v < fx.graph.n(); ++v) {
    EXPECT_EQ(fx.ctx->state()[v], static_cast<uint8_t>(VState::kOut)) << v;
  }
}

TEST(IterativeBoundingTest, EmitsWhenExtFullyPruned) {
  // S = a 5-clique; ext = one vertex with a single edge into S. gamma=1
  // (cliques): u cannot join, gets pruned, and S itself must be emitted
  // as a candidate (case C1 examination).
  std::vector<Edge> edges;
  for (uint32_t i = 0; i < 5; ++i) {
    for (uint32_t j = i + 1; j < 5; ++j) edges.emplace_back(i, j);
  }
  edges.emplace_back(0, 5);
  auto g = std::move(Graph::FromEdges(6, std::move(edges))).value();
  Fixture fx(g, 1.0, 3);
  std::vector<LocalId> s = {0, 1, 2, 3, 4};
  std::vector<LocalId> ext = {5};
  BoundingResult r = IterativeBounding(*fx.ctx, s, ext);
  EXPECT_TRUE(r.pruned);
  EXPECT_TRUE(r.emitted);
  ASSERT_EQ(fx.sink.results().size(), 1u);
  EXPECT_EQ(fx.sink.results()[0], (VertexSet{0, 1, 2, 3, 4}));
}

TEST(IterativeBoundingTest, CriticalVertexPullsNeighbors) {
  // gamma = 1: in any clique extension, a critical vertex's ext-neighbors
  // must all join S. Take a 4-clique {0,1,2,3} extendable by {4,5} where
  // 4,5 complete a 6-clique.
  Graph g = Clique(6);
  Fixture fx(g, 1.0, 3);
  std::vector<LocalId> s = {0, 1, 2, 3};
  std::vector<LocalId> ext = {4, 5};
  BoundingResult r = IterativeBounding(*fx.ctx, s, ext);
  // With gamma=1 and L_S = 0... S is already a clique; critical condition
  // requires dS+dext == ceil(gamma(|S|+L-1)). Whether or not the rule
  // fires, the outcome must keep the 6-clique reachable: not pruned, or
  // pruned having absorbed everything into S.
  if (r.pruned) {
    EXPECT_EQ(s.size(), 6u);
  } else {
    EXPECT_EQ(s.size() + ext.size(), 6u);
  }
  EXPECT_GE(fx.ctx->stats.critical_moves, 0u);
}

TEST(IterativeBoundingTest, CriticalVertexDisabledStillCorrect) {
  auto g = std::move(GenErdosRenyi(15, 50, 3)).value();
  Fixture with(g, 0.8, 3);
  Fixture without(g, 0.8, 3);
  without.options.use_critical_vertex = false;
  without.ctx =
      std::make_unique<MiningContext>(&without.graph, without.options,
                                      &without.sink);
  // Run bounding from the same seed state; both must agree on prune
  // decisions' *semantics* (any vertex kept by one and dropped by the
  // other must be droppable, i.e. not in any valid extension). Here we
  // check the weaker but meaningful invariant: neither run prunes a
  // vertex that participates in a valid quasi-clique extending S.
  auto oracle = std::move(NaiveMaximalQuasiCliques(g, 0.8, 3)).value();
  for (Fixture* fx : {&with, &without}) {
    std::vector<LocalId> s = {0};
    std::vector<LocalId> ext;
    for (LocalId u = 1; u < 15; ++u) ext.push_back(u);
    BoundingResult r = IterativeBounding(*fx->ctx, s, ext);
    if (r.pruned) continue;
    // Every oracle result containing vertex 0 must be inside s ∪ ext.
    for (const auto& q : oracle) {
      if (std::find(q.begin(), q.end(), 0u) == q.end()) continue;
      for (VertexId v : q) {
        bool present =
            std::find(s.begin(), s.end(), v) != s.end() ||
            std::find(ext.begin(), ext.end(), v) != ext.end();
        EXPECT_TRUE(present) << "vertex " << v << " wrongly pruned";
      }
    }
  }
}

// Property: after bounding on random graphs, no vertex of any valid
// quasi-clique containing S was Type-I-pruned (pruning must never change
// the answer, only the work).
class BoundingSoundness : public testing::TestWithParam<uint64_t> {};

TEST_P(BoundingSoundness, NeverPrunesValidExtensions) {
  const uint64_t seed = GetParam();
  auto g = std::move(GenErdosRenyi(16, 56, seed)).value();
  for (double gamma : {0.6, 0.8, 0.9}) {
    Fixture fx(g, gamma, 3);
    std::vector<LocalId> s = {0};
    std::vector<LocalId> ext;
    for (LocalId u = 1; u < 16; ++u) ext.push_back(u);
    BoundingResult r = IterativeBounding(*fx.ctx, s, ext);
    auto oracle =
        std::move(NaiveMaximalQuasiCliques(g, gamma, 3)).value();
    for (const auto& q : oracle) {
      if (std::find(q.begin(), q.end(), 0u) == q.end()) continue;
      if (q.size() == 1) continue;
      if (r.pruned) {
        // Extensions of {0} were pruned: the only valid results with
        // vertex 0 must be {0} itself -- contradiction if q larger,
        // UNLESS it was already emitted by the bounding examination.
        bool emitted = false;
        for (const auto& e : fx.sink.results()) {
          if (e == q) emitted = true;
        }
        EXPECT_TRUE(emitted)
            << "pruned a subtree containing maximal result (seed=" << seed
            << ", gamma=" << gamma << ")";
      } else {
        for (VertexId v : q) {
          bool present =
              std::find(fx.ctx->g().GlobalIds().begin(),
                        fx.ctx->g().GlobalIds().end(), v) !=
                  fx.ctx->g().GlobalIds().end() &&
              (v == 0 ||
               std::find(ext.begin(), ext.end(), fx.ctx->g().FindLocal(v)) !=
                   ext.end() ||
               std::find(s.begin(), s.end(), fx.ctx->g().FindLocal(v)) !=
                   s.end());
          EXPECT_TRUE(present) << "vertex " << v << " wrongly pruned "
                               << "(seed=" << seed << ", gamma=" << gamma
                               << ")";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundingSoundness,
                         testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace qcm
