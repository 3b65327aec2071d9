// Unit tests for the exact Gamma arithmetic and the U_S / L_S bound
// machinery. The invariant under test: the bounds must bracket the size of
// every valid extension of S, so bounding never cuts a valid quasi-clique.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/ego_builder.h"
#include "graph/generators.h"
#include "graph/local_graph.h"
#include "quick/bounds.h"
#include "quick/gamma.h"
#include "quick/mining_context.h"

namespace qcm {
namespace {

TEST(GammaTest, RejectsOutOfDomain) {
  EXPECT_FALSE(Gamma::Create(0.0).ok());
  EXPECT_FALSE(Gamma::Create(-0.5).ok());
  EXPECT_FALSE(Gamma::Create(1.5).ok());
  EXPECT_TRUE(Gamma::Create(1.0).ok());
  EXPECT_TRUE(Gamma::Create(0.5).ok());
}

TEST(GammaTest, CeilMulExactAtIntegerPoints) {
  // The motivating hazard: 0.9 * 10 must ceil to 9, not 10.
  auto g = std::move(Gamma::Create(0.9)).value();
  EXPECT_EQ(g.CeilMul(10), 9);
  EXPECT_EQ(g.CeilMul(20), 18);
  EXPECT_EQ(g.CeilMul(0), 0);
  EXPECT_EQ(g.CeilMul(1), 1);
  EXPECT_EQ(g.CeilMul(11), 10);  // 9.9 -> 10
}

TEST(GammaTest, CeilMulMatchesRationalDefinition) {
  for (double gamma : {0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0}) {
    auto g = std::move(Gamma::Create(gamma)).value();
    const int64_t num = static_cast<int64_t>(std::llround(gamma * 1000000));
    for (int64_t x = 0; x <= 200; ++x) {
      const int64_t expected = (num * x + 999999) / 1000000;
      EXPECT_EQ(g.CeilMul(x), expected) << "gamma=" << gamma << " x=" << x;
    }
  }
}

TEST(GammaTest, FloorDivInverseOfCeilMul) {
  // floor(ceil(gamma x)/gamma) >= x for all x (used by U_S^min derivation).
  for (double gamma : {0.5, 0.6, 0.8, 0.9, 1.0}) {
    auto g = std::move(Gamma::Create(gamma)).value();
    for (int64_t x = 0; x <= 100; ++x) {
      EXPECT_GE(g.FloorDiv(g.CeilMul(x)), x);
    }
  }
}

// ---- Bounds fixtures ----

LocalGraph FullLocalGraph(const Graph& src) {
  EgoBuilder builder;
  for (VertexId v = 0; v < src.NumVertices(); ++v) {
    std::vector<VertexId> adj(src.Neighbors(v).begin(),
                              src.Neighbors(v).end());
    builder.Stage(v, adj);
  }
  return builder.Build();
}

struct BoundsFixture {
  LocalGraph graph;
  MiningOptions options;
  CountingSink sink;
  std::unique_ptr<MiningContext> ctx;

  BoundsFixture(const Graph& src, double gamma, uint32_t min_size) {
    graph = FullLocalGraph(src);
    options.gamma = gamma;
    options.min_size = min_size;
    ctx = std::make_unique<MiningContext>(&graph, options, &sink);
  }

  Bounds Compute(const std::vector<LocalId>& s,
                 const std::vector<LocalId>& ext) {
    // SetVState (not raw state writes) so the dense kernels' membership
    // bitsets stay in sync with the byte array.
    for (LocalId v : s) ctx->SetVState(v, VState::kInS);
    for (LocalId u : ext) ctx->SetVState(u, VState::kInExt);
    ComputeDegrees(*ctx, s, ext);
    Bounds b = ComputeBounds(*ctx, s, ext);
    for (LocalId v : s) ctx->SetVState(v, VState::kOut);
    for (LocalId u : ext) ctx->SetVState(u, VState::kOut);
    return b;
  }
};

Graph Clique(uint32_t n) {
  std::vector<Edge> edges;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) edges.emplace_back(i, j);
  }
  return std::move(Graph::FromEdges(n, std::move(edges))).value();
}

TEST(BoundsTest, CliqueIsUnconstrained) {
  // In a 10-clique with S={0}, ext=rest: L=0 (S fine alone), U=9.
  BoundsFixture fx(Clique(10), 0.9, 2);
  std::vector<LocalId> ext;
  for (LocalId u = 1; u < 10; ++u) ext.push_back(u);
  Bounds b = fx.Compute({0}, ext);
  EXPECT_EQ(b.outcome, BoundOutcome::kOk);
  EXPECT_EQ(b.lower, 0);
  EXPECT_EQ(b.upper, 9);
}

TEST(BoundsTest, LowerBoundRepairsDeficientMember) {
  // Path 0-1-2 plus 1-3, 2-3: S={0,3} are non-adjacent; with gamma=0.5,
  // each member of S needs ceil(0.5*(|S'|-1)) neighbors in S'.
  auto g = std::move(Graph::FromEdges(
                         4, {{0, 1}, {1, 2}, {1, 3}, {2, 3}}))
               .value();
  BoundsFixture fx(g, 0.5, 2);
  Bounds b = fx.Compute({0, 3}, {1, 2});
  EXPECT_EQ(b.outcome, BoundOutcome::kOk);
  // S={0,3} is not a 0.5-QC (0 and 3 are non-adjacent): L >= 1.
  EXPECT_GE(b.lower, 1);
  EXPECT_LE(b.lower, b.upper);
}

TEST(BoundsTest, InfeasibleLowerBoundPrunesAll) {
  // Star: center 0, leaves 1..5. S = {1, 2} (two leaves, non-adjacent,
  // dS = 0 for both); ext = {0}. gamma = 1 (cliques only): leaf degree can
  // never reach |S'|-1. Eq. (7) fails -> prune all.
  auto g = std::move(Graph::FromEdges(
                         6, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}))
               .value();
  // With both bound families on, the upper bound fails first
  // (U_S^min = 0 -> no feasible t in Eq. (4)), pruning extensions.
  BoundsFixture fx(g, 1.0, 2);
  Bounds b = fx.Compute({1, 2}, {0});
  EXPECT_EQ(b.outcome, BoundOutcome::kPruneExtCheckS);
  // With the upper bound disabled, Eq. (7) is reached and fails with t=0
  // included: S and all extensions are pruned.
  fx.options.use_upper_bound = false;
  fx.ctx = std::make_unique<MiningContext>(&fx.graph, fx.options, &fx.sink);
  Bounds b2 = fx.Compute({1, 2}, {0});
  EXPECT_EQ(b2.outcome, BoundOutcome::kPruneAll);
}

TEST(BoundsTest, UpperBoundCapsAtDegreeBudget) {
  // Star with gamma=0.5: S={0} (center, degree 5). U_S^min =
  // floor(5/0.5)+1-1 = 10, capped by feasibility: adding t leaves gives
  // each leaf degree 1 which must be >= ceil(0.5 * t). Lemma 2 feasibility:
  // sum dS(S)=0, prefix[t]=0 (leaves have no S-neighbors... they do: each
  // leaf is adjacent to 0, so dS(leaf)=1, prefix[t]=t).
  // Condition: 0 + t >= 1 * ceil(0.5 * t) -- holds for all t, so U = 5.
  auto g = std::move(Graph::FromEdges(
                         6, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}))
               .value();
  BoundsFixture fx(g, 0.5, 2);
  Bounds b = fx.Compute({0}, {1, 2, 3, 4, 5});
  EXPECT_EQ(b.outcome, BoundOutcome::kOk);
  EXPECT_EQ(b.upper, 5);
}

TEST(BoundsTest, DisabledBoundsDegenerate) {
  BoundsFixture fx(Clique(8), 0.9, 2);
  fx.options.use_upper_bound = false;
  fx.options.use_lower_bound = false;
  fx.ctx = std::make_unique<MiningContext>(&fx.graph, fx.options, &fx.sink);
  std::vector<LocalId> ext = {1, 2, 3, 4, 5, 6, 7};
  Bounds b = fx.Compute({0}, ext);
  EXPECT_EQ(b.outcome, BoundOutcome::kOk);
  EXPECT_EQ(b.upper, 7);  // |ext|
  EXPECT_EQ(b.lower, 0);
}

// Property I4: on random graphs, every valid extension Z of S satisfies
// L_S <= |Z| <= U_S (when bounds are computable).
TEST(BoundsTest, PropertyBoundsBracketValidExtensions) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    auto src = std::move(GenErdosRenyi(12, 40, seed)).value();
    BoundsFixture fx(src, 0.6, 2);
    // S = {0, 1}, ext = all others.
    std::vector<LocalId> s = {0, 1};
    std::vector<LocalId> ext;
    for (LocalId u = 2; u < 12; ++u) ext.push_back(u);
    Bounds b = fx.Compute(s, ext);

    // Enumerate all subsets Z of ext; check valid ones against bounds.
    auto gamma = std::move(Gamma::Create(0.6)).value();
    for (uint32_t mask = 0; mask < (1u << ext.size()); ++mask) {
      VertexSet candidate = {0, 1};
      for (size_t i = 0; i < ext.size(); ++i) {
        if (mask & (1u << i)) candidate.push_back(ext[i]);
      }
      std::sort(candidate.begin(), candidate.end());
      if (!IsQuasiCliqueGlobal(src, candidate, gamma)) continue;
      const int64_t z = static_cast<int64_t>(candidate.size()) - 2;
      if (b.outcome == BoundOutcome::kOk) {
        EXPECT_LE(b.lower, z) << "seed=" << seed << " mask=" << mask;
        EXPECT_GE(b.upper, std::max<int64_t>(z, 1))
            << "seed=" << seed << " mask=" << mask;
      } else if (b.outcome == BoundOutcome::kPruneExtCheckS) {
        // Extensions pruned: no valid Z with z >= 1 may exist.
        EXPECT_EQ(z, 0) << "seed=" << seed << " mask=" << mask;
      } else {
        // kPruneAll: not even S itself may be valid.
        ADD_FAILURE() << "valid extension exists but bounds pruned all "
                      << "(seed=" << seed << " mask=" << mask << ")";
      }
    }
  }
}

}  // namespace
}  // namespace qcm
