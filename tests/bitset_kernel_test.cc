// Dense/sparse kernel parity suite (ISSUE 8): the word-parallel bitset
// kernels must be bit-identical to their scalar CSR twins -- same emitted
// sets, same pruning statistics, same digests -- across gamma/tau grids,
// random subgraphs, and the dense-threshold boundary. Also covers the
// LocalGraph bitmap-row representation and the pooled MiningScratch
// reuse contract, and pins one fixed search's counters and emissions.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "graph/ego_builder.h"
#include "graph/generators.h"
#include "graph/local_graph.h"
#include "quick/cover_vertex.h"
#include "quick/maximality_filter.h"
#include "quick/mining_context.h"
#include "quick/recursive_mine.h"
#include "quick/serial_miner.h"
#include "search_fixture.h"
#include "util/rng.h"
#include "util/serde.h"

namespace qcm {
namespace {

MiningOptions Options(double gamma, uint32_t min_size, bool dense) {
  MiningOptions opts;
  opts.gamma = gamma;
  opts.min_size = min_size;
  opts.dense_threshold = dense ? (int64_t{1} << 20) : 0;
  return opts;
}

bool RowBit(const LocalGraph& g, LocalId v, LocalId w) {
  return (g.DenseRow(v)[w >> 6] >> (w & 63)) & 1;
}

// ---- LocalGraph bitmap rows ----

TEST(LocalGraphDenseTest, RowsMatchAdjacency) {
  auto src = std::move(GenErdosRenyi(130, 900, 3)).value();
  LocalGraph g = FullLocalGraph(src);
  ASSERT_FALSE(g.has_dense());
  g.BuildDenseRows();
  ASSERT_TRUE(g.has_dense());
  EXPECT_EQ(g.DenseWords(), (g.n() + 63) / 64);
  for (LocalId v = 0; v < g.n(); ++v) {
    std::vector<bool> adj(g.n(), false);
    for (LocalId w : g.Neighbors(v)) adj[w] = true;
    for (LocalId w = 0; w < g.n(); ++w) {
      EXPECT_EQ(RowBit(g, v, w), adj[w]) << "v=" << v << " w=" << w;
    }
  }
}

TEST(LocalGraphDenseTest, InducePropagatesRows) {
  auto src = std::move(GenErdosRenyi(80, 600, 5)).value();
  LocalGraph g = FullLocalGraph(src);

  std::vector<LocalId> keep;
  for (LocalId v = 0; v < g.n(); v += 3) keep.push_back(v);
  // Sparse in, sparse out.
  EXPECT_FALSE(g.Induce(keep).has_dense());

  g.BuildDenseRows();
  LocalGraph sub = g.Induce(keep);
  ASSERT_TRUE(sub.has_dense());
  for (LocalId v = 0; v < sub.n(); ++v) {
    std::vector<bool> adj(sub.n(), false);
    for (LocalId w : sub.Neighbors(v)) adj[w] = true;
    for (LocalId w = 0; w < sub.n(); ++w) {
      EXPECT_EQ(RowBit(sub, v, w), adj[w]);
    }
  }
}

TEST(LocalGraphDenseTest, RowsAreNeverSerializedAndIgnoredByEquality) {
  auto src = std::move(GenErdosRenyi(50, 300, 7)).value();
  LocalGraph g = FullLocalGraph(src);
  g.BuildDenseRows();

  Encoder enc;
  g.Encode(&enc);
  Decoder dec(enc.buffer());
  LocalGraph decoded = std::move(LocalGraph::Decode(&dec)).value();
  EXPECT_FALSE(decoded.has_dense());  // rows are a derived cache
  EXPECT_TRUE(decoded == g);          // CSR identity is what equality means
  EXPECT_LT(decoded.MemoryBytes(), g.MemoryBytes());
}

TEST(LocalGraphDenseTest, EgoBuilderHonorsThreshold) {
  auto src = std::move(GenErdosRenyi(40, 200, 9)).value();
  for (int64_t threshold : {0ll, 39ll, 40ll, 41ll}) {
    EgoBuilder builder;
    builder.set_dense_threshold(threshold);
    for (VertexId v = 0; v < src.NumVertices(); ++v) {
      std::vector<VertexId> adj(src.Neighbors(v).begin(),
                                src.Neighbors(v).end());
      builder.Stage(v, adj);
    }
    LocalGraph g = builder.Build();
    EXPECT_EQ(g.has_dense(), threshold >= 40) << "threshold=" << threshold;
  }
}

// ---- Threshold boundary at the MiningContext level ----

TEST(DenseThresholdTest, ContextSwitchesExactlyAtThreshold) {
  auto src = std::move(GenErdosRenyi(64, 500, 11)).value();
  LocalGraph g = FullLocalGraph(src);  // n == 64, no prebuilt rows
  CountingSink sink;
  for (int64_t threshold : {0ll, 63ll, 64ll, 65ll}) {
    MiningOptions opts = Options(0.9, 5, true);
    opts.dense_threshold = threshold;
    MiningContext ctx(&g, opts, &sink);
    const bool want_dense = threshold >= 64;
    EXPECT_EQ(ctx.dense(), want_dense) << "threshold=" << threshold;
    EXPECT_EQ(ctx.stats.dense_tasks, want_dense ? 1u : 0u);
    EXPECT_EQ(ctx.stats.sparse_tasks, want_dense ? 0u : 1u);
    if (want_dense) {
      // Rows were built into scratch (the decoded-task path); they must
      // still match the CSR exactly.
      for (LocalId v = 0; v < g.n(); ++v) {
        uint64_t popcnt = 0;
        for (uint32_t w = 0; w < ctx.words(); ++w) {
          popcnt += static_cast<uint64_t>(std::popcount(ctx.Row(v)[w]));
        }
        EXPECT_EQ(popcnt, g.Degree(v));
      }
    }
  }
}

// ---- Direct kernel parity on random subgraphs ----

struct KernelPair {
  LocalGraph graph;
  CountingSink sink;
  MiningOptions sparse_opts, dense_opts;
  std::unique_ptr<MiningContext> sparse, dense;

  KernelPair(const Graph& src, double gamma) {
    graph = FullLocalGraph(src);
    sparse_opts = Options(gamma, 3, false);
    dense_opts = Options(gamma, 3, true);
    sparse = std::make_unique<MiningContext>(&graph, sparse_opts, &sink);
    dense = std::make_unique<MiningContext>(&graph, dense_opts, &sink);
  }
};

// Each kernel also runs on the inputs bench_micro_kernels' BM_Kernel* rows
// time: G(n, density * n(n-1)/2) with that row's seed, gamma and S/ext
// split, at these n. The rows' dense n = 4096 graphs are left out: they
// take seconds to generate, and a kernel sees n only through its ceil(n/64)
// row words (16 at n = 1024) and the dense threshold, which
// DenseThresholdTest pins.
constexpr uint32_t kBenchSizes[] = {64, 256, 1024};

Graph BenchGraph(uint32_t n, double density, uint64_t seed) {
  const auto edges = static_cast<uint64_t>(density * n * (n - 1) / 2);
  return std::move(GenErdosRenyi(n, edges, seed)).value();
}

void ExpectDegreesAgree(KernelPair& kp, const std::vector<LocalId>& s,
                        const std::vector<LocalId>& ext) {
  for (MiningContext* ctx : {kp.sparse.get(), kp.dense.get()}) {
    for (LocalId v : s) ctx->SetVState(v, VState::kInS);
    for (LocalId u : ext) ctx->SetVState(u, VState::kInExt);
    ComputeDegrees(*ctx, s, ext);
  }
  for (LocalId v : s) {
    EXPECT_EQ(kp.sparse->ds()[v], kp.dense->ds()[v]) << "v=" << v;
  }
  for (LocalId u : ext) {
    EXPECT_EQ(kp.sparse->ds()[u], kp.dense->ds()[u]) << "u=" << u;
    EXPECT_EQ(kp.sparse->dext()[u], kp.dense->dext()[u]) << "u=" << u;
  }
}

TEST(KernelParityTest, ComputeDegrees) {
  Rng rng(101);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    auto src = std::move(GenErdosRenyi(90, 1200, seed)).value();
    KernelPair kp(src, 0.85);
    std::vector<LocalId> s, ext;
    for (LocalId v = 0; v < kp.graph.n(); ++v) {
      const uint64_t r = rng.Uniform(3);
      if (r == 0) s.push_back(v);
      else if (r == 1) ext.push_back(v);
    }
    if (s.empty()) s.push_back(0);
    ExpectDegreesAgree(kp, s, ext);
  }
  for (uint32_t n : kBenchSizes) {  // S = the first n/8 vertices
    SCOPED_TRACE("n=" + std::to_string(n));
    KernelPair kp(BenchGraph(n, 0.3, 7), 0.85);
    std::vector<LocalId> s, ext;
    for (LocalId v = 0; v < n; ++v) (v < n / 8 ? s : ext).push_back(v);
    ExpectDegreesAgree(kp, s, ext);
  }
}

// Both kernels keep exactly `want` of `candidates` (in their order) and
// count the rest as diameter-filtered.
void ExpectFilterKeeps(KernelPair& kp, const std::vector<LocalId>& candidates,
                       LocalId v, const std::vector<LocalId>& want) {
  std::vector<LocalId> kept = {kp.graph.n()};  // stale content to drop
  for (MiningContext* ctx : {kp.sparse.get(), kp.dense.get()}) {
    const uint64_t filtered = ctx->stats.diameter_filtered;
    TwoHopFilter(*ctx, candidates, v, &kept);
    EXPECT_EQ(kept, want) << "v=" << v << " dense=" << ctx->dense()
                          << " candidates=" << candidates.size();
    EXPECT_EQ(ctx->stats.diameter_filtered - filtered,
              candidates.size() - want.size());
  }
}

// Both kernels against a brute-force B(v) = {v} ∪ Gamma(v) ∪
// Gamma(Gamma(v)) on the task graph, for every v: candidate lists longer
// than deg(v) take the precomputed-ball path, lists no longer than deg(v)
// the per-candidate scan. Candidates come in shuffled order, which the
// filter must keep.
TEST(KernelParityTest, TwoHopFilter) {
  Rng rng(404);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    // Sparse graphs (two words per row) so the ball is a strict subset.
    auto src = std::move(GenErdosRenyi(120, seed % 2 ? 300 : 480, seed))
                   .value();
    KernelPair kp(src, 0.85);
    const LocalGraph& g = kp.graph;
    const LocalId n = g.n();
    std::vector<std::vector<bool>> adj(n, std::vector<bool>(n, false));
    for (LocalId v = 0; v < n; ++v) {
      for (LocalId w : g.Neighbors(v)) adj[v][w] = true;
    }
    auto within = [&](LocalId v, LocalId u) {
      if (u == v || adj[v][u]) return true;
      for (LocalId w = 0; w < n; ++w) {
        if (adj[v][w] && adj[w][u]) return true;
      }
      return false;
    };
    bool filtered_some = false;
    for (LocalId v = 0; v < n; ++v) {
      std::vector<LocalId> longer;
      for (LocalId u = 0; u < n; ++u) {
        if (u != v) longer.push_back(u);
      }
      for (size_t i = longer.size(); i > 1; --i) {
        std::swap(longer[i - 1], longer[rng.Uniform(i)]);
      }
      ASSERT_GT(longer.size(), g.Degree(v));
      std::vector<LocalId> shorter(longer.begin(),
                                   longer.begin() + g.Degree(v));
      for (const std::vector<LocalId>* candidates : {&longer, &shorter}) {
        std::vector<LocalId> want;
        for (LocalId u : *candidates) {
          if (within(v, u)) want.push_back(u);
        }
        filtered_some |= want.size() < candidates->size();
        ExpectFilterKeeps(kp, *candidates, v, want);
      }
    }
    EXPECT_TRUE(filtered_some) << "filter was a no-op";
  }
  // The bench rows' sparse G(n, 8/n) is cheap at n = 4096 too: root 0,
  // every later vertex a candidate.
  for (uint32_t n : {64u, 256u, 1024u, 4096u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    KernelPair kp(BenchGraph(n, 8.0 / n, 11), 0.85);
    std::vector<LocalId> candidates(n - 1);
    std::iota(candidates.begin(), candidates.end(), LocalId{1});
    ExpectFilterKeeps(kp, candidates, 0, LaterTwoHopBall(kp.graph, 0));
  }
}

void ExpectCoverSetsAgree(KernelPair& kp, const std::vector<LocalId>& s,
                          const std::vector<LocalId>& ext) {
  std::vector<LocalId> cover_sparse, cover_dense;
  FindBestCoverSet(*kp.sparse, s, ext, &cover_sparse);
  FindBestCoverSet(*kp.dense, s, ext, &cover_dense);
  // The winning cover SET is mode-independent; element order is not.
  std::sort(cover_sparse.begin(), cover_sparse.end());
  std::sort(cover_dense.begin(), cover_dense.end());
  EXPECT_EQ(cover_sparse, cover_dense);
}

TEST(KernelParityTest, CoverVertexSet) {
  Rng rng(202);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    auto src = std::move(GenErdosRenyi(70, 1100, seed)).value();
    KernelPair kp(src, 0.6);
    std::vector<LocalId> s, ext;
    for (LocalId v = 0; v < kp.graph.n(); ++v) {
      if (rng.Uniform(10) < 1) s.push_back(v);
      else ext.push_back(v);
    }
    if (s.empty()) s.push_back(ext.back()), ext.pop_back();
    ExpectCoverSetsAgree(kp, s, ext);
  }
  for (uint32_t n : kBenchSizes) {  // S = the first 4 vertices
    SCOPED_TRACE("n=" + std::to_string(n));
    KernelPair kp(BenchGraph(n, 0.5, 17), 0.6);
    std::vector<LocalId> s, ext;
    for (LocalId v = 0; v < n; ++v) (v < 4 ? s : ext).push_back(v);
    ExpectCoverSetsAgree(kp, s, ext);
  }
}

TEST(KernelParityTest, IsQuasiCliqueUnion) {
  Rng rng(303);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    auto src = std::move(GenErdosRenyi(60, 1000, seed)).value();
    for (double gamma : {0.5, 0.7, 0.9}) {
      KernelPair kp(src, gamma);
      for (int trial = 0; trial < 20; ++trial) {
        std::vector<LocalId> a, b;
        for (LocalId v = 0; v < kp.graph.n(); ++v) {
          const uint64_t r = rng.Uniform(4);
          if (r == 0) a.push_back(v);
          else if (r == 1) b.push_back(v);
        }
        EXPECT_EQ(kp.sparse->IsQuasiCliqueUnion(a, b),
                  kp.dense->IsQuasiCliqueUnion(a, b))
            << "seed=" << seed << " gamma=" << gamma << " trial=" << trial;
      }
    }
  }
  // A = the first n/2 vertices, B the next n/4; gamma 0.5 rarely exits
  // early.
  for (uint32_t n : kBenchSizes) {
    KernelPair kp(BenchGraph(n, 0.6, 23), 0.5);
    std::vector<LocalId> a, b;
    for (LocalId v = 0; v < n / 2; ++v) a.push_back(v);
    for (LocalId v = n / 2; v < n / 2 + n / 4; ++v) b.push_back(v);
    EXPECT_EQ(kp.sparse->IsQuasiCliqueUnion(a, b),
              kp.dense->IsQuasiCliqueUnion(a, b))
        << "n=" << n;
  }
}

// ---- End-to-end parity across a gamma/tau grid ----

// Every MiningStats field except the three dense-instrumentation counters
// (dense_tasks / sparse_tasks / bitset_words_touched, which SHOULD differ
// across modes) must match exactly: the dense kernels take the same
// branches, prune the same subtrees, and emit the same sets.
void ExpectStatsParity(const MiningStats& a, const MiningStats& b) {
  EXPECT_EQ(a.nodes_explored, b.nodes_explored);
  EXPECT_EQ(a.bounding_iterations, b.bounding_iterations);
  EXPECT_EQ(a.emitted, b.emitted);
  EXPECT_EQ(a.type1_degree_pruned, b.type1_degree_pruned);
  EXPECT_EQ(a.type1_upper_pruned, b.type1_upper_pruned);
  EXPECT_EQ(a.type1_lower_pruned, b.type1_lower_pruned);
  EXPECT_EQ(a.type2_prunes, b.type2_prunes);
  EXPECT_EQ(a.bound_fail_prunes, b.bound_fail_prunes);
  EXPECT_EQ(a.critical_moves, b.critical_moves);
  EXPECT_EQ(a.cover_skipped, b.cover_skipped);
  EXPECT_EQ(a.lookahead_hits, b.lookahead_hits);
  EXPECT_EQ(a.diameter_filtered, b.diameter_filtered);
  EXPECT_EQ(a.size_prunes, b.size_prunes);
  EXPECT_EQ(a.subtasks_spawned, b.subtasks_spawned);
}

TEST(EndToEndParityTest, SerialMinerAcrossGammaTauGrid) {
  auto src = std::move(GenPlantedCommunities({.num_vertices = 800,
                                              .num_communities = 5,
                                              .community_min = 10,
                                              .community_max = 14,
                                              .intra_density = 0.9,
                                              .overlap_fraction = 0.2,
                                              .seed = 13}))
                 .value();
  for (double gamma : {0.8, 0.9}) {
    for (uint32_t min_size : {6u, 8u}) {
      SerialMineReport reports[2];
      uint64_t digests[2];
      for (int mode = 0; mode < 2; ++mode) {
        VectorSink sink;
        SerialMiner miner(Options(gamma, min_size, mode == 1));
        auto report = miner.Run(src, &sink);
        ASSERT_TRUE(report.ok());
        reports[mode] = report.value();
        auto maximal = FilterMaximal(std::move(sink.results()));
        digests[mode] = ResultSetDigest(maximal);
      }
      EXPECT_EQ(digests[0], digests[1])
          << "gamma=" << gamma << " min_size=" << min_size;
      ExpectStatsParity(reports[0].stats, reports[1].stats);
      // The instrumentation counters prove each mode ran its own path.
      EXPECT_EQ(reports[0].stats.dense_tasks, 0u);
      EXPECT_EQ(reports[0].stats.bitset_words_touched, 0u);
      EXPECT_GT(reports[1].stats.dense_tasks, 0u);
      EXPECT_GT(reports[1].stats.bitset_words_touched, 0u);
      EXPECT_EQ(reports[1].stats.sparse_tasks, 0u);
      EXPECT_EQ(reports[0].stats.sparse_tasks,
                reports[1].stats.dense_tasks);
    }
  }
}

// ---- Pooled scratch reuse ----

TEST(MiningScratchTest, ReuseAcrossMixedTasksMatchesFreshContexts) {
  MiningScratch pooled;
  Rng rng(404);
  uint64_t last_bytes = 0;
  for (int task = 0; task < 24; ++task) {
    const uint32_t n = 16 + static_cast<uint32_t>(rng.Uniform(120));
    const uint64_t m = std::min<uint64_t>(n * (2 + rng.Uniform(8)),
                                          uint64_t{n} * (n - 1) / 2);
    auto src = std::move(GenErdosRenyi(n, m, 1000 + task)).value();
    LocalGraph g = FullLocalGraph(src);
    // Alternate dense and sparse tasks through the same arena.
    MiningOptions opts = Options(0.8, 3, task % 2 == 0);
    CountingSink sink;
    MiningContext pooled_ctx(&g, opts, &sink, &pooled);
    MiningContext fresh_ctx(&g, opts, &sink);

    std::vector<LocalId> s, ext;
    for (LocalId v = 0; v < g.n(); ++v) {
      const uint64_t r = rng.Uniform(3);
      if (r == 0) s.push_back(v);
      else if (r == 1) ext.push_back(v);
    }
    if (s.empty()) s.push_back(0);
    for (MiningContext* ctx : {&pooled_ctx, &fresh_ctx}) {
      for (LocalId v : s) ctx->SetVState(v, VState::kInS);
      for (LocalId u : ext) ctx->SetVState(u, VState::kInExt);
      ComputeDegrees(*ctx, s, ext);
    }
    for (LocalId v : s) {
      ASSERT_EQ(pooled_ctx.ds()[v], fresh_ctx.ds()[v]) << "task=" << task;
    }
    for (LocalId u : ext) {
      ASSERT_EQ(pooled_ctx.ds()[u], fresh_ctx.ds()[u]) << "task=" << task;
      ASSERT_EQ(pooled_ctx.dext()[u], fresh_ctx.dext()[u])
          << "task=" << task;
    }
    std::vector<LocalId> cover_pooled, cover_fresh;
    FindBestCoverSet(pooled_ctx, s, ext, &cover_pooled);
    FindBestCoverSet(fresh_ctx, s, ext, &cover_fresh);
    std::sort(cover_pooled.begin(), cover_pooled.end());
    std::sort(cover_fresh.begin(), cover_fresh.end());
    ASSERT_EQ(cover_pooled, cover_fresh) << "task=" << task;
    EXPECT_EQ(pooled_ctx.IsQuasiClique(s), fresh_ctx.IsQuasiClique(s));

    // A full mine from one S vertex over this task's ext, so the search
    // frames grow through the same arena.
    VectorSink pooled_sink, fresh_sink;
    MiningContext pooled_mine(&g, opts, &pooled_sink, &pooled);
    MiningContext fresh_mine(&g, opts, &fresh_sink);
    RecursiveMine(pooled_mine, std::span(s).first(1), ext);
    RecursiveMine(fresh_mine, std::span(s).first(1), ext);
    ASSERT_EQ(pooled_sink.results(), fresh_sink.results()) << "task=" << task;

    // The arena, frames included, grows monotonically to the largest task
    // seen.
    EXPECT_GE(pooled.MemoryBytes(), last_bytes);
    last_bytes = pooled.MemoryBytes();
  }
}

TEST(MiningScratchTest, FullMinesShareOneScratchAndStayIdentical) {
  // RecursiveMine over several roots' ego nets, all through one pooled
  // scratch, against per-task fresh scratch: identical emissions.
  const LocalGraph g = PlantedSearchGraph();
  MiningOptions opts = SearchOptions(/*dense=*/true);

  MiningScratch pooled;
  const uint64_t empty_bytes = pooled.MemoryBytes();
  for (LocalId root = 0; root < kSearchRoots; ++root) {
    const std::vector<LocalId> ext = LaterTwoHopBall(g, root);
    VectorSink pooled_sink, fresh_sink;
    MiningContext pooled_ctx(&g, opts, &pooled_sink, &pooled);
    MiningContext fresh_ctx(&g, opts, &fresh_sink);
    RecursiveMine(pooled_ctx, std::span(&root, 1), ext);
    RecursiveMine(fresh_ctx, std::span(&root, 1), ext);
    EXPECT_EQ(pooled_sink.results(), fresh_sink.results())
        << "root=" << root;
    ExpectStatsParity(pooled_ctx.stats, fresh_ctx.stats);
  }
  EXPECT_GT(pooled.MemoryBytes(), empty_bytes);
}

// ---- The search itself is pinned ----

// Every counter of the search and the digest of its emissions, in
// emission order, pinned to recorded values: a change that reorders the
// nodes or alters one prune fails here even when the two kernels still
// agree with each other.
TEST(SearchPinTest, FixedRootsReproduceTheRecordedSearch) {
  const LocalGraph g = PlantedSearchGraph();
  for (const bool dense : {false, true}) {
    MiningScratch scratch;
    VectorSink sink;
    MiningStats stats;
    for (LocalId root = 0; root < kSearchRoots; ++root) {
      const std::vector<LocalId> ext = LaterTwoHopBall(g, root);
      MiningContext ctx(&g, SearchOptions(dense), &sink, &scratch);
      RecursiveMine(ctx, std::span(&root, 1), ext);
      stats.Add(ctx.stats);
    }
    SCOPED_TRACE(dense ? "dense" : "sparse");
    EXPECT_EQ(stats.nodes_explored, 213u);
    EXPECT_EQ(stats.bounding_iterations, 4866u);
    EXPECT_EQ(stats.emitted, 55u);
    EXPECT_EQ(stats.type1_degree_pruned, 4044u);
    EXPECT_EQ(stats.type1_upper_pruned, 489u);
    EXPECT_EQ(stats.type1_lower_pruned, 0u);
    EXPECT_EQ(stats.type2_prunes, 0u);
    EXPECT_EQ(stats.bound_fail_prunes, 4497u);
    EXPECT_EQ(stats.critical_moves, 12u);
    EXPECT_EQ(stats.cover_skipped, 1185u);
    EXPECT_EQ(stats.lookahead_hits, 36u);
    EXPECT_EQ(stats.diameter_filtered, 159532u);
    EXPECT_EQ(stats.size_prunes, 36u);
    EXPECT_EQ(stats.subtasks_spawned, 0u);
    ASSERT_EQ(sink.results().size(), 55u);
    EXPECT_EQ(ResultSetDigest(sink.results()), 0x0b314ad019d342ecull);
  }
}

}  // namespace
}  // namespace qcm
