// Kernel microbenchmarks (google-benchmark): the primitive operations the
// mining stack is built from -- k-core peeling, 2-hop ego construction,
// degree/bounds computation, iterative bounding, subgraph induction, task
// serialization, and maximality filtering.

#include <benchmark/benchmark.h>

#include <vector>

#include "graph/ego_builder.h"
#include "graph/generators.h"
#include "graph/kcore.h"
#include "graph/local_graph.h"
#include "mining/qc_task.h"
#include "quick/bounds.h"
#include "quick/cover_vertex.h"
#include "quick/iterative_bounding.h"
#include "quick/maximality_filter.h"
#include "quick/mining_context.h"
#include "quick/recursive_mine.h"
#include "quick/serial_miner.h"
#include "util/rng.h"

namespace qcm {
namespace {

const Graph& TestGraph() {
  static const Graph* g = [] {
    auto built = GenPlantedCommunities({.num_vertices = 20000,
                                        .background = BackgroundModel::kPowerLaw,
                                        .ba_attach = 3,
                                        .num_communities = 12,
                                        .community_min = 20,
                                        .community_max = 30,
                                        .intra_density = 0.92,
                                        .overlap_fraction = 0.3,
                                        .seed = 77});
    return new Graph(std::move(built).value());
  }();
  return *g;
}

LocalGraph DenseLocalGraph(uint32_t n, double density, uint64_t seed) {
  auto g = std::move(GenErdosRenyi(
                         n, static_cast<uint64_t>(density * n * (n - 1) / 2),
                         seed))
               .value();
  EgoBuilder builder;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    std::vector<VertexId> adj(g.Neighbors(v).begin(), g.Neighbors(v).end());
    builder.Stage(v, adj);
  }
  return builder.Build();
}

void BM_CoreDecomposition(benchmark::State& state) {
  const Graph& g = TestGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(CoreDecomposition(g));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.NumEdges()));
}
BENCHMARK(BM_CoreDecomposition);

void BM_BuildEgo(benchmark::State& state) {
  const Graph& g = TestGraph();
  std::vector<uint8_t> alive = KCoreMask(g, 17);
  VertexId root = 0;
  while (root < g.NumVertices() && !alive[root]) ++root;
  EgoScratch scratch;
  scratch.Reset(g.NumVertices());
  GraphVertexSource source(&g, &alive);
  EgoBuilder builder(&scratch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.BuildEgo(source, root, 17, 2));
  }
}
BENCHMARK(BM_BuildEgo);

void BM_ComputeBounds(benchmark::State& state) {
  LocalGraph g = DenseLocalGraph(static_cast<uint32_t>(state.range(0)), 0.8,
                                 5);
  MiningOptions opts;
  opts.gamma = 0.85;
  opts.min_size = 5;
  CountingSink sink;
  MiningContext ctx(&g, opts, &sink);
  std::vector<LocalId> s = {0, 1};
  std::vector<LocalId> ext;
  for (LocalId u = 2; u < g.n(); ++u) ext.push_back(u);
  for (LocalId v : s) ctx.SetVState(v, VState::kInS);
  for (LocalId u : ext) ctx.SetVState(u, VState::kInExt);
  for (auto _ : state) {
    ComputeDegrees(ctx, s, ext);
    benchmark::DoNotOptimize(ComputeBounds(ctx, s, ext));
  }
}
BENCHMARK(BM_ComputeBounds)->Arg(64)->Arg(256)->Arg(1024);

// ---- Dense-vs-sparse kernel rows ----
// Each of the four hybrid pruning kernels, benchmarked over the same
// subgraph with the word-parallel bitset path on (range(1) == 1) and off
// (range(1) == 0), across subgraph sizes 64 / 256 / 1024 / 4096.

MiningOptions KernelOptions(bool dense, double gamma) {
  MiningOptions opts;
  opts.gamma = gamma;
  opts.min_size = 5;
  opts.dense_threshold = dense ? (int64_t{1} << 20) : 0;
  return opts;
}

void BM_KernelComputeDegrees(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  LocalGraph g = DenseLocalGraph(n, 0.3, 7);
  MiningOptions opts = KernelOptions(state.range(1) != 0, 0.85);
  CountingSink sink;
  MiningContext ctx(&g, opts, &sink);
  std::vector<LocalId> s, ext;
  for (LocalId v = 0; v < n; ++v) (v < n / 8 ? s : ext).push_back(v);
  for (LocalId v : s) ctx.SetVState(v, VState::kInS);
  for (LocalId u : ext) ctx.SetVState(u, VState::kInExt);
  for (auto _ : state) {
    ComputeDegrees(ctx, s, ext);
    benchmark::DoNotOptimize(ctx.ds().data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KernelComputeDegrees)
    ->ArgsProduct({{64, 256, 1024, 4096}, {0, 1}});

void BM_KernelTwoHopFilter(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  // Sparse enough that 2-hop reach is a strict subset (the filter filters).
  LocalGraph g = DenseLocalGraph(n, 8.0 / n, 11);
  MiningOptions opts = KernelOptions(state.range(1) != 0, 0.85);
  CountingSink sink;
  MiningContext ctx(&g, opts, &sink);
  std::vector<LocalId> candidates;
  for (LocalId u = 1; u < n; ++u) candidates.push_back(u);
  std::vector<LocalId> kept;  // reused: the loop times the kernel, not malloc
  for (auto _ : state) {
    TwoHopFilter(ctx, candidates, 0, &kept);
    benchmark::DoNotOptimize(kept.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(candidates.size()));
}
BENCHMARK(BM_KernelTwoHopFilter)
    ->ArgsProduct({{64, 256, 1024, 4096}, {0, 1}});

void BM_KernelCoverVertex(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  LocalGraph g = DenseLocalGraph(n, 0.5, 17);
  MiningOptions opts = KernelOptions(state.range(1) != 0, 0.6);
  CountingSink sink;
  MiningContext ctx(&g, opts, &sink);
  std::vector<LocalId> s, ext, cover;
  for (LocalId v = 0; v < n; ++v) (v < 4 ? s : ext).push_back(v);
  for (auto _ : state) {
    FindBestCoverSet(ctx, s, ext, &cover);
    benchmark::DoNotOptimize(cover.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_KernelCoverVertex)
    ->ArgsProduct({{64, 256, 1024, 4096}, {0, 1}});

void BM_KernelUnionCheck(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  // gamma low enough that most members pass, exercising the full scan
  // rather than the first-member early exit.
  LocalGraph g = DenseLocalGraph(n, 0.6, 23);
  MiningOptions opts = KernelOptions(state.range(1) != 0, 0.5);
  CountingSink sink;
  MiningContext ctx(&g, opts, &sink);
  std::vector<LocalId> a, b;
  for (LocalId v = 0; v < n / 2; ++v) a.push_back(v);
  for (LocalId v = n / 2; v < n / 2 + n / 4; ++v) b.push_back(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.IsQuasiCliqueUnion(a, b));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(a.size() + b.size()));
}
BENCHMARK(BM_KernelUnionCheck)
    ->ArgsProduct({{64, 256, 1024, 4096}, {0, 1}});

void BM_IterativeBounding(benchmark::State& state) {
  LocalGraph g = DenseLocalGraph(static_cast<uint32_t>(state.range(0)), 0.7,
                                 9);
  MiningOptions opts;
  opts.gamma = 0.9;
  opts.min_size = 8;
  CountingSink sink;
  MiningContext ctx(&g, opts, &sink);
  std::vector<LocalId> ext_in;
  for (LocalId u = 1; u < g.n(); ++u) ext_in.push_back(u);
  // Bounding shrinks and grows its arguments in place: refill the same
  // two buffers each iteration instead of allocating fresh ones.
  std::vector<LocalId> s, ext;
  for (auto _ : state) {
    s.assign(1, 0);
    ext.assign(ext_in.begin(), ext_in.end());
    benchmark::DoNotOptimize(IterativeBounding(ctx, s, ext));
  }
}
BENCHMARK(BM_IterativeBounding)->Arg(64)->Arg(256);

void BM_InduceSubgraph(benchmark::State& state) {
  LocalGraph g = DenseLocalGraph(512, 0.3, 13);
  std::vector<LocalId> keep;
  for (LocalId v = 0; v < g.n(); v += 2) keep.push_back(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.Induce(keep));
  }
}
BENCHMARK(BM_InduceSubgraph);

void BM_TaskSerializationRoundTrip(benchmark::State& state) {
  LocalGraph g = DenseLocalGraph(static_cast<uint32_t>(state.range(0)), 0.5,
                                 21);
  std::vector<VertexId> s = {0, 1, 2};
  std::vector<VertexId> ext;
  for (LocalId u = 3; u < g.n(); ++u) ext.push_back(g.GlobalId(u));
  TaskPtr task = QCTask::MakeSubtask(0, s, ext, g);
  for (auto _ : state) {
    Encoder enc;
    task->Encode(&enc);
    Decoder dec(enc.buffer());
    auto decoded = QCTask::Decode(&dec);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_TaskSerializationRoundTrip)->Arg(64)->Arg(512);

void BM_MaximalityFilter(benchmark::State& state) {
  // Synthesize overlapping result sets.
  Rng rng(33);
  std::vector<VertexSet> sets;
  for (int i = 0; i < state.range(0); ++i) {
    VertexSet s;
    VertexId base = static_cast<VertexId>(rng.Uniform(1000));
    for (int j = 0; j < 15; ++j) {
      s.push_back(base + static_cast<VertexId>(rng.Uniform(30)));
    }
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    sets.push_back(std::move(s));
  }
  for (auto _ : state) {
    auto copy = sets;
    benchmark::DoNotOptimize(FilterMaximal(std::move(copy)));
  }
}
BENCHMARK(BM_MaximalityFilter)->Arg(1000)->Arg(10000);

void BM_KCoreLocal(benchmark::State& state) {
  LocalGraph g = DenseLocalGraph(1024, 0.05, 41);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.KCore(20));
  }
}
BENCHMARK(BM_KCoreLocal);

}  // namespace
}  // namespace qcm

BENCHMARK_MAIN();
