// kernel_bitset_probe: deterministic dense-vs-sparse sweep over the four
// hybrid mining kernels (degree recomputation, two-hop filtering,
// cover-vertex intersection, union validity check) -- the standalone half
// of bench_kernel_before_after.sh. For every kernel x subgraph size it
// times the scalar CSR path against the word-parallel bitset path on the
// same inputs, cross-checks that both produce identical answers (the
// hybrid design's bit-identical contract), and prints the whole sweep as
// JSON. Unlike bench_micro_kernels it needs no google-benchmark, so CI
// can always run it.
//
// Usage: kernel_bitset_probe [--json PATH] [--target-ms N] (see --help)
//
// Exit status: 0 iff every dense/sparse parity check passed.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "graph/ego_builder.h"
#include "graph/generators.h"
#include "graph/local_graph.h"
#include "quick/cover_vertex.h"
#include "quick/mining_context.h"
#include "quick/recursive_mine.h"
#include "tools/cli.h"
#include "util/timer.h"

namespace {

using namespace qcm;

LocalGraph MakeGraph(uint32_t n, double density, uint64_t seed) {
  const uint64_t edges = static_cast<uint64_t>(
      density * static_cast<double>(n) * (n - 1) / 2.0);
  auto g = std::move(GenErdosRenyi(n, edges, seed)).value();
  EgoBuilder builder;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    std::vector<VertexId> adj(g.Neighbors(v).begin(), g.Neighbors(v).end());
    builder.Stage(v, adj);
  }
  return builder.Build();
}

MiningOptions ProbeOptions(bool dense, double gamma) {
  MiningOptions opts;
  opts.gamma = gamma;
  opts.min_size = 5;
  opts.dense_threshold = dense ? (int64_t{1} << 20) : 0;
  return opts;
}

/// Runs `body` repeatedly until `target_ms` of wall time accumulates
/// (at least 3 calls) and returns the mean nanoseconds per call.
template <typename Fn>
double TimeNs(double target_ms, Fn&& body) {
  WallTimer timer;
  uint64_t reps = 0;
  do {
    body();
    ++reps;
  } while (timer.Seconds() * 1e3 < target_ms || reps < 3);
  return timer.Seconds() * 1e9 / static_cast<double>(reps);
}

uint64_t MixChecksum(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

struct Cell {
  const char* kernel;
  uint32_t n;
  double sparse_ns;
  double dense_ns;
  uint64_t checksum_sparse;
  uint64_t checksum_dense;
  bool parity;
};

/// One kernel x size measurement: `run(ctx)` must return a checksum that
/// is a pure function of the kernel's answer, so equal checksums across
/// the two modes certify parity.
template <typename Fn>
Cell Measure(const char* kernel, const LocalGraph* g, double gamma,
             double target_ms, uint32_t n, Fn&& run) {
  CountingSink sink;
  MiningOptions sparse_opts = ProbeOptions(false, gamma);
  MiningOptions dense_opts = ProbeOptions(true, gamma);
  MiningContext sparse_ctx(g, sparse_opts, &sink);
  MiningContext dense_ctx(g, dense_opts, &sink);

  Cell cell{kernel, n, 0, 0, 0, 0, false};
  cell.checksum_sparse = run(sparse_ctx);
  cell.checksum_dense = run(dense_ctx);
  cell.parity = cell.checksum_sparse == cell.checksum_dense;
  uint64_t sink_sum = 0;  // keep the timed calls observable
  cell.sparse_ns =
      TimeNs(target_ms, [&] { sink_sum += run(sparse_ctx); });
  cell.dense_ns = TimeNs(target_ms, [&] { sink_sum += run(dense_ctx); });
  if (sink_sum == 0xdeadbeef) std::fprintf(stderr, "(unreachable)\n");
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  double target_ms = 30.0;
  cli::CommandLine(
      "Times the dense and sparse paths of the four hybrid mining kernels "
      "and checks they agree; exits 1 on any parity failure.",
      {cli::Text("--json", "PATH", &json_path,
                 "write the sweep here instead of stdout"),
       cli::Number("--target-ms", "N", &target_ms,
                   "wall time to accumulate per timed cell")})
      .ParseOrExit(argc, argv);

  const uint32_t sizes[] = {64, 256, 1024, 4096};
  std::vector<Cell> cells;

  for (uint32_t n : sizes) {
    // ComputeDegrees: moderately dense subgraph, S = n/8 head vertices.
    {
      LocalGraph g = MakeGraph(n, 0.3, 7);
      std::vector<LocalId> s, ext;
      for (LocalId v = 0; v < n; ++v) (v < n / 8 ? s : ext).push_back(v);
      cells.push_back(Measure(
          "compute_degrees", &g, 0.85, target_ms, n,
          [&](MiningContext& ctx) {
            for (LocalId v : s) ctx.SetVState(v, VState::kInS);
            for (LocalId u : ext) ctx.SetVState(u, VState::kInExt);
            ComputeDegrees(ctx, s, ext);
            uint64_t h = 0;
            for (LocalId v : s) h = MixChecksum(h, ctx.ds()[v]);
            for (LocalId u : ext) {
              h = MixChecksum(h, ctx.ds()[u]);
              h = MixChecksum(h, ctx.dext()[u]);
            }
            for (LocalId v = 0; v < n; ++v)
              ctx.SetVState(v, VState::kOut);
            return h;
          }));
    }
    // TwoHopFilter: sparse subgraph so the 2-hop ball actually filters.
    {
      LocalGraph g = MakeGraph(n, 8.0 / n, 11);
      std::vector<LocalId> candidates;
      for (LocalId u = 1; u < n; ++u) candidates.push_back(u);
      std::vector<LocalId> kept;  // reused, so the cell times no malloc
      cells.push_back(Measure(
          "two_hop_filter", &g, 0.85, target_ms, n,
          [&](MiningContext& ctx) {
            TwoHopFilter(ctx, candidates, 0, &kept);
            uint64_t h = MixChecksum(0, kept.size());
            for (LocalId v : kept) h = MixChecksum(h, v);
            return h;
          }));
    }
    // Cover-vertex: dense subgraph, small S. The winning cover SET is
    // mode-independent; its element order is not, so checksum the sorted
    // set.
    {
      LocalGraph g = MakeGraph(n, 0.5, 17);
      std::vector<LocalId> s, ext, cover;
      for (LocalId v = 0; v < n; ++v) (v < 4 ? s : ext).push_back(v);
      cells.push_back(Measure(
          "cover_vertex", &g, 0.6, target_ms, n,
          [&](MiningContext& ctx) {
            FindBestCoverSet(ctx, s, ext, &cover);
            std::sort(cover.begin(), cover.end());
            uint64_t h = MixChecksum(0, cover.size());
            for (LocalId v : cover) h = MixChecksum(h, v);
            return h;
          }));
    }
    // Union validity check: low gamma so the scan rarely early-exits.
    {
      LocalGraph g = MakeGraph(n, 0.6, 23);
      std::vector<LocalId> a, b;
      for (LocalId v = 0; v < n / 2; ++v) a.push_back(v);
      for (LocalId v = n / 2; v < n / 2 + n / 4; ++v) b.push_back(v);
      cells.push_back(Measure(
          "union_check", &g, 0.5, target_ms, n,
          [&](MiningContext& ctx) {
            return MixChecksum(1, ctx.IsQuasiCliqueUnion(a, b) ? 1 : 0);
          }));
    }
  }

  bool all_parity = true;
  std::string out = "{\n  \"tool\": \"kernel_bitset_probe\",\n  \"cells\": [\n";
  char line[512];
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    all_parity = all_parity && c.parity;
    std::snprintf(
        line, sizeof(line),
        "    {\"kernel\": \"%s\", \"n\": %u, \"sparse_ns\": %.0f, "
        "\"dense_ns\": %.0f, \"speedup\": %.2f, \"parity\": %s}%s\n",
        c.kernel, c.n, c.sparse_ns, c.dense_ns,
        c.dense_ns > 0 ? c.sparse_ns / c.dense_ns : 0.0,
        c.parity ? "true" : "false", i + 1 < cells.size() ? "," : "");
    out += line;
  }
  out += "  ],\n  \"all_parity\": ";
  out += all_parity ? "true" : "false";
  out += "\n}\n";

  if (json_path.empty() || json_path == "-") {
    std::fputs(out.c_str(), stdout);
  } else {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fputs(out.c_str(), f);
    std::fclose(f);
  }
  if (!all_parity) {
    std::fprintf(stderr,
                 "kernel_bitset_probe: dense/sparse PARITY FAILURE\n");
    return 1;
  }
  return 0;
}
