#include "graph/kcore.h"

#include <algorithm>

#include "util/trace.h"

namespace qcm {

std::vector<uint32_t> CoreDecomposition(const Graph& g) {
  const uint32_t n = g.NumVertices();
  std::vector<uint32_t> degree(n), core(n);
  uint32_t max_degree = 0;
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = g.Degree(v);
    max_degree = std::max(max_degree, degree[v]);
  }
  // Bucket sort vertices by degree.
  std::vector<uint32_t> bin(max_degree + 2, 0);
  for (VertexId v = 0; v < n; ++v) ++bin[degree[v]];
  uint32_t start = 0;
  for (uint32_t d = 0; d <= max_degree; ++d) {
    uint32_t count = bin[d];
    bin[d] = start;
    start += count;
  }
  std::vector<VertexId> order(n);    // vertices sorted by current degree
  std::vector<uint32_t> pos(n);      // position of each vertex in `order`
  for (VertexId v = 0; v < n; ++v) {
    pos[v] = bin[degree[v]];
    order[pos[v]] = v;
    ++bin[degree[v]];
  }
  // Restore bin[d] = first index of degree-d block.
  for (uint32_t d = max_degree; d >= 1; --d) bin[d] = bin[d - 1];
  if (max_degree + 1 < bin.size()) bin[max_degree + 1] = n;
  bin[0] = 0;

  for (uint32_t i = 0; i < n; ++i) {
    VertexId v = order[i];
    core[v] = degree[v];
    for (VertexId u : g.Neighbors(v)) {
      if (degree[u] > degree[v]) {
        // Move u to the front of its degree block, then decrement.
        uint32_t du = degree[u];
        uint32_t pu = pos[u];
        uint32_t pw = bin[du];
        VertexId w = order[pw];
        if (u != w) {
          order[pu] = w;
          order[pw] = u;
          pos[u] = pw;
          pos[w] = pu;
        }
        ++bin[du];
        --degree[u];
      }
    }
  }
  return core;
}

std::vector<uint8_t> KCoreMask(const Graph& g, uint32_t k) {
  const uint32_t n = g.NumVertices();
  std::vector<uint8_t> alive(n, 1);
  std::vector<uint32_t> degree(n);  // live degree of every live vertex
  std::vector<VertexId> peeled;     // dead, neighbors not yet decremented
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = g.Degree(v);
    if (degree[v] < k) {
      alive[v] = 0;
      peeled.push_back(v);
    }
  }
  while (!peeled.empty()) {
    const VertexId v = peeled.back();
    peeled.pop_back();
    for (VertexId u : g.Neighbors(v)) {
      if (alive[u] && --degree[u] < k) {
        alive[u] = 0;
        peeled.push_back(u);
      }
    }
  }
  return alive;
}

uint64_t KCoreSize(const Graph& g, uint32_t k) {
  std::vector<uint8_t> mask = KCoreMask(g, k);
  uint64_t count = 0;
  for (uint8_t m : mask) count += m;
  return count;
}

KCore CompactKCore(const Graph& g, uint32_t k) {
  QCM_TRACE_SPAN(trace::kLifecycle, "kcore_compact", g.NumVertices());
  constexpr VertexId kPeeled = UINT32_MAX;
  const uint32_t n = g.NumVertices();
  KCore core;
  std::vector<VertexId> compact(n, kPeeled);  // input id -> compact id
  {
    const std::vector<uint8_t> alive = KCoreMask(g, k);
    for (VertexId v = 0; v < n; ++v) {
      if (!alive[v]) continue;
      compact[v] = static_cast<VertexId>(core.ids.size());
      core.ids.push_back(v);
    }
  }
  // Each kept list is the input's sorted list filtered and renumbered by a
  // monotone map, so it stays sorted: count, then copy, with no re-sort.
  const size_t m = core.ids.size();
  std::vector<uint64_t> offsets(m + 1, 0);
  for (size_t c = 0; c < m; ++c) {
    uint64_t kept = 0;
    for (VertexId u : g.Neighbors(core.ids[c])) kept += compact[u] != kPeeled;
    offsets[c + 1] = offsets[c] + kept;
  }
  std::vector<VertexId> adj(offsets[m]);
  VertexId* out = adj.data();
  for (VertexId v : core.ids) {
    for (VertexId u : g.Neighbors(v)) {
      if (compact[u] != kPeeled) *out++ = compact[u];
    }
  }
  core.graph = Graph::FromCsr(std::move(offsets), std::move(adj));
  return core;
}

}  // namespace qcm
