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

Graph KCoreSubgraph(const Graph& g, uint32_t k) {
  QCM_TRACE_SPAN(trace::kLifecycle, "kcore_subgraph", g.NumVertices());
  const std::vector<uint8_t> alive = KCoreMask(g, k);
  const uint32_t n = g.NumVertices();
  // Each kept list is the input's sorted list filtered by the mask, so it
  // stays sorted: count, then copy, with no re-sort.
  std::vector<uint64_t> offsets(static_cast<size_t>(n) + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    uint64_t kept = 0;
    if (alive[v]) {
      for (VertexId u : g.Neighbors(v)) kept += alive[u];
    }
    offsets[v + 1] = offsets[v] + kept;
  }
  std::vector<VertexId> adj(offsets[n]);
  for (VertexId v = 0; v < n; ++v) {
    if (!alive[v]) continue;
    VertexId* out = adj.data() + offsets[v];
    for (VertexId u : g.Neighbors(v)) {
      if (alive[u]) *out++ = u;
    }
  }
  return Graph::FromCsr(std::move(offsets), std::move(adj));
}

}  // namespace qcm
