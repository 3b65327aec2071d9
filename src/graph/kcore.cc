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

namespace {

/// One threshold peel over a single degree array: on return degree[v] >= k
/// iff v is in the k-core, and then it is v's degree inside the core (each
/// peeled neighbor took one off it). A scan peels each vertex it finds
/// below k; a peel that drops a vertex the scan has already passed below
/// k pushes it on a stack that is drained before the scan moves on. Each
/// vertex falls below k once, so it is peeled once.
std::vector<uint32_t> PeelToCore(const Graph& g, uint32_t k) {
  const uint32_t n = g.NumVertices();
  std::vector<uint32_t> degree(n);
  for (VertexId v = 0; v < n; ++v) degree[v] = g.Degree(v);
  std::vector<VertexId> behind;  // below k behind the scan, not yet peeled
  const auto peel = [&](VertexId v, VertexId scan) {
    for (VertexId u : g.Neighbors(v)) {
      if (degree[u] >= k && --degree[u] < k && u < scan) behind.push_back(u);
    }
  };
  for (VertexId v = 0; v < n; ++v) {
    if (degree[v] >= k) continue;
    peel(v, v);
    while (!behind.empty()) {
      const VertexId u = behind.back();
      behind.pop_back();
      peel(u, v);
    }
  }
  return degree;
}

}  // namespace

std::vector<uint8_t> KCoreMask(const Graph& g, uint32_t k) {
  const std::vector<uint32_t> degree = PeelToCore(g, k);
  std::vector<uint8_t> alive(degree.size());
  for (size_t v = 0; v < degree.size(); ++v) alive[v] = degree[v] >= k;
  return alive;
}

uint64_t KCoreSize(const Graph& g, uint32_t k) {
  const std::vector<uint32_t> degree = PeelToCore(g, k);
  return static_cast<uint64_t>(std::count_if(
      degree.begin(), degree.end(), [k](uint32_t d) { return d >= k; }));
}

KCore CompactKCore(const Graph& g, uint32_t k) {
  QCM_TRACE_SPAN(trace::kLifecycle, "kcore_compact", g.NumVertices());
  constexpr VertexId kPeeled = UINT32_MAX;
  // Each vertex's core degree, overwritten in place below into its compact
  // id (input id -> compact id); the scan reads each degree before it
  // writes that vertex's id.
  std::vector<uint32_t> compact = PeelToCore(g, k);
  const size_t m = static_cast<size_t>(std::count_if(
      compact.begin(), compact.end(), [k](uint32_t d) { return d >= k; }));
  KCore core;
  core.ids.reserve(m);
  std::vector<uint64_t> offsets;
  offsets.reserve(m + 1);
  offsets.push_back(0);
  for (VertexId v = 0; v < compact.size(); ++v) {
    if (compact[v] < k) {
      compact[v] = kPeeled;
      continue;
    }
    offsets.push_back(offsets.back() + compact[v]);
    compact[v] = static_cast<VertexId>(core.ids.size());
    core.ids.push_back(v);
  }
  // Each kept list is the input's sorted list filtered and renumbered by a
  // monotone map, so it stays sorted: copy, with no re-sort.
  std::vector<VertexId> adj(offsets.back());
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
