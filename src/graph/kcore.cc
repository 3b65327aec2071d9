#include "graph/kcore.h"

#include <algorithm>

#include "util/trace.h"

namespace qcm {

namespace {

/// Both passes over a peel order read the rows in that order, i.e. at
/// random; each prefetches the row this many steps ahead. On a 40.9k-vertex
/// core whose lists outgrow L2 this cut the peel and the fill by ~25% each.
constexpr uint32_t kPrefetchRows = 4;

void PrefetchRow(const Graph& g, VertexId v) {
  __builtin_prefetch(g.Neighbors(v).data());
}

/// The Batagelj-Zaversnik bucket peel: vertices sit in an array bucketed
/// by current degree, and each step removes the next vertex of least
/// current degree, taking one off each neighbor of higher current degree.
struct BucketPeel {
  /// Core number of each vertex: its current degree when it was removed.
  std::vector<uint32_t> core;
  /// The vertices in removal order. Each has at most its core number of
  /// neighbors after it, so this is a degeneracy (smallest-last) order;
  /// it is deterministic, the buckets being filled in id order.
  std::vector<VertexId> order;
  /// rank[v]: v's index in `order`.
  std::vector<uint32_t> rank;
};

BucketPeel PeelByDegree(const Graph& g) {
  const uint32_t n = g.NumVertices();
  // degree[v] is v's current degree until v is removed; it then never
  // changes (no later vertex has a smaller one), so it ends as core[v].
  BucketPeel peel{std::vector<uint32_t>(n), std::vector<VertexId>(n),
                  std::vector<uint32_t>(n)};
  std::vector<uint32_t>& degree = peel.core;
  std::vector<VertexId>& order = peel.order;  // sorted by current degree
  std::vector<uint32_t>& pos = peel.rank;     // position of each vertex
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
  for (VertexId v = 0; v < n; ++v) {
    pos[v] = bin[degree[v]];
    order[pos[v]] = v;
    ++bin[degree[v]];
  }
  // Restore bin[d] = first index of degree-d block.
  for (uint32_t d = max_degree; d >= 1; --d) bin[d] = bin[d - 1];
  if (max_degree + 1 < bin.size()) bin[max_degree + 1] = n;
  bin[0] = 0;

  // Position i is final once the scan reaches it: a move only touches a
  // block of higher degree, which starts after i. (So the row prefetched
  // ahead may yet move: it is a hint.)
  for (uint32_t i = 0; i < n; ++i) {
    if (i + kPrefetchRows < n) PrefetchRow(g, order[i + kPrefetchRows]);
    const VertexId v = order[i];
    const uint32_t dv = degree[v];
    for (VertexId u : g.Neighbors(v)) {
      if (degree[u] > dv) {
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
  return peel;
}

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

std::vector<uint32_t> CoreDecomposition(const Graph& g) {
  return PeelByDegree(g).core;
}

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

KCore OrderByDegeneracy(KCore core) {
  const Graph& g = core.graph;
  const uint32_t n = g.NumVertices();
  QCM_TRACE_SPAN(trace::kLifecycle, "kcore_order", n);
  BucketPeel peel = PeelByDegree(g);
  KCore ordered;
  for (uint32_t c : peel.core) {
    ordered.degeneracy = std::max(ordered.degeneracy, c);
  }
  // New vertex c is old vertex peel.order[c], and old u is new
  // peel.rank[u]. One transpose fill: visiting the new ids in ascending
  // order, append each to its neighbors' rows, so every row comes out
  // sorted. While it fills, offsets[r + 1] is row r's cursor; it ends as
  // the row's end, i.e. the next row's start.
  std::vector<uint64_t> offsets(n + 1);
  for (uint32_t c = 0; c + 1 < n; ++c) {
    offsets[c + 2] = offsets[c + 1] + g.Degree(peel.order[c]);
  }
  std::vector<VertexId> adj(2 * g.NumEdges());
  for (VertexId c = 0; c < n; ++c) {
    if (c + kPrefetchRows < n) PrefetchRow(g, peel.order[c + kPrefetchRows]);
    for (VertexId u : g.Neighbors(peel.order[c])) {
      adj[offsets[peel.rank[u] + 1]++] = c;
    }
  }
  ordered.graph = Graph::FromCsr(std::move(offsets), std::move(adj));
  for (VertexId& v : peel.order) v = core.ids[v];
  ordered.ids = std::move(peel.order);
  return ordered;
}

}  // namespace qcm
