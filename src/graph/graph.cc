#include "graph/graph.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "util/logging.h"

namespace qcm {

StatusOr<Graph> Graph::FromEndpoints(uint32_t num_vertices,
                                     std::vector<VertexId> endpoints) {
  if (endpoints.size() % 2 != 0) {
    return Status::InvalidArgument("odd endpoint count " +
                                   std::to_string(endpoints.size()));
  }
  const size_t n = num_vertices;
  VertexId* const e = endpoints.data();
  // Check and orient every pair to (lo, hi), dropping self-loops and
  // packing the rest to the front, and count each lo's pairs at
  // offsets[lo + 1]. The counts are 64-bit: before dedupe one vertex can
  // head more than 2^32 pairs.
  std::vector<uint64_t> offsets(n + 1, 0);
  size_t pairs = 0;
  for (size_t i = 0; i < endpoints.size(); i += 2) {
    VertexId u = e[i], v = e[i + 1];
    if (u >= num_vertices || v >= num_vertices) {
      return Status::InvalidArgument(
          "edge endpoint out of range: (" + std::to_string(u) + ", " +
          std::to_string(v) + ") with num_vertices=" +
          std::to_string(num_vertices));
    }
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    e[2 * pairs] = u;
    e[2 * pairs + 1] = v;
    ++pairs;
    ++offsets[u + 1];
  }
  // offsets[lo + 1] becomes the first slot of lo's bucket, then its fill
  // cursor. A pair stored (lo, hi) has yet to move; one stored (hi, lo) is
  // in its bucket. Each step moves the pair at slot i into the next free
  // slot of its bucket and brings back the unmoved pair that sat there,
  // until slot i holds a moved pair (cycle leader): every pair moves once.
  uint64_t start = 0;
  for (size_t b = 1; b <= n; ++b) {
    const uint64_t count = offsets[b];
    offsets[b] = start;
    start += count;
  }
  for (size_t i = 0; i < pairs; ++i) {
    while (e[2 * i] < e[2 * i + 1]) {
      const VertexId lo = e[2 * i], hi = e[2 * i + 1];
      const uint64_t d = offsets[lo + 1]++;
      e[2 * i] = e[2 * d];
      e[2 * i + 1] = e[2 * d + 1];
      e[2 * d] = hi;
      e[2 * d + 1] = lo;
    }
  }
  // offsets[lo + 1] is now the end of lo's bucket. Pack each bucket's hi
  // values to the front of the buffer, sorted and deduped: `upper` row lo
  // becomes [offsets[lo], offsets[lo + 1]) in entries. The write position
  // never passes the pair being read.
  size_t upper = 0;
  uint64_t bucket_begin = 0;
  for (size_t lo = 0; lo < n; ++lo) {
    const uint64_t bucket_end = offsets[lo + 1];
    const size_t row = upper;
    for (uint64_t p = bucket_begin; p < bucket_end; ++p) e[upper++] = e[2 * p];
    std::sort(e + row, e + upper);
    upper = static_cast<size_t>(std::unique(e + row, e + upper) - e);
    offsets[lo + 1] = upper;
    bucket_begin = bucket_end;
  }
  // Each vertex's smaller neighbors; no more than n - 1, so 32 bits.
  std::vector<uint32_t> lower(n, 0);
  for (size_t i = 0; i < upper; ++i) ++lower[e[i]];
  // Expand to the symmetric CSR from the last row back: row v ends where
  // the rows after it begin, and its upper half moves to the end of it.
  // A row never ends before its upper half does now, so the move only
  // overwrites rows already moved and their own old place.
  uint64_t row_end = 2 * upper;
  for (size_t v = n; v-- > 0;) {
    const uint64_t begin = offsets[v];
    const uint64_t len = offsets[v + 1] - begin;
    if (len > 0 && row_end != begin + len) {
      std::memmove(e + row_end - len, e + begin, len * sizeof(VertexId));
    }
    offsets[v + 1] = row_end;
    row_end -= len + lower[v];
  }
  // Fill the lower halves in ascending order: by the time the scan reaches
  // v, every smaller neighbor has written itself into v's row, so lower[v]
  // is where v's upper half starts.
  std::fill(lower.begin(), lower.end(), 0);
  for (size_t v = 0; v < n; ++v) {
    for (uint64_t i = offsets[v] + lower[v]; i < offsets[v + 1]; ++i) {
      const VertexId u = e[i];
      e[offsets[u] + lower[u]++] = static_cast<VertexId>(v);
    }
  }
  endpoints.resize(2 * upper);
  Graph g;
  g.offsets_ = std::move(offsets);
  g.adj_ = std::move(endpoints);
  return g;
}

StatusOr<Graph> Graph::FromEdges(uint32_t num_vertices,
                                 std::vector<Edge> edges) {
  std::vector<VertexId> endpoints;
  endpoints.reserve(2 * edges.size());
  for (const auto& [u, v] : edges) {
    endpoints.push_back(u);
    endpoints.push_back(v);
  }
  std::vector<Edge>().swap(edges);
  return FromEndpoints(num_vertices, std::move(endpoints));
}

Graph Graph::FromCsr(std::vector<uint64_t> offsets,
                     std::vector<VertexId> adj) {
  QCM_CHECK(!offsets.empty() && offsets.front() == 0 &&
            offsets.back() == adj.size())
      << "malformed CSR offsets";
  Graph g;
  g.offsets_ = std::move(offsets);
  g.adj_ = std::move(adj);
  return g;
}

bool Graph::HasEdge(VertexId u, VertexId v) const {
  if (u >= NumVertices() || v >= NumVertices()) return false;
  if (Degree(u) > Degree(v)) std::swap(u, v);
  auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

uint32_t Graph::MaxDegree() const {
  uint32_t best = 0;
  for (VertexId v = 0; v < NumVertices(); ++v) {
    best = std::max(best, Degree(v));
  }
  return best;
}

}  // namespace qcm
