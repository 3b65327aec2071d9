#include "graph/graph.h"

#include <algorithm>
#include <string>

#include "util/logging.h"

namespace qcm {

StatusOr<Graph> Graph::FromEdges(uint32_t num_vertices,
                                 std::vector<Edge> edges) {
  for (auto& [u, v] : edges) {
    if (u >= num_vertices || v >= num_vertices) {
      return Status::InvalidArgument(
          "edge endpoint out of range: (" + std::to_string(u) + ", " +
          std::to_string(v) + ") with num_vertices=" +
          std::to_string(num_vertices));
    }
    if (u > v) std::swap(u, v);
  }
  // Drop self-loops, then dedupe.
  edges.erase(std::remove_if(edges.begin(), edges.end(),
                             [](const Edge& e) { return e.first == e.second; }),
              edges.end());
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  Graph g;
  g.offsets_.assign(static_cast<size_t>(num_vertices) + 1, 0);
  for (const auto& [u, v] : edges) {
    ++g.offsets_[u + 1];
    ++g.offsets_[v + 1];
  }
  for (size_t i = 1; i < g.offsets_.size(); ++i) {
    g.offsets_[i] += g.offsets_[i - 1];
  }
  g.adj_.resize(edges.size() * 2);
  std::vector<uint64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const auto& [u, v] : edges) {
    g.adj_[cursor[u]++] = v;
    g.adj_[cursor[v]++] = u;
  }
  // Each adjacency range was filled in edge-sorted order; ranges for u are
  // sorted by construction for the first endpoint but not the second, so
  // sort each range to establish the invariant.
  for (uint32_t v = 0; v < num_vertices; ++v) {
    std::sort(g.adj_.begin() + static_cast<int64_t>(g.offsets_[v]),
              g.adj_.begin() + static_cast<int64_t>(g.offsets_[v + 1]));
  }
  return g;
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
