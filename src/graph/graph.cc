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

  // Count each degree at the vertex's own index and prefix-sum, so that
  // offsets_[v] is the end of v's row; filling every row backwards through
  // its offset then leaves offsets_[v] at the row's start, with no cursor
  // array. The edges are sorted with u < v, so in edge order a row meets
  // its smaller neighbors (ascending) before its larger ones (ascending):
  // each row comes out sorted.
  Graph g;
  g.offsets_.assign(static_cast<size_t>(num_vertices) + 1, 0);
  for (const auto& [u, v] : edges) {
    ++g.offsets_[u];
    ++g.offsets_[v];
  }
  for (size_t i = 1; i < g.offsets_.size(); ++i) {
    g.offsets_[i] += g.offsets_[i - 1];
  }
  g.adj_.resize(edges.size() * 2);
  for (auto e = edges.rbegin(); e != edges.rend(); ++e) {
    g.adj_[--g.offsets_[e->first]] = e->second;
    g.adj_[--g.offsets_[e->second]] = e->first;
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
