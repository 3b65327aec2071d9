// A reference adjacency for graph-construction tests, built the slow,
// obvious way -- one std::set per vertex -- so it shares no code with
// Graph::FromEndpoints, a check that a Graph has exactly its rows, a
// check that two graphs have the same k-core, and the file ids an IdMap
// gives a graph's vertices.

#ifndef QCM_TESTS_REFERENCE_GRAPH_H_
#define QCM_TESTS_REFERENCE_GRAPH_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/id_map.h"
#include "graph/kcore.h"

namespace qcm {

/// The file id of each of a graph's n dense ids under `map`.
inline std::vector<uint64_t> FileIds(const IdMap& map, uint32_t n) {
  std::vector<uint64_t> ids(n);
  for (VertexId v = 0; v < n; ++v) ids[v] = map[v];
  return ids;
}

/// Row v is the set of v's neighbors.
using SetAdjacency = std::vector<std::set<VertexId>>;

/// The undirected graph of `edges` on n vertices, self-loops dropped and
/// duplicates collapsed; every endpoint must be below n.
inline SetAdjacency ReferenceAdjacency(
    uint32_t n, const std::vector<std::pair<uint64_t, uint64_t>>& edges) {
  SetAdjacency rows(n);
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    rows.at(u).insert(static_cast<VertexId>(v));
    rows.at(v).insert(static_cast<VertexId>(u));
  }
  return rows;
}

/// Success iff `g` has exactly the rows of `want` (a SetAdjacency, or
/// any rows of ascending neighbors), in ascending order.
template <typename Rows>
testing::AssertionResult SameAdjacency(const Graph& g, const Rows& want) {
  if (g.NumVertices() != want.size()) {
    return testing::AssertionFailure()
           << g.NumVertices() << " vertices, want " << want.size();
  }
  uint64_t entries = 0;
  for (VertexId v = 0; v < want.size(); ++v) {
    const auto row = g.Neighbors(v);
    entries += want[v].size();
    if (!std::equal(row.begin(), row.end(), want[v].begin(), want[v].end())) {
      std::string got;
      for (VertexId u : row) got += " " + std::to_string(u);
      return testing::AssertionFailure() << "row " << v << " is {" << got
                                         << " }, want " << want[v].size()
                                         << " neighbors";
    }
  }
  if (2 * g.NumEdges() != entries) {
    return testing::AssertionFailure()
           << g.NumEdges() << " edges, want " << entries / 2;
  }
  return testing::AssertionSuccess();
}

/// Success iff CompactKCore(a, k) and CompactKCore(b, k) keep the same
/// vertices with the same rows.
inline testing::AssertionResult SameKCore(const Graph& a, const Graph& b,
                                          uint32_t k) {
  const KCore want = CompactKCore(a, k);
  const KCore got = CompactKCore(b, k);
  if (got.ids != want.ids) {
    return testing::AssertionFailure()
           << "the " << k << "-core keeps " << got.ids.size()
           << " vertices, want " << want.ids.size() << " (or other ones)";
  }
  std::vector<std::span<const VertexId>> rows;
  for (VertexId c = 0; c < want.graph.NumVertices(); ++c) {
    rows.push_back(want.graph.Neighbors(c));
  }
  return SameAdjacency(got.graph, rows);
}

}  // namespace qcm

#endif  // QCM_TESTS_REFERENCE_GRAPH_H_
