// SNAP-style edge-list text I/O ("# comment" lines; "u<ws>v" per edge).
// Arbitrary external ids are compacted to dense VertexIds by rank; the
// mapping can be recovered for reporting.

#ifndef QCM_GRAPH_EDGE_IO_H_
#define QCM_GRAPH_EDGE_IO_H_

#include <cstddef>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace qcm {

/// LoadEdgeList reads the file through one buffer of this many bytes.
inline constexpr size_t kEdgeListReadBuffer = size_t{64} << 10;
/// Longest edge-list line LoadEdgeList accepts, newline excluded.
inline constexpr size_t kEdgeListMaxLine = 510;

/// Result of loading an edge list: compact graph + dense-id -> original-id.
struct LoadedGraph {
  Graph graph;
  std::vector<uint64_t> original_ids;  // indexed by VertexId
};

/// Loads a SNAP-format edge list in one buffered pass. Lines starting with
/// '#' or '%' are comments; each other line holds exactly two
/// whitespace-separated non-negative integer ids, held as one flat buffer
/// of 32-bit endpoints until the first id that needs 64 bits widens them
/// once. Ids are compacted by sorted rank (deterministic), in place:
/// through a rank table indexed by id when the span max-min of the ids is
/// below the number of endpoints, else by sorting a copy of them;
/// original_ids is allocated once, at its final size. The graph is then
/// built inside the endpoint buffer (Graph::FromEndpoints). A malformed
/// line (sign, non-digit, missing field, trailing garbage, overflow, an
/// over-long line, or a NUL byte before the newline) fails the load with a
/// Corruption status naming file:line and quoting the offending text.
StatusOr<LoadedGraph> LoadEdgeList(const std::string& path);

/// Writes the graph as "u v" lines (dense ids), one undirected edge each,
/// with a header comment.
Status SaveEdgeList(const Graph& g, const std::string& path);

}  // namespace qcm

#endif  // QCM_GRAPH_EDGE_IO_H_
