// SNAP-style edge-list text I/O ("# comment" lines; "u<ws>v" per edge).
// Arbitrary external ids are compacted to dense VertexIds by rank; the
// map back to them (graph/id_map.h) is what results are printed in.

#ifndef QCM_GRAPH_EDGE_IO_H_
#define QCM_GRAPH_EDGE_IO_H_

#include <cstddef>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/id_map.h"
#include "util/status.h"

namespace qcm {

/// LoadEdgeList reads the file through one buffer of this many bytes.
inline constexpr size_t kEdgeListReadBuffer = size_t{64} << 10;
/// Longest edge-list line LoadEdgeList accepts, newline excluded.
inline constexpr size_t kEdgeListMaxLine = 510;

/// Result of loading an edge list: the compact graph and the map from its
/// dense ids back to the file's.
struct LoadedGraph {
  Graph graph;
  IdMap original_ids;
};

/// Loads a SNAP-format edge list in one buffered pass. Lines starting with
/// '#' or '%' are comments; each other line holds exactly two
/// whitespace-separated non-negative integer ids, held as one flat buffer
/// of 32-bit endpoints until the first id that needs 64 bits widens them
/// once. Ids are compacted by sorted rank (deterministic), in place. When
/// the span max-min of the ids is below the number of endpoints, one bit
/// per id of the span marks the ids present: if they are one gap-free run
/// first .. first+n-1, dense id v is file id first+v, so original_ids is
/// {first} with no table and the endpoints only lose `first` (nothing at
/// all when it is 0); any other ids go through a rank table indexed by id.
/// A wider span is ranked by sorting a copy of the ids. A table in
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
