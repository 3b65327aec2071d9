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
  /// Edge lines read: every pair, duplicates, reversed copies and
  /// self-loops included. 0 for a graph that was not read from a file.
  uint64_t edge_lines = 0;
  /// The min_degree whose prefilter chose the graph's edges; 0 when the
  /// graph holds every edge of the file.
  uint32_t prefilter_k = 0;
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
/// original_ids is allocated once, at its final size. A malformed line
/// (sign, non-digit, missing field, trailing garbage, overflow, an
/// over-long line, or a NUL byte before the newline) fails the load with a
/// Corruption status naming file:line and quoting the offending text.
///
/// With min_degree 0 the graph holds every edge, built inside the endpoint
/// buffer (Graph::FromEndpoints), which grew by doubling. A positive
/// min_degree k is for a caller that mines only the k-core (graph/kcore.h):
/// the buffer of a regular file is reserved once from its size (an edge
/// line takes at least 4 bytes, so S bytes hold at most S/2 + 2 endpoints,
/// and pages of the reservation never written are never resident), and a
/// prefilter drops edges that cannot lie in the k-core before the graph is
/// built. Each pass counts every id's endpoints in one byte, capped at
/// min(k, 255), and drops every pair with an endpoint counted below the
/// cap, and every self-loop. A count is never below the id's true degree
/// (or the cap), as a duplicate or a reversed copy only counts again, so no
/// k-core edge is dropped and CompactKCore(graph, k) is the same as on the
/// full load; the graph keeps every vertex and the file's dense ids. The
/// passes stop once one drops at most an eighth of its pairs (each pass
/// costs a scan, and a long chain would take one pass per link), and the
/// exact peel decides the rest. The survivors move to an exactly sized
/// buffer, the big one is freed, and the graph is built from the survivors,
/// which it keeps as its adjacency. So the load holds the reservation and
/// the largest of the read buffer, one byte per vertex and the survivors,
/// and then the survivors and FromEndpoints' 12 bytes per vertex.
StatusOr<LoadedGraph> LoadEdgeList(const std::string& path,
                                   uint32_t min_degree = 0);

/// Writes the graph as "u v" lines (dense ids), one undirected edge each,
/// with a header comment.
Status SaveEdgeList(const Graph& g, const std::string& path);

}  // namespace qcm

#endif  // QCM_GRAPH_EDGE_IO_H_
