// The map from a graph's dense vertex ids back to the ids of the file it
// was read from, which every tool prints its results in.

#ifndef QCM_GRAPH_ID_MAP_H_
#define QCM_GRAPH_ID_MAP_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace qcm {

/// Dense id -> file id. Ids that form one gap-free run first ..
/// first+n-1 map by offset and hold no table (`ids` empty); any other ids
/// hold one table of n entries. The default map is the identity.
struct IdMap {
  uint64_t first = 0;          // the run's first id; unused with a table
  std::vector<uint64_t> ids;   // dense id -> file id; empty for a run

  uint64_t operator[](VertexId v) const {
    return ids.empty() ? first + v : ids[v];
  }

  bool operator==(const IdMap&) const = default;
};

}  // namespace qcm

#endif  // QCM_GRAPH_ID_MAP_H_
