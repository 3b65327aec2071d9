// Serial whole-graph miner: the paper's §4 algorithm driven over every
// vertex. Shrinks the input to its k-core (T1), builds each root's 2-hop
// ego network (the same subgraph a G-thinker task would materialize), and
// runs RecursiveMine on it. This is both the single-thread baseline of the
// evaluation and the correctness reference for the parallel engine.

#ifndef QCM_QUICK_SERIAL_MINER_H_
#define QCM_QUICK_SERIAL_MINER_H_

#include <vector>

#include "graph/graph.h"
#include "graph/local_graph.h"
#include "quick/mining_context.h"
#include "quick/quasi_clique.h"
#include "util/status.h"

namespace qcm {

/// Per-run report of the serial miner.
struct SerialMineReport {
  MiningStats stats;
  uint64_t roots_processed = 0;  // roots whose ego survived pruning
  uint64_t roots_skipped = 0;    // roots pruned before mining
  uint64_t kcore_size = 0;       // vertices surviving the global k-core
  double build_seconds = 0.0;    // ego-network materialization time
  double mine_seconds = 0.0;     // time inside RecursiveMine
  double total_seconds = 0.0;
};

/// Serial maximal quasi-clique miner. Task-subgraph materialization goes
/// through the shared EgoBuilder layer (graph/ego_builder.h) -- the same
/// Alg. 6-7 code the parallel engine's compute() iterations drive.
class SerialMiner {
 public:
  explicit SerialMiner(const MiningOptions& options) : options_(options) {}

  /// Mines all candidates into `sink` (postprocess with FilterMaximal to
  /// obtain exactly the maximal sets).
  StatusOr<SerialMineReport> Run(const Graph& g, ResultSink* sink);

 private:
  MiningOptions options_;
};

}  // namespace qcm

#endif  // QCM_QUICK_SERIAL_MINER_H_
