// High-level facade: run the full parallel maximal quasi-clique pipeline
// (k-core -> spawn -> build -> mine -> decompose -> postprocess) on a
// graph, with EngineConfig::num_machines in-process cluster ranks
// (net/local_cluster.h), and return both the exact maximal result set and
// the merged run report. The ranks serve the graph's k-core in its own
// compact id space, numbered in degeneracy order (CompactKCore and
// OrderByDegeneracy, graph/kcore.h), so tasks, pulls, counters and
// per-vertex scratch cover only k-core vertices; results and root task
// aggregates come back in the input's ids.

#ifndef QCM_MINING_PARALLEL_MINER_H_
#define QCM_MINING_PARALLEL_MINER_H_

#include <vector>

#include "gthinker/engine_config.h"
#include "gthinker/metrics.h"
#include "graph/graph.h"
#include "quick/quasi_clique.h"
#include "util/status.h"

namespace qcm {

/// Output of ParallelMiner::Run.
struct ParallelMineResult {
  /// Exactly the maximal quasi-cliques (after FilterMaximal postprocessing).
  std::vector<VertexSet> maximal;
  /// Raw candidate count before postprocessing: every set the kernel
  /// emitted (report.mining.emitted), including those each task's own
  /// filter dropped. The paper's tables report this as "Result #": its
  /// GitHub release "do[es] not include a processing step to remove
  /// non-maximal results".
  uint64_t raw_candidates = 0;
  /// Full engine metrics and per-thread/per-root accounting. Its `results`
  /// were moved into FilterMaximal and are empty.
  EngineReport report;
};

class ParallelMiner {
 public:
  explicit ParallelMiner(EngineConfig config) : config_(std::move(config)) {}

  /// Mines `graph` to completion.
  StatusOr<ParallelMineResult> Run(const Graph& graph);

  /// Mines `graph` to completion and returns the engine's report, whose
  /// `results` are the candidates that survived their own task's filter:
  /// for callers that filter them (or not) themselves.
  StatusOr<EngineReport> RunUnfiltered(const Graph& graph);

 private:
  EngineConfig config_;
};

}  // namespace qcm

#endif  // QCM_MINING_PARALLEL_MINER_H_
