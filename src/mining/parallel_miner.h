// High-level facade: run the full parallel maximal quasi-clique pipeline
// (spawn -> build -> mine -> decompose -> postprocess) on a graph and
// return both the exact maximal result set and the engine's run report.

#ifndef QCM_MINING_PARALLEL_MINER_H_
#define QCM_MINING_PARALLEL_MINER_H_

#include <vector>

#include "gthinker/engine.h"
#include "gthinker/engine_config.h"
#include "graph/graph.h"
#include "quick/quasi_clique.h"
#include "util/status.h"

namespace qcm {

/// Output of ParallelMiner::Run.
struct ParallelMineResult {
  /// Exactly the maximal quasi-cliques (after FilterMaximal postprocessing).
  std::vector<VertexSet> maximal;
  /// Raw candidate count before postprocessing (the paper's tables report
  /// this as "Result #": its GitHub release "do[es] not include a
  /// processing step to remove non-maximal results").
  uint64_t raw_candidates = 0;
  /// Full engine metrics and per-thread/per-root accounting.
  EngineReport report;
};

class ParallelMiner {
 public:
  explicit ParallelMiner(EngineConfig config) : config_(std::move(config)) {}

  /// Mines `graph` to completion.
  StatusOr<ParallelMineResult> Run(const Graph& graph);

  /// Mines `graph` to completion and returns the engine's report, whose
  /// `results` are the raw candidates: for callers that filter them (or
  /// not) themselves instead of paying for Run's copy.
  StatusOr<EngineReport> RunUnfiltered(const Graph& graph);

 private:
  EngineConfig config_;
};

}  // namespace qcm

#endif  // QCM_MINING_PARALLEL_MINER_H_
