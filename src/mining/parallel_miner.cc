#include "mining/parallel_miner.h"

#include "mining/qc_app.h"
#include "quick/maximality_filter.h"

namespace qcm {

StatusOr<EngineReport> ParallelMiner::RunUnfiltered(const Graph& graph) {
  QCM_RETURN_IF_ERROR(config_.Validate());
  QCApp app(config_);
  Engine engine(&graph, config_, &app);
  return engine.Run();
}

StatusOr<ParallelMineResult> ParallelMiner::Run(const Graph& graph) {
  auto report = RunUnfiltered(graph);
  QCM_RETURN_IF_ERROR(report.status());

  ParallelMineResult result;
  result.report = std::move(report).value();
  result.raw_candidates = result.report.results.size();
  result.maximal = FilterMaximal(result.report.results);
  return result;
}

}  // namespace qcm
