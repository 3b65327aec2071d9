#include "mining/parallel_miner.h"

#include "graph/kcore.h"
#include "mining/qc_app.h"
#include "net/local_cluster.h"
#include "quick/maximality_filter.h"

namespace qcm {

StatusOr<EngineReport> ParallelMiner::RunUnfiltered(const Graph& graph) {
  QCM_RETURN_IF_ERROR(config_.Validate());
  // (T1) No result lies outside the k-core, so no task, pull or list read
  // touches a vertex outside it, and every per-vertex array is core-sized.
  // Numbered smallest-last, each root's later-neighbour ball is small.
  const KCore core =
      OrderByDegeneracy(CompactKCore(graph, config_.mining.MinDegreeK()));
  QCApp app(config_);
  QCM_ASSIGN_OR_RETURN(EngineReport report,
                       RunLocalCluster(core.graph, config_, &app));
  MapToInputIds(core.ids, &report);
  return report;
}

StatusOr<ParallelMineResult> ParallelMiner::Run(const Graph& graph) {
  auto report = RunUnfiltered(graph);
  QCM_RETURN_IF_ERROR(report.status());

  ParallelMineResult result;
  result.report = std::move(report).value();
  result.raw_candidates = result.report.mining.emitted;
  result.maximal = FilterMaximal(std::move(result.report.results));
  return result;
}

}  // namespace qcm
