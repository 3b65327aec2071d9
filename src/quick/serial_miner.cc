#include "quick/serial_miner.h"

#include "graph/ego_builder.h"
#include "graph/kcore.h"
#include "quick/recursive_mine.h"
#include "util/timer.h"

namespace qcm {

StatusOr<SerialMineReport> SerialMiner::Run(const Graph& g,
                                            ResultSink* sink) {
  QCM_RETURN_IF_ERROR(options_.Validate());
  SerialMineReport report;
  WallTimer total;

  // (T1) size-threshold pruning: shrink to the k-core.
  const uint32_t k = options_.MinDegreeK();
  std::vector<uint8_t> alive = KCoreMask(g, k);
  for (uint8_t a : alive) report.kcore_size += a;

  // The shared materialization layer (Alg. 6-7), reading the CSR graph
  // directly, masked to the global k-core. One scratch serves every root.
  EgoScratch scratch;
  scratch.Reset(g.NumVertices());
  GraphVertexSource source(&g, &alive);
  EgoBuilder builder(&scratch);
  builder.set_dense_threshold(options_.dense_threshold);
  MiningScratch mining_scratch;  // pooled across every root's task

  for (VertexId root = 0; root < g.NumVertices(); ++root) {
    if (!alive[root]) {
      ++report.roots_skipped;
      continue;
    }
    WallTimer build_timer;
    LocalGraph ego = builder.BuildEgo(source, root, k, options_.min_size);
    report.build_seconds += build_timer.Seconds();
    if (ego.n() == 0) {
      ++report.roots_skipped;
      continue;
    }

    WallTimer mine_timer;
    MiningContext ctx(&ego, options_, sink, &mining_scratch);
    const LocalId local_root = ego.FindLocal(root);
    std::vector<LocalId> ext;
    ext.reserve(ego.n() - 1);
    for (LocalId u = 0; u < ego.n(); ++u) {
      if (u != local_root) ext.push_back(u);
    }
    RecursiveMine(ctx, std::span(&local_root, 1), ext);
    report.mine_seconds += mine_timer.Seconds();
    report.stats.Add(ctx.stats);
    ++report.roots_processed;
  }
  report.total_seconds = total.Seconds();
  return report;
}

}  // namespace qcm
