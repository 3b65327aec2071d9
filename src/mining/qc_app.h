// The quasi-clique G-thinker application: the two UDFs of paper §6.
//   * Spawn (Alg. 4): one task per vertex with degree >= k. Every
//     launcher hands the engine the k-core subgraph (KCoreSubgraph,
//     graph/kcore.h), where a vertex has degree >= k iff it is in the
//     k-core, so on it this test means k-core membership. On a graph that
//     was not reduced (a qcm_cluster --snapshot file, which ships as
//     given, or a direct RunLocalCluster call), it is only Theorem 2's
//     degree bound: a root outside the k-core still spawns, and its task
//     finds nothing.
//   * Compute (Alg. 5): iterations 1-2 build the root's 2-hop ego network
//     with k-core shrinking (Alg. 6-7), requesting remote vertices via the
//     engine's batched pull layer and suspending while pulls are
//     outstanding; iteration 3 mines it (Alg. 8-10), decomposing into
//     subtasks according to the configured mode. When everything a round
//     needs is already local/pinned/cached, the next iteration runs in the
//     same round (no artificial suspension).

#ifndef QCM_MINING_QC_APP_H_
#define QCM_MINING_QC_APP_H_

#include "gthinker/task.h"
#include "mining/qc_task.h"

namespace qcm {

class QCApp : public App {
 public:
  /// `config` is the engine configuration this app will run under (used
  /// for mining options, decomposition mode and thresholds).
  explicit QCApp(const EngineConfig& config);

  TaskPtr Spawn(VertexId v, ComputeContext& ctx) override;
  ComputeStatus Compute(Task& task, ComputeContext& ctx) override;
  StatusOr<TaskPtr> DecodeTask(Decoder* dec) const override;

 private:
  enum class FirstHop { kDead, kReady, kMissing };

  /// Iteration 1: requests the qualifying 1-hop frontier (computable from
  /// the root's machine-local adjacency plus degree metadata). kDead if
  /// the frontier is empty (Theorem 2), kMissing if a pull is outstanding.
  FirstHop RequestFirstHop(QCTask& t, ComputeContext& ctx);

  /// Full Alg. 6-7 build (every vertex already local/pinned/cached):
  /// returns false if the task dies. On success the task is promoted to
  /// mining state.
  bool BuildEgoGraph(QCTask& t, ComputeContext& ctx);

  /// Shared promotion tail: end of Alg. 7 (t.S <- {v}, t.ext(S) <-
  /// V(g) - v) plus per-root task-log recording. False when g is empty.
  bool PromoteBuilt(QCTask& t, LocalGraph g, ComputeContext& ctx);

  /// Iteration 3 (Alg. 8/9/10): mines t.g, decomposing per `mode_`.
  void MineTask(QCTask& t, ComputeContext& ctx);

  EngineConfig config_;
  uint32_t k_;  // ceil(gamma * (tau_size - 1))
};

}  // namespace qcm

#endif  // QCM_MINING_QC_APP_H_
