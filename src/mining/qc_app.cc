#include "mining/qc_app.h"

#include <algorithm>

#include "graph/ego_builder.h"
#include "quick/maximality_filter.h"
#include "quick/mining_context.h"
#include "quick/recursive_mine.h"
#include "util/timer.h"

namespace qcm {

namespace {

/// EgoVertexSource over the engine's vertex storage: adjacency
/// pulls go through ComputeContext::Fetch, so remote reads are cached and
/// metrics-counted exactly like any other vertex pulling.
class ContextVertexSource final : public EgoVertexSource {
 public:
  explicit ContextVertexSource(ComputeContext* ctx) : ctx_(ctx) {}

  uint32_t Degree(VertexId v) override { return ctx_->Degree(v); }

  std::span<const VertexId> Adjacency(VertexId v) override {
    ref_ = ctx_->Fetch(v);
    return ref_.adj;
  }

 private:
  ComputeContext* ctx_;
  AdjRef ref_;  // keeps the most recent copy pinned
};

}  // namespace

QCApp::QCApp(const EngineConfig& config)
    : config_(config), k_(config.mining.MinDegreeK()) {}

TaskPtr QCApp::Spawn(VertexId v, ComputeContext& ctx) {
  // Alg. 4: only spawn when deg(v) >= k (Theorem 2).
  const uint32_t degree = ctx.Degree(v);
  if (degree < k_) return nullptr;
  return QCTask::MakeSpawn(v, degree);
}

StatusOr<TaskPtr> QCApp::DecodeTask(Decoder* dec) const {
  return QCTask::Decode(dec);
}

ComputeStatus QCApp::Compute(Task& task, ComputeContext& ctx) {
  auto& t = static_cast<QCTask&>(task);
  if (t.iteration() == 1) {
    // The root's own adjacency must be pullable too: a task stolen to a
    // machine that does not own its root (or reloaded from a spill file
    // after its pins were dropped) rides the same batched request/
    // response protocol instead of a synchronous fallback fetch -- the
    // machine's table does not serve a remote adjacency, so this is the
    // only correct path.
    if (!ctx.Request(t.root())) return ComputeStatus::kSuspended;
    // Iteration 1 (Alg. 6 lines 1-3): request the 1-hop frontier.
    WallTimer build;
    const FirstHop r = RequestFirstHop(t, ctx);
    ctx.metrics().build_seconds += build.Seconds();
    if (r == FirstHop::kDead) return ComputeStatus::kDone;
    t.AdvanceIteration(2);
    if (r == FirstHop::kMissing) return ComputeStatus::kSuspended;
    // Everything local/cached: run iteration 2 in the same round.
  }
  if (t.iteration() == 2) {
    // Iteration 2 (Alg. 6 + the Alg. 7 pull): first-hop staging and peel
    // over the now-available frontier, then request the 2-hop ball.
    WallTimer build;
    ContextVertexSource source(&ctx);
    EgoBuilder builder(&ctx.ego_scratch());
    builder.set_dense_threshold(config_.mining.dense_threshold);
    if (!builder.BuildEgoFirstHop(source, t.root(), k_)) {
      ctx.metrics().build_seconds += build.Seconds();
      return ComputeStatus::kDone;
    }
    bool all_available = true;
    for (VertexId w : builder.SecondHopPullSet(source, k_)) {
      all_available = ctx.Request(w) && all_available;
    }
    t.AdvanceIteration(3);
    if (!all_available) {
      // Yield the comper while the batched pull is outstanding (Alg. 3's
      // "add t back to the queue"): the task stays parked until the
      // CommFabric delivers every kPullResponse, however long the modeled
      // network latency delays them. Other tasks reuse this comper's
      // scratch meanwhile, so iteration 3 re-runs Alg. 6 -- every read by
      // then is a pin/cache hit, costing CPU but no transfer.
      ctx.metrics().build_seconds += build.Seconds();
      return ComputeStatus::kSuspended;
    }
    // Nothing missing: finish Alg. 7 on the live builder state and mine
    // immediately (paper: "t will not be suspended but rather run the
    // third iteration immediately").
    LocalGraph g = builder.BuildEgoSecondHop(source, t.root(), k_,
                                             config_.mining.min_size);
    const bool alive = PromoteBuilt(t, std::move(g), ctx);
    ctx.metrics().build_seconds += build.Seconds();
    if (!alive) return ComputeStatus::kDone;
  } else if (t.NeedsBuild()) {
    // Iteration 3, resumed after the 2-hop pull (or reloaded from a spill
    // file): materialize from pinned/cached vertices.
    WallTimer build;
    const bool alive = BuildEgoGraph(t, ctx);
    ctx.metrics().build_seconds += build.Seconds();
    if (!alive) return ComputeStatus::kDone;
  }
  MineTask(t, ctx);
  return ComputeStatus::kDone;
}

QCApp::FirstHop QCApp::RequestFirstHop(QCTask& t, ComputeContext& ctx) {
  // The qualifying 1-hop frontier {u in Gamma(v): u > v, deg(u) >= k} is
  // computable from the root's adjacency (machine-local for tasks spawned
  // here, pinned by the Request(root) round for stolen/reloaded ones)
  // plus degree metadata, which transfers no adjacency.
  AdjRef root_adj = ctx.Fetch(t.root());
  bool any = false;
  bool all_available = true;
  for (VertexId u : root_adj.adj) {
    if (u <= t.root()) continue;
    if (ctx.Degree(u) < k_) continue;
    any = true;
    all_available = ctx.Request(u) && all_available;
  }
  if (!any) return FirstHop::kDead;  // Alg. 6: no qualifying frontier
  return all_available ? FirstHop::kReady : FirstHop::kMissing;
}

bool QCApp::BuildEgoGraph(QCTask& t, ComputeContext& ctx) {
  // Full Alg. 6-7 through the shared materialization layer, pulling
  // vertices via the engine's vertex storage and reusing this comper's
  // scratch across tasks.
  ContextVertexSource source(&ctx);
  EgoBuilder builder(&ctx.ego_scratch());
  builder.set_dense_threshold(config_.mining.dense_threshold);
  LocalGraph g =
      builder.BuildEgo(source, t.root(), k_, config_.mining.min_size);
  return PromoteBuilt(t, std::move(g), ctx);
}

bool QCApp::PromoteBuilt(QCTask& t, LocalGraph g, ComputeContext& ctx) {
  if (g.n() == 0) return false;
  const VertexId root = t.root();

  // End of Alg. 7: t.S <- {v}, t.ext(S) <- V(g) - v.
  std::vector<VertexId> ext;
  ext.reserve(g.n() - 1);
  for (LocalId l = 0; l < g.n(); ++l) {
    if (g.GlobalId(l) != root) ext.push_back(g.GlobalId(l));
  }
  if (config_.record_task_log) {
    RootTaskAgg& agg = ctx.metrics().root_agg[root];
    agg.root = root;
    agg.subgraph_vertices = g.n();
    agg.subgraph_edges = g.NumEdges();
  }
  t.PromoteToMining({root}, std::move(ext), std::move(g));
  return true;
}

void QCApp::MineTask(QCTask& t, ComputeContext& ctx) {
  const LocalGraph& g = t.g();

  // Re-localize <S, ext(S)> (subtasks arrive with global ids).
  std::vector<LocalId> s_local, ext_local;
  s_local.reserve(t.s().size());
  for (VertexId vid : t.s()) s_local.push_back(g.FindLocal(vid));
  ext_local.reserve(t.ext().size());
  for (VertexId vid : t.ext()) ext_local.push_back(g.FindLocal(vid));

  // The task mines into a sink of its own (see the filter below).
  VectorSink task_sink;
  MiningContext mctx(&g, config_.mining, &task_sink, ctx.mining_scratch());

  // Decomposition policy (paper §6).
  const bool decompose =
      (config_.mode == DecomposeMode::kTimeDelayed) ||
      (config_.mode == DecomposeMode::kSizeThreshold &&
       t.ext().size() > config_.tau_split);
  if (decompose) {
    // tau_time seconds of real mining first (Alg. 10); for the pure
    // size-threshold strategy (Alg. 8) the deadline is immediate, which
    // turns every branch of the first level into a subtask.
    const double deadline =
        config_.mode == DecomposeMode::kTimeDelayed ? config_.tau_time : 0.0;
    mctx.ArmTimeout(deadline, [&](const std::vector<LocalId>& s_child,
                                  const std::vector<LocalId>& ext_child) {
      // Materialize the subtask's subgraph (the decomposition overhead
      // measured by Table 6) and hand it to the engine.
      ScopedAccumulator mat(&ctx.metrics().materialize_seconds);
      std::vector<LocalId> keep;
      keep.reserve(s_child.size() + ext_child.size());
      keep.insert(keep.end(), s_child.begin(), s_child.end());
      keep.insert(keep.end(), ext_child.begin(), ext_child.end());
      std::sort(keep.begin(), keep.end());
      LocalGraph sub = g.Induce(keep);
      std::vector<VertexId> s_global, ext_global;
      s_global.reserve(s_child.size());
      for (LocalId l : s_child) s_global.push_back(g.GlobalId(l));
      ext_global.reserve(ext_child.size());
      for (LocalId l : ext_child) ext_global.push_back(g.GlobalId(l));
      std::sort(s_global.begin(), s_global.end());
      std::sort(ext_global.begin(), ext_global.end());
      ctx.AddTask(QCTask::MakeSubtask(t.root(), std::move(s_global),
                                      std::move(ext_global),
                                      std::move(sub)));
    });
  }

  WallTimer mine;
  const double mat_before = ctx.metrics().materialize_seconds;
  RecursiveMine(mctx, s_local, ext_local);
  // Attribute time spent materializing subtasks to materialization, not
  // mining (Table 6 separates the two).
  const double mine_seconds =
      mine.Seconds() - (ctx.metrics().materialize_seconds - mat_before);
  ctx.metrics().mining_seconds += mine_seconds;

  // Only the candidates no other candidate of this task contains reach the
  // comper's sink. The miner emits every maximal set, so a set strictly
  // inside another candidate is never a result (§3.1), and the global
  // FilterMaximal still runs over every task's survivors.
  std::vector<VertexSet>& candidates = task_sink.results();
  if (candidates.size() >= 2) {
    const size_t emitted = candidates.size();
    candidates = FilterMaximal(std::move(candidates));
    mctx.stats.subsumed = emitted - candidates.size();
  }
  for (VertexSet& set : candidates) ctx.sink().Emit(std::move(set));
  ctx.metrics().mining_stats.Add(mctx.stats);

  if (config_.record_task_log) {
    RootTaskAgg& agg = ctx.metrics().root_agg[t.root()];
    agg.root = t.root();
    agg.mining_seconds += mine_seconds;
    ++agg.tasks;
  }
}

}  // namespace qcm
