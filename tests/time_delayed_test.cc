// Algorithm 10 (time-delayed decomposition) in isolation: with an
// immediately-expired deadline, RecursiveMine wraps every surviving branch
// into a subtask. Manually draining the subtask queue (re-mining each
// wrapped <S', ext(S')> the same way) must reproduce exactly the full
// recursive algorithm's maximal result set -- the engine-independent
// completeness argument for the paper's decomposition.

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "graph/ego_builder.h"
#include "graph/generators.h"
#include "graph/local_graph.h"
#include "quick/maximality_filter.h"
#include "quick/naive_enum.h"
#include "quick/recursive_mine.h"
#include "quick/serial_miner.h"

namespace qcm {
namespace {

LocalGraph FromGraph(const Graph& g) {
  EgoBuilder builder;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    std::vector<VertexId> adj(g.Neighbors(v).begin(), g.Neighbors(v).end());
    builder.Stage(v, adj);
  }
  return builder.Build();
}

/// A wrapped subtask: its own induced subgraph plus <S, ext> in global ids.
struct PendingTask {
  LocalGraph g;
  std::vector<VertexId> s;
  std::vector<VertexId> ext;
};

/// Mines a LocalGraph with an always-expired deadline, pushing wrapped
/// subtasks onto `queue`.
void MineWithImmediateTimeout(const LocalGraph& g,
                              const MiningOptions& opts,
                              std::vector<VertexId> s_global,
                              std::vector<VertexId> ext_global,
                              VectorSink* sink,
                              std::deque<PendingTask>* queue,
                              uint64_t* wrapped) {
  MiningContext ctx(&g, opts, sink);
  ctx.ArmTimeout(0.0, [&](const std::vector<LocalId>& s_child,
                          const std::vector<LocalId>& ext_child) {
    PendingTask task;
    std::vector<LocalId> keep;
    keep.insert(keep.end(), s_child.begin(), s_child.end());
    keep.insert(keep.end(), ext_child.begin(), ext_child.end());
    std::sort(keep.begin(), keep.end());
    task.g = g.Induce(keep);
    for (LocalId l : s_child) task.s.push_back(g.GlobalId(l));
    for (LocalId l : ext_child) task.ext.push_back(g.GlobalId(l));
    queue->push_back(std::move(task));
    ++*wrapped;
  });
  std::vector<LocalId> s_local, ext_local;
  for (VertexId v : s_global) s_local.push_back(g.FindLocal(v));
  for (VertexId v : ext_global) ext_local.push_back(g.FindLocal(v));
  RecursiveMine(ctx, std::move(s_local), std::move(ext_local));
}

TEST(TimeDelayedTest, DrainingSubtasksReproducesFullResults) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    auto g = std::move(GenErdosRenyi(16, 60, seed)).value();
    MiningOptions opts;
    opts.gamma = 0.7;
    opts.min_size = 3;

    // Reference: plain serial mining.
    VectorSink ref_sink;
    SerialMiner miner(opts);
    ASSERT_TRUE(miner.Run(g, &ref_sink).ok());
    auto expected = FilterMaximal(std::move(ref_sink.results()));

    // Time-delayed with immediate timeout: every level decomposes.
    LocalGraph local = FromGraph(g);
    VectorSink sink;
    std::deque<PendingTask> queue;
    uint64_t wrapped = 0;
    for (VertexId root = 0; root < g.NumVertices(); ++root) {
      std::vector<VertexId> ext;
      for (VertexId u = root + 1; u < g.NumVertices(); ++u) {
        ext.push_back(u);
      }
      MineWithImmediateTimeout(local, opts, {root}, ext, &sink, &queue,
                               &wrapped);
    }
    while (!queue.empty()) {
      PendingTask task = std::move(queue.front());
      queue.pop_front();
      MineWithImmediateTimeout(task.g, opts, task.s, task.ext, &sink,
                               &queue, &wrapped);
    }
    EXPECT_GT(wrapped, 0u) << "decomposition never triggered";
    EXPECT_EQ(FilterMaximal(std::move(sink.results())), expected)
        << "seed=" << seed;
  }
}

TEST(TimeDelayedTest, FarDeadlineNeverDecomposes) {
  auto g = std::move(GenErdosRenyi(14, 50, 9)).value();
  MiningOptions opts;
  opts.gamma = 0.7;
  opts.min_size = 3;
  LocalGraph local = FromGraph(g);
  VectorSink sink;
  std::deque<PendingTask> queue;
  uint64_t wrapped = 0;
  for (VertexId root = 0; root < g.NumVertices(); ++root) {
    std::vector<VertexId> ext;
    for (VertexId u = root + 1; u < g.NumVertices(); ++u) ext.push_back(u);
    MiningContext ctx(&local, opts, &sink);
    ctx.ArmTimeout(3600.0, [&](const std::vector<LocalId>&,
                               const std::vector<LocalId>&) { ++wrapped; });
    std::vector<LocalId> s_local = {local.FindLocal(root)};
    std::vector<LocalId> ext_local;
    for (VertexId v : ext) ext_local.push_back(local.FindLocal(v));
    RecursiveMine(ctx, std::move(s_local), std::move(ext_local));
  }
  EXPECT_EQ(wrapped, 0u);
}

TEST(TimeDelayedTest, NoHookMeansNoDecomposition) {
  auto g = std::move(GenErdosRenyi(14, 50, 11)).value();
  MiningOptions opts;
  opts.gamma = 0.7;
  opts.min_size = 3;
  LocalGraph local = FromGraph(g);
  VectorSink sink;
  MiningContext ctx(&local, opts, &sink);  // no ArmTimeout
  std::vector<LocalId> ext;
  for (LocalId u = 1; u < local.n(); ++u) ext.push_back(u);
  const LocalId root = 0;
  RecursiveMine(ctx, std::span(&root, 1), ext);
  EXPECT_EQ(ctx.stats.subtasks_spawned, 0u);
}

TEST(TimeDelayedTest, SubtaskCountsTracked) {
  auto g = std::move(GenErdosRenyi(16, 70, 13)).value();
  MiningOptions opts;
  opts.gamma = 0.6;
  opts.min_size = 3;
  LocalGraph local = FromGraph(g);
  VectorSink sink;
  std::deque<PendingTask> queue;
  uint64_t wrapped = 0;
  MineWithImmediateTimeout(local, opts, {0},
                           [&] {
                             std::vector<VertexId> ext;
                             for (VertexId u = 1; u < 16; ++u) {
                               ext.push_back(u);
                             }
                             return ext;
                           }(),
                           &sink, &queue, &wrapped);
  EXPECT_EQ(wrapped, queue.size());
}

}  // namespace
}  // namespace qcm
