// A tour of the reforged G-thinker framework as a *general* engine: write
// your own graph-mining application by implementing the two UDFs of paper
// §5 (task_spawn and compute) plus a task codec.
//
// The app here counts, for every vertex, the size of its 2-hop
// neighborhood, so the engine's queues, spilling and big-task routing all
// engage. Adjacency owned by another machine is read the one way the
// engine offers: Request() it, return kSuspended, and resume once the
// batched pull has delivered it.
//
// Build & run:  ./build/examples/engine_tour

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "graph/generators.h"
#include "net/local_cluster.h"

namespace {

using namespace qcm;

/// Task state: root vertex + the first-hop frontier still to expand.
class HopTask : public Task {
 public:
  HopTask(VertexId root, uint64_t hint) : root_(root), hint_(hint) {}

  VertexId root() const override { return root_; }
  uint64_t SizeHint() const override { return hint_; }

  void Encode(Encoder* enc) const override {
    enc->PutU32(root_);
    enc->PutU64(hint_);
    enc->PutU8(stage_);
    enc->PutU32Vector(frontier_);
  }
  static StatusOr<TaskPtr> Decode(Decoder* dec) {
    VertexId root;
    uint64_t hint;
    QCM_RETURN_IF_ERROR(dec->GetU32(&root));
    QCM_RETURN_IF_ERROR(dec->GetU64(&hint));
    auto t = std::make_unique<HopTask>(root, hint);
    QCM_RETURN_IF_ERROR(dec->GetU8(&t->stage_));
    QCM_RETURN_IF_ERROR(dec->GetU32Vector(&t->frontier_));
    return TaskPtr(std::move(t));
  }

  uint8_t stage_ = 0;                // 0 = expand root, 1 = count
  std::vector<VertexId> frontier_;   // one-hop neighbors

 private:
  VertexId root_;
  uint64_t hint_;
};

/// UDF pair: spawn a task per vertex; compute expands 2 hops and emits
/// {root, |N2+(root)|} as a 2-element "result set" (id, count).
class TwoHopApp : public App {
 public:
  TaskPtr Spawn(VertexId v, ComputeContext& ctx) override {
    if (ctx.Degree(v) == 0) return nullptr;
    return std::make_unique<HopTask>(v, ctx.Degree(v));
  }

  ComputeStatus Compute(Task& task, ComputeContext& ctx) override {
    auto& t = static_cast<HopTask&>(task);
    if (t.stage_ == 0) {
      // The root is local unless the task was stolen to another machine.
      if (!ctx.Request(t.root())) return ComputeStatus::kSuspended;
      AdjRef adj = ctx.Fetch(t.root());
      t.frontier_.assign(adj.adj.begin(), adj.adj.end());
      t.stage_ = 1;
      return ComputeStatus::kRequeue;  // back through the queues
    }
    // Request every neighbor; if any lives on another machine, yield the
    // thread until one batched pull per machine has delivered them all.
    bool all_available = true;
    for (VertexId u : t.frontier_) {
      all_available = ctx.Request(u) && all_available;
    }
    if (!all_available) return ComputeStatus::kSuspended;
    std::unordered_set<VertexId> seen(t.frontier_.begin(),
                                      t.frontier_.end());
    seen.insert(t.root());
    for (VertexId u : t.frontier_) {
      AdjRef au = ctx.Fetch(u);  // local, or pinned by the pull
      for (VertexId w : au.adj) seen.insert(w);
    }
    ctx.sink().Emit({t.root(), static_cast<VertexId>(seen.size() - 1)});
    return ComputeStatus::kDone;
  }

  StatusOr<TaskPtr> DecodeTask(Decoder* dec) const override {
    return HopTask::Decode(dec);
  }
};

}  // namespace

int main() {
  using namespace qcm;

  auto graph_or = GenBarabasiAlbert(20000, 3, 7);
  if (!graph_or.ok()) {
    std::fprintf(stderr, "%s\n", graph_or.status().ToString().c_str());
    return 1;
  }
  const Graph& graph = *graph_or;

  EngineConfig config;
  config.num_machines = 4;          // in-process cluster ranks
  config.threads_per_machine = 2;
  config.tau_split = 64;            // degree > 64 => big task
  config.local_queue_capacity = 32; // small queues: watch the spilling
  config.batch_size = 8;
  config.mining.gamma = 0.9;        // unused by this app; must validate
  config.mining.min_size = 2;

  // Four engines, one per rank, as threads of this process under the
  // cluster coordinator; every rank serves its partition of `graph`.
  TwoHopApp app;
  auto report = RunLocalCluster(graph, config, &app);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }

  // The "results" are (vertex, 2-hop-size) pairs; find the biggest hubs.
  auto results = std::move(report->results);
  std::sort(results.begin(), results.end(),
            [](const VertexSet& a, const VertexSet& b) {
              return a[1] > b[1];
            });
  std::printf("2-hop neighborhood sizes on a %u-vertex power-law graph:\n",
              graph.NumVertices());
  for (size_t i = 0; i < std::min<size_t>(5, results.size()); ++i) {
    std::printf("  vertex %6u reaches %u vertices within 2 hops\n",
                results[i][0], results[i][1]);
  }

  std::printf("\nWhat the engine did (wall %.2f s):\n",
              report->wall_seconds);
  std::printf("  tasks: %lu completed (%lu big, %lu small), %lu spilled "
              "to %lu files\n",
              static_cast<unsigned long>(report->counters.tasks_completed),
              static_cast<unsigned long>(report->counters.big_tasks),
              static_cast<unsigned long>(report->counters.small_tasks),
              static_cast<unsigned long>(report->counters.spilled_tasks),
              static_cast<unsigned long>(report->counters.spill_files));
  std::printf("  stealing: %lu transfers moved %lu big tasks (%lu bytes "
              "over loopback)\n",
              static_cast<unsigned long>(report->counters.steal_events),
              static_cast<unsigned long>(report->counters.stolen_tasks),
              static_cast<unsigned long>(report->counters.steal_bytes));
  std::printf("  pulls: %lu suspensions, %lu vertices pulled in %lu "
              "batches\n",
              static_cast<unsigned long>(report->counters.task_suspensions),
              static_cast<unsigned long>(report->counters.pulled_vertices),
              static_cast<unsigned long>(report->counters.pull_batches));
  std::printf("  remote vertex cache: %lu hits, %lu misses, %lu evictions\n",
              static_cast<unsigned long>(report->counters.cache_hits),
              static_cast<unsigned long>(report->counters.cache_misses),
              static_cast<unsigned long>(report->counters.cache_evictions));
  std::printf("  per-thread busy max/min: %.2f\n", report->BusyImbalance());
  return 0;
}
