// Tests for the pull-based vertex access subsystem (paper §5, Fig. 8):
// VertexCache LRU eviction by count and by charge and the capacity=0
// (cache off) mode, the DataService fetch paths (including the loud
// failure of a remote read that skipped the pull protocol), the
// PullBroker request/response protocol over the CommFabric, and the
// end-to-end invariant that ParallelMiner results stay bit-identical to
// the direct-read path under cache pressure, cross-machine pulls, and
// modeled network latency.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "gthinker/comm.h"
#include "gthinker/vertex_cache.h"
#include "gthinker/vertex_table.h"
#include "memory_transport.h"
#include "mining/parallel_miner.h"
#include "mining/qc_task.h"
#include "quick/maximality_filter.h"
#include "util/timer.h"

namespace qcm {
namespace {

VertexCache::AdjPtr Adj(std::vector<VertexId> v) {
  return std::make_shared<const std::vector<VertexId>>(std::move(v));
}

/// The counters DataService hands its remote cache.
VertexCache::Counters RemoteCounters(EngineCounters* c) {
  return {&c->cache_hits, &c->cache_misses, &c->cache_evictions};
}

TEST(VertexCacheTest, LookupCountsHitsAndMisses) {
  EngineCounters counters;
  VertexCache cache(8, RemoteCounters(&counters));
  EXPECT_EQ(cache.Lookup(1), nullptr);
  EXPECT_EQ(counters.cache_misses.load(), 1u);
  cache.Insert(1, Adj({2, 3}), 1);
  auto hit = cache.Lookup(1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, (std::vector<VertexId>{2, 3}));
  EXPECT_EQ(counters.cache_hits.load(), 1u);
  // Uncounted internal probes move no stats.
  EXPECT_NE(cache.Lookup(1, /*count_stats=*/false), nullptr);
  EXPECT_EQ(counters.cache_hits.load(), 1u);
}

TEST(VertexCacheTest, LruEvictsLeastRecentlyUsed) {
  EngineCounters counters;
  // Capacity below the shard threshold -> one shard -> exact global LRU.
  VertexCache cache(3, RemoteCounters(&counters));
  cache.Insert(10, Adj({1}), 1);
  cache.Insert(20, Adj({2}), 1);
  cache.Insert(30, Adj({3}), 1);
  // Touch 10 so 20 becomes the least recently used.
  EXPECT_NE(cache.Lookup(10), nullptr);
  cache.Insert(40, Adj({4}), 1);
  EXPECT_EQ(counters.cache_evictions.load(), 1u);
  EXPECT_EQ(cache.Lookup(20), nullptr);  // evicted
  EXPECT_NE(cache.Lookup(10), nullptr);
  EXPECT_NE(cache.Lookup(30), nullptr);
  EXPECT_NE(cache.Lookup(40), nullptr);
  EXPECT_EQ(cache.ApproxCharge(), 3u);
}

TEST(VertexCacheTest, EvictedEntriesSurviveWhilePinned) {
  EngineCounters counters;
  VertexCache cache(1, RemoteCounters(&counters));
  cache.Insert(1, Adj({7, 8, 9}), 1);
  auto pin = cache.Lookup(1);
  ASSERT_NE(pin, nullptr);
  cache.Insert(2, Adj({5}), 1);  // evicts 1
  EXPECT_EQ(cache.Lookup(1), nullptr);
  // The pinned copy is still intact.
  EXPECT_EQ(*pin, (std::vector<VertexId>{7, 8, 9}));
}

TEST(VertexCacheTest, ChargesBoundTheCapacity) {
  // A byte-charged cache (a budgeted table's own lists), counting only
  // evictions.
  std::atomic<uint64_t> evictions{0};
  VertexCache cache(100, {nullptr, nullptr, &evictions});
  cache.Insert(1, Adj({1}), 40);
  cache.Insert(2, Adj({2}), 40);
  cache.Insert(3, Adj({3}), 40);  // 120 > 100: evicts 1
  EXPECT_EQ(evictions.load(), 1u);
  EXPECT_EQ(cache.ApproxCharge(), 80u);
  EXPECT_EQ(cache.Lookup(1), nullptr);
  // Refreshing an entry replaces its charge.
  cache.Insert(2, Adj({2}), 10);
  EXPECT_EQ(cache.ApproxCharge(), 50u);
  // An entry charged more than the whole capacity is not kept, and does
  // not flush the others.
  cache.Insert(4, Adj({4}), 101);
  EXPECT_EQ(cache.Lookup(4), nullptr);
  EXPECT_NE(cache.Lookup(2), nullptr);
  EXPECT_NE(cache.Lookup(3), nullptr);
  EXPECT_EQ(evictions.load(), 1u);
}

TEST(VertexCacheTest, CapacityZeroDisablesCaching) {
  EngineCounters counters;
  VertexCache cache(0, RemoteCounters(&counters));
  EXPECT_FALSE(cache.enabled());
  cache.Insert(1, Adj({2}), 1);
  EXPECT_EQ(cache.Lookup(1), nullptr);
  EXPECT_EQ(cache.ApproxCharge(), 0u);
  EXPECT_EQ(counters.cache_hits.load(), 0u);
  EXPECT_EQ(counters.cache_misses.load(), 1u);
  EXPECT_EQ(counters.cache_evictions.load(), 0u);
}

TEST(VertexCacheTest, ShardedCacheStaysNearCapacity) {
  EngineCounters counters;
  VertexCache cache(2048, RemoteCounters(&counters));  // sharded regime
  for (VertexId v = 0; v < 5000; ++v) {
    cache.Insert(v, Adj({v}), 1);
  }
  EXPECT_GT(counters.cache_evictions.load(), 0u);
  EXPECT_LE(cache.ApproxCharge(), 2048u);
}

TEST(VertexCacheTest, ShardsOnlyWhenEveryShardHoldsTheLargestCharge) {
  // 8 shards of 1024: an entry charged 3000 fits none and is not kept.
  VertexCache sharded(8192, {});
  sharded.Insert(1, Adj({1}), 3000);
  EXPECT_EQ(sharded.Lookup(1), nullptr);
  // Declaring that charge keeps the cache in one shard, which holds it.
  VertexCache whole(8192, {}, /*max_charge=*/3000);
  whole.Insert(1, Adj({1}), 3000);
  EXPECT_NE(whole.Lookup(1), nullptr);
  EXPECT_EQ(whole.ApproxCharge(), 3000u);
}

/// What a pull response would deliver for v: a copy of its adjacency.
VertexCache::AdjPtr CopyOf(const Graph& g, VertexId v) {
  auto adj = g.Neighbors(v);
  return Adj(std::vector<VertexId>(adj.begin(), adj.end()));
}

TEST(DataServiceTest, LocalVsCachedRemoteFetch) {
  auto g = std::move(GenErdosRenyi(50, 200, 2)).value();
  VertexTable table(&g, 2, /*rank=*/0);
  EngineCounters counters;
  DataService svc(&table, /*cache_capacity=*/1024, &counters);

  // Local fetch: no pin, no cache traffic.
  VertexId local_v = table.OwnedVertices()[0];
  AdjRef local_ref = svc.Fetch(local_v);
  EXPECT_EQ(local_ref.pin, nullptr);
  EXPECT_EQ(counters.cache_misses.load(), 0u);

  // Remote fetch of a delivered (cached) vertex: a pinned cache hit.
  const VertexId remote_v = VertexTable(&g, 2, 1).OwnedVertices()[0];
  svc.cache().Insert(remote_v, CopyOf(g, remote_v), 1);
  AdjRef r = svc.Fetch(remote_v);
  EXPECT_NE(r.pin, nullptr);
  EXPECT_EQ(counters.cache_hits.load(), 1u);
  EXPECT_EQ(counters.cache_misses.load(), 0u);
  auto src = g.Neighbors(remote_v);
  ASSERT_EQ(r.adj.size(), src.size());
  EXPECT_TRUE(std::equal(r.adj.begin(), r.adj.end(), src.begin()));
}

// The resident graph behind a table holds the owner's adjacency too, but
// a remote vertex that was never Request()ed (nor cached) must fail
// exactly as it does on a cluster worker, whose snapshot table does not
// serve it.
TEST(DataServiceDeathTest, UnrequestedRemoteFetchAbortsOnSharedGraph) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto g = std::move(GenErdosRenyi(50, 200, 2)).value();
  VertexTable table(&g, 2, /*rank=*/0);
  EngineCounters counters;
  DataService svc(&table, /*cache_capacity=*/1024, &counters);
  const VertexId remote_v = VertexTable(&g, 2, 1).OwnedVertices()[0];
  EXPECT_DEATH(svc.Fetch(remote_v),
               "never Request\\(\\)ed/pinned \\(pull-protocol violation\\)");
}

/// One machine of an n-machine cluster over a resident graph: its
/// partition, data service, pull broker and fabric, wired to the other
/// machines through `net` as the engine wires them.
struct TestMachine {
  TestMachine(const Graph& g, int n, int rank, MemoryNetwork* net,
              size_t max_batch, EngineCounters* counters)
      : table(&g, n, rank),
        data(&table, /*cache_capacity=*/1024, counters),
        broker(&data, max_batch, counters),
        fabric(/*latency_sec=*/0, counters, net->at(rank)) {
    net->at(rank)->SetDataHandler([this](int src, uint8_t type,
                                         std::string payload,
                                         uint64_t transit) {
      fabric.Inject(static_cast<MessageType>(type), src, std::move(payload),
                    transit);
    });
  }

  VertexTable table;
  DataService data;
  PullBroker broker;
  CommFabric fabric;
};

/// `n` machines sharing one counter set; machine 0 is the requester.
struct TestCluster {
  TestCluster(const Graph& g, int n, size_t max_batch) : net(n) {
    for (int r = 0; r < n; ++r) {
      machines.push_back(
          std::make_unique<TestMachine>(g, n, r, &net, max_batch, &counters));
    }
  }
  TestMachine& operator[](int r) { return *machines[r]; }

  /// Messages in flight anywhere. Reads the owners before the requester:
  /// an answer moves from an owner's responder into machine 0's inbox,
  /// so this order never misses one in mid-move.
  size_t InFlight() {
    size_t total = 0;
    for (size_t r = machines.size(); r-- > 0;) {
      total += machines[r]->fabric.InFlight();
    }
    return total;
  }

  EngineCounters counters;
  MemoryNetwork net;
  std::vector<std::unique_ptr<TestMachine>> machines;
};

/// Runs the full request/response protocol to completion: start every
/// machine's pull responder over its broker (wired as the engine wires
/// it), pump machine 0's requests, then service every machine's inbox --
/// one comper scheduling loop each -- accepting the responses until
/// nothing is in flight. Returns all resumed tasks.
std::vector<TaskPtr> CompletePullRound(TestCluster& cluster) {
  for (auto& m : cluster.machines) {
    PullBroker* broker = &m->broker;
    m->fabric.StartResponder([broker](const std::string& request) {
      return broker->ServeRequest(request);
    });
  }
  std::vector<TaskPtr> ready;
  for (TaskPtr& t : cluster[0].broker.PumpRequests(&cluster[0].fabric)) {
    ready.push_back(std::move(t));
  }
  // Bounded: the responders answer on their own threads.
  WallTimer waited;
  while (cluster.InFlight() > 0 && waited.Seconds() < 10.0) {
    for (auto& m : cluster.machines) {
      for (Message& msg : m->fabric.Service()) {
        EXPECT_EQ(msg.type, MessageType::kPullResponse);
        for (TaskPtr& t : m->broker.AcceptResponse(msg.payload)) {
          ready.push_back(std::move(t));
        }
      }
    }
  }
  for (auto& m : cluster.machines) m->fabric.StopResponder();
  return ready;
}

TEST(PullBrokerTest, RequestResponseBatchesPinsAndCaches) {
  auto g = std::move(GenErdosRenyi(60, 300, 4)).value();
  TestCluster cluster(g, 3, /*max_batch=*/4);
  EngineCounters& counters = cluster.counters;
  PullBroker& b0 = cluster[0].broker;

  // A task wanting vertices owned by machines 1 and 2.
  TaskPtr task = QCTask::MakeSpawn(0, 1);
  std::vector<VertexId> wanted;
  for (int m : {1, 2}) {
    for (size_t i = 0; i < 6; ++i) {
      wanted.push_back(cluster[m].table.OwnedVertices()[i]);
    }
  }
  for (VertexId v : wanted) task->pulls().Want(v);
  b0.Park(std::move(task));
  EXPECT_EQ(b0.ParkedCount(), 1u);
  EXPECT_EQ(b0.InFlightVertices(), wanted.size());

  auto ready = CompletePullRound(cluster);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(b0.ParkedCount(), 0u);
  EXPECT_EQ(b0.InFlightVertices(), 0u);
  // 6 ids per machine at max_batch=4 -> 2 request messages per machine.
  EXPECT_EQ(counters.pull_batches.load(), 4u);
  EXPECT_EQ(
      counters.msg_sent[static_cast<int>(MessageType::kPullRequest)].load(),
      4u);
  EXPECT_EQ(
      counters.msg_sent[static_cast<int>(MessageType::kPullResponse)].load(),
      4u);
  EXPECT_EQ(counters.pulled_vertices.load(), wanted.size());
  EXPECT_EQ(counters.pull_rounds.load(), 1u);
  EXPECT_GT(counters.pull_bytes.load(), 0u);
  // Every wanted vertex is pinned in the task and cached on the machine.
  for (VertexId v : wanted) {
    const auto* pin = ready[0]->pulls().Find(v);
    ASSERT_NE(pin, nullptr) << "missing pin for " << v;
    auto src = g.Neighbors(v);
    EXPECT_TRUE(std::equal((*pin)->begin(), (*pin)->end(), src.begin(),
                           src.end()));
    EXPECT_NE(cluster[0].data.cache().Lookup(v, /*count_stats=*/false),
              nullptr);
  }
  // Nothing left: a second pump sends nothing and resumes nothing.
  EXPECT_TRUE(b0.PumpRequests(&cluster[0].fabric).empty());
  EXPECT_EQ(cluster.InFlight(), 0u);
}

TEST(PullBrokerTest, CachedRequestsTransferNothing) {
  auto g = std::move(GenErdosRenyi(40, 200, 5)).value();
  TestCluster cluster(g, 2, /*max_batch=*/1024);
  EngineCounters& counters = cluster.counters;

  VertexId v = cluster[1].table.OwnedVertices()[0];
  // An earlier pull delivered v.
  cluster[0].data.cache().Insert(v, CopyOf(g, v), 1);
  const uint64_t bytes_before = counters.pull_bytes.load();

  TaskPtr task = QCTask::MakeSpawn(0, 1);
  task->pulls().Want(v);
  cluster[0].broker.Park(std::move(task));
  auto ready = CompletePullRound(cluster);
  ASSERT_EQ(ready.size(), 1u);
  // Served from cache at park time: pinned, no message, no transfer.
  EXPECT_NE(ready[0]->pulls().Find(v), nullptr);
  EXPECT_EQ(counters.pull_bytes.load(), bytes_before);
  EXPECT_EQ(counters.pulled_vertices.load(), 0u);
  EXPECT_EQ(EngineCountersSnapshot::From(counters).MessagesSent(), 0u);
}

TEST(PullBrokerTest, SharedInFlightVertexRequestedOnce) {
  auto g = std::move(GenErdosRenyi(40, 200, 6)).value();
  TestCluster cluster(g, 2, /*max_batch=*/1024);
  PullBroker& b0 = cluster[0].broker;

  // Two tasks wanting the same remote vertex: one request, two pins.
  VertexId v = cluster[1].table.OwnedVertices()[0];
  TaskPtr a = QCTask::MakeSpawn(0, 1);
  TaskPtr b = QCTask::MakeSpawn(2, 1);
  a->pulls().Want(v);
  b->pulls().Want(v);
  b0.Park(std::move(a));
  b0.Park(std::move(b));
  EXPECT_EQ(b0.InFlightVertices(), 1u);

  auto ready = CompletePullRound(cluster);
  EXPECT_EQ(ready.size(), 2u);
  EXPECT_EQ(cluster.counters.pulled_vertices.load(), 1u);
  for (const TaskPtr& t : ready) {
    EXPECT_NE(t->pulls().Find(v), nullptr);
  }
}

// ---- End-to-end: pull-based access must not change mining results ----

Graph PlantedGraph() {
  return std::move(GenPlantedCommunities({.num_vertices = 220,
                                          .background_edges = 400,
                                          .background =
                                              BackgroundModel::kErdosRenyi,
                                          .num_communities = 5,
                                          .community_min = 8,
                                          .community_max = 12,
                                          .intra_density = 0.92,
                                          .overlap_fraction = 0.25,
                                          .seed = 41}))
      .value();
}

struct MineOptions {
  size_t cache_capacity = 1 << 16;
  double latency_sec = 0.0;
};

std::vector<VertexSet> MineWith(const Graph& g, int machines,
                                MineOptions opts,
                                EngineReport* report = nullptr) {
  EngineConfig config;
  config.mining.gamma = 0.85;
  config.mining.min_size = 6;
  config.num_machines = machines;
  config.threads_per_machine = 2;
  config.tau_split = 16;
  config.tau_time = 0.001;
  config.steal_period_sec = 0.005;
  config.vertex_cache_capacity = opts.cache_capacity;
  config.net_latency_sec = opts.latency_sec;
  ParallelMiner miner(config);
  auto result = miner.Run(g);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (report != nullptr) *report = result->report;
  return std::move(result->maximal);
}

TEST(PullPathTest, CrossMachinePullsMatchDirectReadPath) {
  Graph g = PlantedGraph();
  // machines=1: every vertex is local -- the direct-read reference.
  auto direct = MineWith(g, 1, {});
  ASSERT_FALSE(direct.empty());

  // machines=4 with tiny caches: heavy pulling, suspension and eviction.
  // At 16 entries the cache must also still serve hits under that
  // eviction pressure.
  for (size_t capacity : {8, 16}) {
    SCOPED_TRACE("cache_capacity=" + std::to_string(capacity));
    EngineReport report;
    auto pulled = MineWith(g, 4, {.cache_capacity = capacity}, &report);
    EXPECT_EQ(pulled, direct);
    // The pull machinery actually ran -- over the fabric.
    EXPECT_GT(report.counters.task_suspensions, 0u);
    EXPECT_GT(report.counters.pull_rounds, 0u);
    EXPECT_GT(report.counters.pull_batches, 0u);
    EXPECT_GT(report.counters.pulled_vertices, 0u);
    EXPECT_GT(report.counters.pull_bytes, 0u);
    EXPECT_GT(report.counters.cache_evictions, 0u);
    EXPECT_GT(report.counters.pin_hits, 0u);
    if (capacity == 16) {
      EXPECT_GT(report.counters.cache_hits, 0u);
    }
    const int req = static_cast<int>(MessageType::kPullRequest);
    const int resp = static_cast<int>(MessageType::kPullResponse);
    EXPECT_GT(report.counters.msg_sent[req], 0u);
    EXPECT_EQ(report.counters.msg_sent[req],
              report.counters.msg_delivered[req]);
    EXPECT_EQ(report.counters.msg_sent[resp],
              report.counters.msg_delivered[resp]);
    EXPECT_EQ(report.counters.msg_drained, 0u);
  }
}

TEST(PullPathTest, CacheOffStillMatchesDirectReadPath) {
  Graph g = PlantedGraph();
  auto direct = MineWith(g, 1, {});
  ASSERT_FALSE(direct.empty());

  EngineReport report;
  auto uncached = MineWith(g, 3, {.cache_capacity = 0}, &report);
  EXPECT_EQ(uncached, direct);
  // With the cache disabled nothing is ever served from it.
  EXPECT_EQ(report.counters.cache_hits, 0u);
  EXPECT_GT(report.counters.cache_misses, 0u);
  // Pins still satisfy the build after the pull round.
  EXPECT_GT(report.counters.pin_hits, 0u);
}

TEST(PullPathTest, WallLatencyDoesNotChangeResults) {
  Graph g = PlantedGraph();
  auto direct = MineWith(g, 1, {});
  ASSERT_FALSE(direct.empty());

  EngineReport report;
  auto delayed = MineWith(g, 3, {.latency_sec = 0.0005}, &report);
  EXPECT_EQ(delayed, direct);
  EXPECT_GT(report.counters.MessagesSent(), 0u);
  // The modeled wire delay is observable in the delivery latencies.
  EXPECT_GT(report.counters.MeanDeliveryLatencySeconds(), 0.0004);
  EXPECT_EQ(report.counters.msg_drained, 0u);
}

}  // namespace
}  // namespace qcm
