// Transport/coordinator integration tests, run entirely in-process so the
// sanitizer configs see every thread: the rank-assignment handshake, the
// data-plane mesh, prompt shutdown, steal commands, distributed
// termination detection with report collection, and -- the core §5
// parity claim -- a full 3-rank cluster run through the in-process
// launcher (three TcpTransport-backed engines, real loopback sockets
// between them) whose merged maximal result set is bit-identical to the
// serial miner's, with and without send coalescing.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "mining/qc_app.h"
#include "net/coordinator.h"
#include "net/job_spec.h"
#include "net/local_cluster.h"
#include "net/tcp_transport.h"
#include "quick/maximality_filter.h"
#include "quick/serial_miner.h"
#include "util/serde.h"
#include "util/timer.h"

namespace qcm {
namespace {

TEST(TcpTransportTest, HandshakeMeshAndDataDelivery) {
  CoordinatorConfig config;
  config.world_size = 3;
  config.config_blob = "opaque-config";
  config.steal_period_sec = 0.0;
  auto coordinator = Coordinator::Listen(std::move(config));
  ASSERT_TRUE(coordinator.ok());
  const uint16_t port = (*coordinator)->port();

  struct WorkerState {
    std::unique_ptr<TcpTransport> transport;
    std::mutex mu;
    std::vector<std::string> received;  // "src:type:payload"
    std::atomic<bool> terminated{false};
  };
  std::vector<WorkerState> states(3);

  auto worker_main = [&](int i) {
    auto t = TcpTransport::ConnectWorker("127.0.0.1", port);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    states[i].transport = std::move(t).value();
    TcpTransport* tr = states[i].transport.get();
    EXPECT_EQ(tr->world_size(), 3);
    EXPECT_EQ(tr->config_blob(), "opaque-config");
    tr->SetDataHandler([&states, i](int src, uint8_t type,
                                    std::string payload, uint64_t) {
      std::lock_guard<std::mutex> lock(states[i].mu);
      states[i].received.push_back(std::to_string(src) + ":" +
                                   std::to_string(type) + ":" + payload);
    });
    Transport::ControlHooks hooks;
    hooks.on_terminate = [&states, i] { states[i].terminated = true; };
    tr->SetControlHooks(std::move(hooks));
    ASSERT_TRUE(tr->Start().ok());

    // Every rank sends one fabric message to every other rank.
    const int rank = tr->rank();
    for (int dst = 0; dst < 3; ++dst) {
      if (dst == rank) continue;
      ASSERT_TRUE(
          tr->SendData(dst, 1, "m" + std::to_string(rank)).ok());
    }
    // Publish quiescent statuses until termination is declared. The sent/
    // processed counters must genuinely match for detection to fire.
    while (!states[i].terminated.load()) {
      RankStatus status;
      status.pending = 0;
      status.spawn_done = true;
      // Per-pair accounting: credit each processed frame to its sender
      // (the transport fills the matching sent_to side at publish time).
      status.processed_from.assign(3, 0);
      {
        std::lock_guard<std::mutex> lock(states[i].mu);
        for (const std::string& r : states[i].received) {
          ++status.processed_from[r[0] - '0'];
        }
      }
      status.pending_big = 0;
      tr->PublishStatus(status);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ASSERT_TRUE(tr->SendReport("report-" + std::to_string(rank)).ok());
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) threads.emplace_back(worker_main, i);

  ASSERT_TRUE((*coordinator)->RunHandshake().ok());
  auto reports = (*coordinator)->RunToCompletion();
  for (auto& th : threads) th.join();
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();

  // Ranks were assigned 0..2 exactly once; each rank's report arrived in
  // its slot.
  std::vector<bool> seen(3, false);
  for (int i = 0; i < 3; ++i) {
    const int rank = states[i].transport->rank();
    ASSERT_GE(rank, 0);
    ASSERT_LT(rank, 3);
    EXPECT_FALSE(seen[rank]);
    seen[rank] = true;
    EXPECT_EQ((*reports)[rank], "report-" + std::to_string(rank));
    EXPECT_TRUE(states[i].transport->terminated());
    EXPECT_FALSE(states[i].transport->failed());
    // Two peers sent this rank one message each, delivered intact.
    std::lock_guard<std::mutex> lock(states[i].mu);
    ASSERT_EQ(states[i].received.size(), 2u);
    for (const std::string& r : states[i].received) {
      const int src = r[0] - '0';
      EXPECT_NE(src, rank);
      EXPECT_EQ(r, std::to_string(src) + ":1:m" + std::to_string(src));
    }
  }
  for (auto& s : states) s.transport->Shutdown();
  (*coordinator)->Close();
}

// Shutdown of a started, idle mesh wakes every transport thread at once,
// so a worker exits -- and its launcher reaps it -- promptly. Nine
// shutdowns over three meshes keep a thread that only notices shutdown
// on a periodic poll from passing by luck.
TEST(TcpTransportTest, IdleMeshesShutDownPromptly) {
  for (int mesh = 0; mesh < 3; ++mesh) {
    SCOPED_TRACE("mesh " + std::to_string(mesh));
    CoordinatorConfig config;
    config.world_size = 3;
    config.config_blob = "idle";
    config.steal_period_sec = 0.0;
    auto coordinator = Coordinator::Listen(std::move(config));
    ASSERT_TRUE(coordinator.ok());
    const uint16_t port = (*coordinator)->port();

    std::vector<std::unique_ptr<TcpTransport>> transports(3);
    std::vector<std::thread> threads;
    for (int i = 0; i < 3; ++i) {
      threads.emplace_back([&transports, port, i] {
        auto t = TcpTransport::ConnectWorker("127.0.0.1", port);
        ASSERT_TRUE(t.ok()) << t.status().ToString();
        t.value()->SetDataHandler([](int, uint8_t, std::string, uint64_t) {});
        t.value()->SetControlHooks({});
        ASSERT_TRUE(t.value()->Start().ok());
        transports[i] = std::move(t).value();
      });
    }
    ASSERT_TRUE((*coordinator)->RunHandshake().ok());
    for (auto& th : threads) th.join();
    for (auto& t : transports) {
      ASSERT_NE(t, nullptr);
      WallTimer shutdown;
      t->Shutdown();
      EXPECT_LT(shutdown.Seconds(), 0.1);
    }
    (*coordinator)->Close();
  }
}

TEST(TcpTransportTest, CoordinatorIssuesStealCommandsTowardTheAverage) {
  CoordinatorConfig config;
  config.world_size = 2;
  config.config_blob = "x";
  config.steal_period_sec = 0.002;
  config.steal_batch_cap = 4;
  auto coordinator = Coordinator::Listen(std::move(config));
  ASSERT_TRUE(coordinator.ok());
  const uint16_t port = (*coordinator)->port();

  struct WorkerState {
    std::unique_ptr<TcpTransport> transport;
    std::atomic<bool> terminated{false};
    std::atomic<int> steal_receiver{-1};
    std::atomic<uint64_t> steal_want{0};
  };
  std::vector<WorkerState> states(2);

  auto worker_main = [&](int i) {
    auto t = TcpTransport::ConnectWorker("127.0.0.1", port);
    ASSERT_TRUE(t.ok());
    states[i].transport = std::move(t).value();
    TcpTransport* tr = states[i].transport.get();
    tr->SetDataHandler([](int, uint8_t, std::string, uint64_t) {});
    Transport::ControlHooks hooks;
    hooks.on_terminate = [&states, i] { states[i].terminated = true; };
    hooks.on_steal_command = [&states, i](int receiver, uint64_t want) {
      states[i].steal_receiver = receiver;
      states[i].steal_want = want;
    };
    tr->SetControlHooks(std::move(hooks));
    ASSERT_TRUE(tr->Start().ok());

    const bool donor = tr->rank() == 0;
    while (!states[i].terminated.load()) {
      RankStatus status;
      // Rank 0 pretends to drown in big tasks until it has been told to
      // shed them; rank 1 is starved. Once the command arrives both go
      // quiescent so the run can end.
      const bool commanded = states[i].steal_receiver.load() >= 0;
      const bool busy = donor && !commanded;
      status.pending = busy ? 10 : 0;
      status.spawn_done = true;
      status.pending_big = busy ? 10 : 0;
      tr->PublishStatus(status);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ASSERT_TRUE(tr->SendReport("r").ok());
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) threads.emplace_back(worker_main, i);
  ASSERT_TRUE((*coordinator)->RunHandshake().ok());
  auto reports = (*coordinator)->RunToCompletion();
  for (auto& th : threads) th.join();
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  EXPECT_GE((*coordinator)->steal_commands_issued(), 1u);

  // The donor (rank 0) was told to ship at most one batch to rank 1.
  for (auto& s : states) {
    if (s.transport->rank() == 0) {
      EXPECT_EQ(s.steal_receiver.load(), 1);
      EXPECT_GE(s.steal_want.load(), 1u);
      EXPECT_LE(s.steal_want.load(), 4u);
    }
    s.transport->Shutdown();
  }
  (*coordinator)->Close();
}

// Two-rank coalescing harness: rank 0 sends `num_messages` small fabric
// messages to rank 1 under `coalesce`, both ranks run the status loop to
// real distributed termination, and the caller gets rank 0's flush stats
// plus rank 1's received payloads (arrival order) and the largest
// receiver-measured wire transit.
struct CoalesceRunResult {
  TransportFlushStats sender_stats;
  std::vector<std::string> received;
  uint64_t max_transit_usec = 0;
};

void RunTwoRankCoalescedSend(const CoalesceConfig& coalesce,
                             int num_messages, CoalesceRunResult* out) {
  CoordinatorConfig config;
  config.world_size = 2;
  config.config_blob = "x";
  config.steal_period_sec = 0.0;
  auto coordinator = Coordinator::Listen(std::move(config));
  ASSERT_TRUE(coordinator.ok());
  const uint16_t port = (*coordinator)->port();

  struct WorkerState {
    std::unique_ptr<TcpTransport> transport;
    std::mutex mu;
    std::vector<std::string> received;
    std::atomic<uint64_t> max_transit{0};
    std::atomic<bool> terminated{false};
  };
  std::vector<WorkerState> states(2);

  auto worker_main = [&](int i) {
    auto t = TcpTransport::ConnectWorker("127.0.0.1", port);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    states[i].transport = std::move(t).value();
    TcpTransport* tr = states[i].transport.get();
    tr->SetDataHandler([&states, i](int, uint8_t, std::string payload,
                                    uint64_t transit) {
      std::lock_guard<std::mutex> lock(states[i].mu);
      states[i].received.push_back(std::move(payload));
      uint64_t seen = states[i].max_transit.load();
      while (seen < transit &&
             !states[i].max_transit.compare_exchange_weak(seen, transit)) {
      }
    });
    Transport::ControlHooks hooks;
    hooks.on_terminate = [&states, i] { states[i].terminated = true; };
    tr->SetControlHooks(std::move(hooks));
    tr->ConfigureCoalescing(coalesce);
    ASSERT_TRUE(tr->Start().ok());

    if (tr->rank() == 0) {
      for (int k = 0; k < num_messages; ++k) {
        ASSERT_TRUE(tr->SendData(1, 1, "m" + std::to_string(k)).ok());
      }
    }
    while (!states[i].terminated.load()) {
      RankStatus status;
      status.pending = 0;
      status.spawn_done = true;
      // Two-rank mesh: everything this rank processed came from the
      // only other rank.
      status.processed_from.assign(2, 0);
      {
        std::lock_guard<std::mutex> lock(states[i].mu);
        status.processed_from[1 - tr->rank()] =
            states[i].received.size();
      }
      status.pending_big = 0;
      tr->PublishStatus(status);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ASSERT_TRUE(tr->SendReport("r").ok());
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) threads.emplace_back(worker_main, i);
  ASSERT_TRUE((*coordinator)->RunHandshake().ok());
  auto reports = (*coordinator)->RunToCompletion();
  for (auto& th : threads) th.join();
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();

  for (auto& s : states) {
    ASSERT_TRUE(s.transport != nullptr);
    EXPECT_FALSE(s.transport->failed());
    if (s.transport->rank() == 0) {
      out->sender_stats = s.transport->FlushStats();
    } else {
      std::lock_guard<std::mutex> lock(s.mu);
      out->received = s.received;
      out->max_transit_usec = s.max_transit.load();
    }
    s.transport->Shutdown();
  }
  (*coordinator)->Close();
}

// N small sends aggregate into ONE syscall-visible flush: each "mK" frame
// is 32 wire bytes (22-byte head incl. the data meta, 2-byte body, 8-byte
// checksum), so a 100-byte threshold holds 3 frames and the 4th send
// crosses it -- one writev carries all four.
TEST(TcpTransportTest, CoalescingAggregatesSmallSendsIntoOneFlush) {
  CoalesceRunResult result;
  // Half-second linger: only the size trigger can plausibly fire.
  RunTwoRankCoalescedSend({/*coalesce_bytes=*/100,
                           /*linger_usec=*/500000},
                          /*num_messages=*/4, &result);
  EXPECT_EQ(result.sender_stats.flushes, 1u);
  EXPECT_EQ(result.sender_stats.flushed_frames, 4u);
  EXPECT_EQ(result.sender_stats.flushed_bytes, 4u * 32u);
  EXPECT_EQ(result.sender_stats.flush_size, 1u);
  EXPECT_EQ(result.sender_stats.flush_linger, 0u);
  EXPECT_EQ(result.sender_stats.flush_direct, 0u);
  // All four frames arrived intact, in send order.
  ASSERT_EQ(result.received.size(), 4u);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(result.received[k], "m" + std::to_string(k));
  }
}

// With an uncrossable size threshold, the background flusher pushes the
// parked frames out once the linger expires -- and the receiver-measured
// wire transit (sender stamp to receive thread) sees the dwell the
// on-arrival restamping used to hide.
TEST(TcpTransportTest, LingerExpiryFlushesParkedFrames) {
  CoalesceRunResult result;
  RunTwoRankCoalescedSend({/*coalesce_bytes=*/1 << 20,
                           /*linger_usec=*/2000},
                          /*num_messages=*/3, &result);
  EXPECT_EQ(result.sender_stats.flushes, 1u);
  EXPECT_EQ(result.sender_stats.flushed_frames, 3u);
  EXPECT_EQ(result.sender_stats.flush_linger, 1u);
  EXPECT_EQ(result.sender_stats.flush_size, 0u);
  ASSERT_EQ(result.received.size(), 3u);
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(result.received[k], "m" + std::to_string(k));
  }
  // The first frame waited out the full linger before flushing, so its
  // transit must show roughly that dwell (margin for NowMicros
  // truncation).
  EXPECT_GE(result.max_transit_usec, 1900u);
  EXPECT_GE(result.sender_stats.park_usec_sum, 1900u);
}

// The §5 parity claim: three TcpTransport-backed engines, each serving
// its own partition, under the coordinator, mine the serial miner's
// maximal set.
TEST(DistributedEngineTest, ThreeRanksBitIdenticalToSerialMiner) {
  auto spec = ParsePlantedSpec("n=900,communities=4,size=9..12,density=0.95",
                               7);
  ASSERT_TRUE(spec.ok());
  auto graph = GenPlantedCommunities(spec.value());
  ASSERT_TRUE(graph.ok());

  EngineConfig config;
  config.num_machines = 3;
  config.threads_per_machine = 2;
  config.mining.gamma = 0.85;
  config.mining.min_size = 7;
  // Small caches + small pull batches force real cross-rank traffic.
  config.vertex_cache_capacity = 256;
  config.max_pull_batch = 64;
  config.steal_period_sec = 0.002;

  std::vector<VertexSet> expected;
  {
    VectorSink sink;
    auto report = SerialMiner(config.mining).Run(*graph, &sink);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    expected = FilterMaximal(std::move(sink.results()));
  }
  ASSERT_FALSE(expected.empty());
  CanonicalizeResults(&expected);

  // Runs the cluster with `run_config`; returns the merged report, whose
  // raw candidates are postprocessed once into `out_results`.
  auto run_cluster = [&graph](const EngineConfig& run_config,
                              std::vector<VertexSet>* out_results) {
    QCApp app(run_config);
    auto merged = RunLocalCluster(*graph, run_config, &app);
    EXPECT_TRUE(merged.ok()) << merged.status().ToString();
    if (!merged.ok()) return EngineReport{};
    *out_results = FilterMaximal(std::move(merged->results));
    CanonicalizeResults(out_results);
    return std::move(merged).value();
  };

  std::vector<VertexSet> actual;
  EngineReport merged = run_cluster(config, &actual);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(ResultSetDigest(actual), ResultSetDigest(expected));

  // The run must have moved real vertex traffic between the ranks (every
  // rank reads only a third of the adjacency). Without coalescing every
  // data frame flushed directly.
  EXPECT_GT(merged.counters.pulled_vertices, 0u);
  EXPECT_GT(merged.counters.msg_sent[0], 0u);  // pull requests
  EXPECT_GT(merged.counters.net_flush_direct, 0u);
  EXPECT_EQ(merged.counters.net_flush_size, 0u);
  EXPECT_EQ(merged.counters.net_flush_linger, 0u);

  // Same run with send coalescing on: the result digest must not move,
  // and the merged report must show aggregated flushes.
  EngineConfig coalesced = config;
  coalesced.net_coalesce_bytes = 1400;
  coalesced.net_linger_usec = 100;
  std::vector<VertexSet> actual_coalesced;
  EngineReport merged_coalesced = run_cluster(coalesced, &actual_coalesced);
  EXPECT_EQ(actual_coalesced, expected);
  EXPECT_EQ(ResultSetDigest(actual_coalesced), ResultSetDigest(expected));
  EXPECT_GT(merged_coalesced.counters.net_flushes, 0u);
  EXPECT_GT(merged_coalesced.counters.net_flush_frames, 0u);
  EXPECT_GE(merged_coalesced.counters.net_flush_frames,
            merged_coalesced.counters.net_flushes);
  EXPECT_EQ(merged_coalesced.counters.net_flush_direct, 0u);
}

}  // namespace
}  // namespace qcm
