// Transport/coordinator integration tests, run entirely in-process so the
// sanitizer configs see every thread: the rank-assignment handshake, the
// data-plane mesh, prompt shutdown, steal commands, status-stream
// liveness, admission failures, distributed termination detection with
// report collection, and -- the core §5 parity claim -- a full 3-rank
// cluster run through the in-process launcher (three TcpTransport-backed
// engines, real loopback sockets between them) whose merged maximal
// result set is bit-identical to the serial miner's, with every fabric
// message sent as one data frame.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "mining/qc_app.h"
#include "net/coordinator.h"
#include "net/job_spec.h"
#include "net/local_cluster.h"
#include "net/socket_util.h"
#include "net/tcp_transport.h"
#include "quick/maximality_filter.h"
#include "quick/serial_miner.h"
#include "util/serde.h"
#include "util/timer.h"
#include "util/trace.h"

namespace qcm {
namespace {

/// A coordinator launch callback that runs `worker_main(rank)` on a new
/// thread of `threads`, which the test joins.
std::function<Status(int, uint32_t)> LaunchOnThread(
    std::vector<std::thread>* threads, std::function<void(int)> worker_main) {
  return [threads, worker_main = std::move(worker_main)](int rank, uint32_t) {
    threads->emplace_back(worker_main, rank);
    return Status::OK();
  };
}

/// Turns tracing on for one test and drops every ring after it.
struct ScopedTracing {
  ScopedTracing() {
    trace::ResetForTest();
    trace::Start(/*ring_kb=*/1024);
  }
  ~ScopedTracing() { trace::ResetForTest(); }
};

/// The values of the counter records named `name` on process `pid`'s
/// track (tid 0) in drained trace lines, in record order.
std::vector<uint64_t> CounterValues(const std::string& json,
                                    const std::string& name, int pid) {
  const std::string head = "{\"name\":\"" + name + "\",\"cat\":\"stats\",";
  const std::string track = ",\"pid\":" + std::to_string(pid) +
                            ",\"tid\":0,\"ph\":\"C\",\"args\":{\"value\":";
  std::vector<uint64_t> values;
  std::istringstream lines(json);
  for (std::string line; std::getline(lines, line);) {
    const size_t at = line.find(track);
    if (line.rfind(head, 0) == 0 && at != std::string::npos) {
      values.push_back(std::stoull(line.substr(at + track.size())));
    }
  }
  return values;
}

/// The telemetry rank `rank` publishes: a value of its own in every gauge.
RankStatus GaugeStatus(int rank) {
  RankStatus status;
  status.pending_big = 10 * rank + 1;
  status.inflight_bytes = 10 * rank + 2;
  status.busy_compers = rank + 1;
  status.tasks_completed = 10 * rank + 4;
  status.cache_hits = 10 * rank + 5;
  status.cache_misses = 10 * rank + 6;
  return status;
}

// Traced, so each telemetry sample must leave one counter record per
// gauge on each rank's track, with the values that rank published.
TEST(TcpTransportTest, HandshakeMeshAndDataDelivery) {
  const ScopedTracing tracing;
  CoordinatorConfig config;
  config.world_size = 3;
  config.config_blob = "opaque-config";
  config.steal_period_sec = 0.0;
  // Called on the RunToCompletion thread, this one.
  std::vector<std::vector<RankStatus>> samples;
  config.sample_period_sec = 0.001;
  config.on_sample = [&samples](uint64_t,
                                const std::vector<RankStatus>& statuses) {
    samples.push_back(statuses);
  };

  struct WorkerState {
    std::unique_ptr<TcpTransport> transport;
    std::mutex mu;
    std::vector<std::string> received;  // "src:type:payload"
    std::atomic<bool> terminated{false};
  };
  std::vector<WorkerState> states(3);
  uint16_t port = 0;

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
      RankStatus status = GaugeStatus(rank);
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
      tr->PublishStatus(status);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ASSERT_TRUE(tr->SendReport("report-" + std::to_string(rank)).ok());
  };

  std::vector<std::thread> threads;
  config.launch = LaunchOnThread(&threads, worker_main);
  auto coordinator = Coordinator::Listen(std::move(config));
  ASSERT_TRUE(coordinator.ok());
  port = (*coordinator)->port();
  ASSERT_TRUE((*coordinator)->RunHandshake().ok());
  auto reports = (*coordinator)->RunToCompletion();
  for (auto& th : threads) th.join();
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();

  // The sweep sampled the ranks' published statuses, first as soon as
  // every rank had reported, so even this short run has a sample.
  ASSERT_FALSE(samples.empty());
  for (const std::vector<RankStatus>& sample : samples) {
    ASSERT_EQ(sample.size(), 3u);
    for (int r = 0; r < 3; ++r) {
      EXPECT_TRUE(sample[r].spawn_done);
      EXPECT_EQ(sample[r].busy_compers, static_cast<uint32_t>(r + 1));
    }
  }
  // The coordinator recorded each of those samples on the rank tracks,
  // and no ring dropped a record.
  const std::string json = trace::DrainJsonLines(/*pid=*/3);
  EXPECT_EQ(json.find("trace_dropped_records"), std::string::npos);
  for (int r = 0; r < 3; ++r) {
    const RankStatus want = GaugeStatus(r);
    const std::pair<const char*, uint64_t> gauges[] = {
        {"queue_depth", want.pending_big},
        {"inflight_bytes", want.inflight_bytes},
        {"busy_compers", want.busy_compers},
        {"tasks_completed", want.tasks_completed},
        {"cache_hits", want.cache_hits},
        {"cache_misses", want.cache_misses},
        {"pending_tasks", 0}};
    for (const auto& [name, value] : gauges) {
      EXPECT_EQ(CounterValues(json, name, r),
                std::vector<uint64_t>(samples.size(), value))
          << name << " on rank " << r << "'s track";
    }
  }

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
    std::vector<std::unique_ptr<TcpTransport>> transports(3);
    uint16_t port = 0;
    std::vector<std::thread> threads;
    config.launch = LaunchOnThread(&threads, [&transports, &port](int i) {
      auto t = TcpTransport::ConnectWorker("127.0.0.1", port);
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      t.value()->SetDataHandler([](int, uint8_t, std::string, uint64_t) {});
      t.value()->SetControlHooks({});
      ASSERT_TRUE(t.value()->Start().ok());
      transports[i] = std::move(t).value();
    });
    auto coordinator = Coordinator::Listen(std::move(config));
    ASSERT_TRUE(coordinator.ok());
    port = (*coordinator)->port();
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
  const ScopedTracing tracing;
  CoordinatorConfig config;
  config.world_size = 2;
  config.config_blob = "x";
  config.steal_period_sec = 0.002;
  config.steal_batch_cap = 4;
  // sample_period_sec stays 0, which disables sampling, traced or not.
  int samples = 0;
  config.on_sample = [&samples](uint64_t, const std::vector<RankStatus>&) {
    ++samples;
  };

  struct WorkerState {
    std::unique_ptr<TcpTransport> transport;
    std::atomic<bool> terminated{false};
    std::atomic<int> steal_receiver{-1};
    std::atomic<uint64_t> steal_want{0};
  };
  std::vector<WorkerState> states(2);
  uint16_t port = 0;

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
  config.launch = LaunchOnThread(&threads, worker_main);
  auto coordinator = Coordinator::Listen(std::move(config));
  ASSERT_TRUE(coordinator.ok());
  port = (*coordinator)->port();
  ASSERT_TRUE((*coordinator)->RunHandshake().ok());
  auto reports = (*coordinator)->RunToCompletion();
  for (auto& th : threads) th.join();
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  EXPECT_GE((*coordinator)->steal_commands_issued(), 1u);
  EXPECT_EQ(samples, 0);
  EXPECT_EQ(trace::DrainJsonLines(/*pid=*/2).find("\"ph\":\"C\""),
            std::string::npos)
      << "a counter record without sampling";

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

// The status stream is a rank's liveness signal: with no disconnect and
// no launcher watchdog, a rank that stops publishing is declared dead
// once its deadline passes. Ranks 0 and 1 publish every
// millisecond; rank 2 publishes nothing after Start. Without recovery
// callbacks the death fails the run, naming rank 2 and how it was
// detected, and never a rank that kept talking.
TEST(TcpTransportTest, SilentRankIsDeclaredDeadFromStatusesAlone) {
  CoordinatorConfig config;
  config.world_size = 3;
  config.config_blob = "silent";
  config.steal_period_sec = 0.0;
  config.status_deadline_sec = 1.0;
  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<TcpTransport>> transports(3);
  uint16_t port = 0;
  std::vector<std::thread> threads;
  config.launch =
      LaunchOnThread(&threads, [&transports, &stop, &port](int i) {
        auto t = TcpTransport::ConnectWorker("127.0.0.1", port);
        ASSERT_TRUE(t.ok()) << t.status().ToString();
        transports[i] = std::move(t).value();
        TcpTransport* tr = transports[i].get();
        tr->SetDataHandler([](int, uint8_t, std::string, uint64_t) {});
        tr->SetControlHooks({});
        ASSERT_TRUE(tr->Start().ok());
        if (tr->rank() == 2) return;
        while (!stop.load()) {
          tr->PublishStatus(RankStatus{});
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
  auto coordinator = Coordinator::Listen(std::move(config));
  ASSERT_TRUE(coordinator.ok());
  port = (*coordinator)->port();
  ASSERT_TRUE((*coordinator)->RunHandshake().ok());
  auto reports = (*coordinator)->RunToCompletion();
  stop = true;
  for (auto& th : threads) th.join();
  ASSERT_FALSE(reports.ok());
  const std::string why = reports.status().ToString();
  EXPECT_NE(why.find("rank 2 died (status-timeout)"), std::string::npos)
      << why;
  EXPECT_EQ(why.find("rank 0"), std::string::npos) << why;
  EXPECT_EQ(why.find("rank 1"), std::string::npos) << why;
  for (auto& t : transports) t->Shutdown();
  (*coordinator)->Close();
}

// Runs a one-rank job's handshake against a raw socket, launched as rank
// 0, that connects and sends `frame`, or against no worker at all.
Status HandshakeWithRawWorker(std::optional<Frame> frame, double timeout_sec) {
  CoordinatorConfig config;
  config.world_size = 1;
  config.timeout_sec = timeout_sec;
  uint16_t port = 0;
  int fd = -1;
  config.launch = [&](int, uint32_t) -> Status {
    if (!frame) return Status::OK();  // a worker that never connects
    auto connected = ConnectTcp("127.0.0.1", port);
    QCM_RETURN_IF_ERROR(connected.status());
    fd = connected.value();
    return WriteFrame(fd, *frame);
  };
  auto coordinator = Coordinator::Listen(std::move(config));
  if (!coordinator.ok()) return coordinator.status();
  port = (*coordinator)->port();
  Status s = (*coordinator)->RunHandshake();
  CloseSocket(fd);
  (*coordinator)->Close();
  return s;
}

// Admission failures: a worker on another protocol version, a worker
// whose first frame is not its hello, and a worker that never connects
// each fail the handshake with a message that says which.
TEST(TcpTransportTest, AdmissionRejectsWrongVersionWrongFrameAndNoShow) {
  Encoder hello;
  hello.PutU32(kWireProtocolVersion + 1);
  hello.PutU32(40001);  // a listener port
  Status s = HandshakeWithRawWorker(
      Frame{FrameKind::kHello, kUnassignedRank, hello.Release()}, 5.0);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.ToString().find(
                "worker speaks wire protocol v" +
                std::to_string(kWireProtocolVersion + 1) +
                ", coordinator expects v" +
                std::to_string(kWireProtocolVersion)),
            std::string::npos)
      << s.ToString();

  s = HandshakeWithRawWorker(Frame{FrameKind::kReady, kUnassignedRank, {}},
                             5.0);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.ToString().find("expected hello, got ready"), std::string::npos)
      << s.ToString();

  WallTimer waited;
  s = HandshakeWithRawWorker(std::nullopt, 0.3);
  EXPECT_EQ(s.code(), StatusCode::kIOError) << s.ToString();
  EXPECT_NE(s.ToString().find("rank 0"), std::string::npos) << s.ToString();
  EXPECT_GE(waited.Seconds(), 0.3);
  EXPECT_LT(waited.Seconds(), 10.0);
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

  QCApp app(config);
  auto merged = RunLocalCluster(*graph, config, &app);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  std::vector<VertexSet> actual = FilterMaximal(std::move(merged->results));
  CanonicalizeResults(&actual);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(ResultSetDigest(actual), ResultSetDigest(expected));

  // The run must have moved real vertex traffic between the ranks (every
  // rank reads only a third of the adjacency), and every fabric message
  // left as exactly one data frame, in at least one write of its own.
  const EngineCountersSnapshot& c = merged->counters;
  EXPECT_GT(c.pulled_vertices, 0u);
  EXPECT_GT(c.msg_sent[0], 0u);  // pull requests
  EXPECT_EQ(c.net_flush_frames, c.MessagesSent());
  EXPECT_GE(c.net_flushes, c.net_flush_frames);
}

}  // namespace
}  // namespace qcm
