#include "net/local_cluster.h"

#include <unistd.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gthinker/engine.h"
#include "net/tcp_transport.h"
#include "util/mem.h"

namespace qcm {

CoordinatorConfig CoordinatorConfigFor(const EngineConfig& config) {
  CoordinatorConfig c;
  c.world_size = config.num_machines;
  c.steal_period_sec =
      config.num_machines >= 2 ? config.steal_period_sec : 0.0;
  c.steal_batch_cap = config.batch_size;
  c.sample_period_sec = 1e-3 * static_cast<double>(config.stats_interval_ms);
  return c;
}

namespace {

/// One rank's thread, started by the coordinator's launch callback: joins
/// the cluster, mines the rank's partition of `graph`, and stores its
/// report in (*reports)[rank]. A failure aborts the run at once, while
/// this rank's connections are still open, so the coordinator reports it
/// instead of waiting the connections out.
Status RunRank(const Graph& graph, const EngineConfig& config, App* app,
               Coordinator* coordinator, std::vector<EngineReport>* reports) {
  auto connected =
      TcpTransport::ConnectWorker("127.0.0.1", coordinator->port());
  if (!connected.ok()) {
    coordinator->Abort(connected.status().ToString());
    return connected.status();
  }
  std::unique_ptr<TcpTransport> transport = std::move(connected).value();
  const int rank = transport->rank();
  Engine engine(std::make_unique<VertexTable>(&graph, config.num_machines,
                                              rank),
                config, app, transport.get());
  StatusOr<EngineReport> report = engine.Run();
  // The report stays in this process: the coordinator only waits for a
  // kReport from every rank.
  Status status = report.ok() ? transport->SendReport({}) : report.status();
  if (!status.ok()) coordinator->Abort(status.ToString());
  // Join the receive threads while the engine their handlers call lives.
  transport->Shutdown();
  if (status.ok()) (*reports)[rank] = std::move(report).value();
  return status;
}

}  // namespace

StatusOr<EngineReport> RunLocalCluster(const Graph& graph,
                                       const EngineConfig& config, App* app) {
  QCM_RETURN_IF_ERROR(config.Validate());
  const int world = config.num_machines;

  // One spill directory per process; the ranks' files are prefixed
  // w<rank>_.
  EngineConfig rank_config = config;
  std::string owned_spill_dir;
  if (rank_config.spill_dir.empty()) {
    char templ[] = "/tmp/qcm_spill_XXXXXX";
    if (::mkdtemp(templ) == nullptr) {
      return Status::IOError("cannot create spill directory");
    }
    owned_spill_dir = templ;
    rank_config.spill_dir = owned_spill_dir;
  }
  auto remove_spill_dir = [&owned_spill_dir] {
    if (!owned_spill_dir.empty()) ::rmdir(owned_spill_dir.c_str());
  };

  std::vector<EngineReport> reports(world);
  std::vector<Status> failures(world);
  std::vector<std::thread> ranks;
  std::unique_ptr<Coordinator> coordinator;
  CoordinatorConfig coord_config = CoordinatorConfigFor(config);
  coord_config.status_deadline_sec = 0.0;  // the ranks live and die together
  // Each rank is launched once, by the handshake: no kill callback, so no
  // replacement.
  coord_config.launch = [&](int rank, uint32_t) {
    ranks.emplace_back([&, rank] {
      failures[rank] =
          RunRank(graph, rank_config, app, coordinator.get(), &reports);
    });
    return Status::OK();
  };
  auto listening = Coordinator::Listen(std::move(coord_config));
  if (!listening.ok()) {
    remove_spill_dir();
    return listening.status();
  }
  coordinator = std::move(listening).value();

  Status run = coordinator->RunHandshake();
  if (run.ok()) run = coordinator->RunToCompletion().status();
  coordinator->Close();
  for (std::thread& t : ranks) t.join();
  remove_spill_dir();
  QCM_RETURN_IF_ERROR(run);
  for (const Status& s : failures) QCM_RETURN_IF_ERROR(s);

  EngineReport merged = MergeEngineReports(std::move(reports));
  merged.peak_rss_bytes = PeakRssBytes();
  return merged;
}

}  // namespace qcm
