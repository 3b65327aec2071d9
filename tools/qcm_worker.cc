// qcm_worker: one machine of a real multi-process mining cluster.
//
// Spawned by qcm_cluster (one process per machine), it connects to the
// coordinator, receives its rank and the job spec over the wire
// handshake, mmaps the launcher-packed .qcsr snapshot the spec names,
// serves ONLY its own hash partition's adjacency from it (degree metadata
// is replicated) through its VertexTable, and runs the G-thinker engine
// over the TCP-backed CommFabric: vertex pulls and stolen big-task
// batches cross process boundaries as length-prefixed kData frames (the
// same stack qcm_mine runs with threads, net/local_cluster.h), and a peer's
// vertex pull is answered by this process's pull-responder thread while
// its compers keep mining. Termination arrives from the coordinator's
// distributed detection; the final EngineReport and raw candidate results
// ship back as the kReport payload.
//
// Usage (qcm_cluster spawns it this way):
//   qcm_worker --coordinator-port P [--coordinator-host H]
//
// Everything else arrives in the job spec: the worker has no engine
// flags of its own. Its log level comes from QCM_LOG_LEVEL, inherited
// from the launcher, and its EngineReport reaches the user through
// qcm_cluster --stats-json, which embeds every rank's report.
//
// QCM_SMOKE_KILL_RANK=<r> (inherited from the launcher, see qcm_cluster)
// makes rank r's first incarnation park the comper of its first compute
// round until the launcher's SIGKILL lands (its pull responder keeps
// answering peers meanwhile).
//
// Exit status: 0 only for a clean run (connected, mined, reported);
// anything else is a loud failure the launcher must surface.

#ifdef __linux__
#include <sys/prctl.h>
#include <unistd.h>
#endif

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "graph/csr_snapshot.h"
#include "gthinker/engine.h"
#include "mining/qc_app.h"
#include "net/job_spec.h"
#include "net/tcp_transport.h"
#include "tools/cli.h"
#include "util/logging.h"
#include "util/mem.h"
#include "util/output.h"
#include "util/serde.h"
#include "util/timer.h"
#include "util/trace.h"

namespace {

using namespace qcm;

/// The fault-injection victim's app: the first compute round never
/// returns, so the rank holds pending work -- and can never report
/// quiescence -- until the launcher, which sees pending > 0 in this rank's
/// kStatus stream, SIGKILLs the process.
class StallFirstComputeApp : public QCApp {
 public:
  using QCApp::QCApp;

  ComputeStatus Compute(Task& task, ComputeContext& ctx) override {
    if (!stalled_.exchange(true)) {
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    }
    return QCApp::Compute(task, ctx);
  }

 private:
  std::atomic<bool> stalled_{false};
};

int Fail(TcpTransport* transport, const std::string& message) {
  std::fprintf(stderr, "qcm_worker: %s\n", message.c_str());
  if (transport != nullptr) transport->SendAbort(message);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef __linux__
  // Never outlive the launcher: if qcm_cluster dies (crash, ^C, CI
  // timeout kill), the kernel SIGKILLs this worker instead of leaving an
  // orphan mining forever. The getppid check closes the race where the
  // parent died between our fork and this prctl (we were already
  // reparented, so the death signal would never fire).
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() == 1) {
    std::fprintf(stderr, "qcm_worker: launcher already gone, exiting\n");
    return 1;
  }
#endif
  std::string host = "127.0.0.1";
  int port = 0;
  cli::CommandLine cmd(
      "One machine of a qcm_cluster run: connects to the coordinator, "
      "receives its rank and the job spec, and mines its partition.",
      {cli::Number("--coordinator-port", "P", &port,
                   "the launcher's coordinator port (required)"),
       cli::Text("--coordinator-host", "H", &host,
                 "the launcher's coordinator host")});
  cmd.ParseOrExit(argc, argv);
  if (port <= 0 || port > 65535) {
    cmd.Fail("--coordinator-port in [1, 65535] is required");
  }

  // Handshake: rank assignment + job spec + peer mesh.
  auto connected =
      TcpTransport::ConnectWorker(host, static_cast<uint16_t>(port));
  if (!connected.ok()) {
    return Fail(nullptr,
                "cluster handshake failed: " +
                    connected.status().ToString());
  }
  std::unique_ptr<TcpTransport> transport = std::move(connected).value();
  const int rank = transport->rank();

  EngineConfig config;
  {
    Status s = DecodeJobSpec(transport->config_blob(), &config);
    if (!s.ok()) {
      return Fail(transport.get(), "bad job spec: " + s.ToString());
    }
  }
  if (config.num_machines != transport->world_size()) {
    return Fail(transport.get(), "job spec world size mismatch");
  }
  SetLogContext(rank, transport->epoch());
  // Tracing rides the job spec: every rank writes its own fragment file
  // beside the launcher's --trace-out path; qcm_cluster merges them into
  // one timeline after the run.
  const std::string trace_fragment =
      config.trace_out.empty() ? ""
                               : trace::FragmentPath(config.trace_out, rank);
  if (!trace_fragment.empty()) {
    trace::Start(trace::kRingKb);
    trace::SetThreadName("worker_main");
  }

  // Graph load: mmap the launcher-packed .qcsr snapshot (metadata
  // checksums verified; adjacency is read on demand, under a budget one
  // list at a time with pread) -- startup never materializes the full
  // graph in this process.
  WallTimer graph_timer;
  auto snap = CsrSnapshot::Open(config.graph_snapshot);
  if (!snap.ok()) {
    return Fail(transport.get(),
                "snapshot open failed: " + snap.status().ToString());
  }
  auto table = std::make_unique<VertexTable>(
      std::move(snap).value(), transport->world_size(), rank,
      static_cast<uint64_t>(config.graph_memory_budget));
  const std::string budget =
      config.graph_memory_budget > 0
          ? ", adjacency budget " +
                HumanBytes(static_cast<uint64_t>(config.graph_memory_budget))
          : "";
  std::fprintf(
      stderr,
      "qcm_worker rank %d/%d epoch %u: snapshot %s, %u vertices total, "
      "%zu owned, mapped %s vs resident %s%s%s\n",
      rank, transport->world_size(), transport->epoch(),
      config.graph_snapshot.c_str(), table->NumVertices(),
      table->OwnedVertices().size(),
      HumanBytes(table->snapshot()->MappedBytes()).c_str(),
      HumanBytes(CurrentRssBytes()).c_str(), budget.c_str(),
      transport->epoch() > 0 ? " (replacement; replaying checkpoint)" : "");
  std::fprintf(stderr, "qcm_worker rank %d: graph ready in %.3f s\n", rank,
               graph_timer.Seconds());

  const char* kill_rank_env = std::getenv("QCM_SMOKE_KILL_RANK");
  int kill_rank = -1;
  const bool fault_victim =
      kill_rank_env != nullptr && ParseNumber(kill_rank_env, &kill_rank).ok() &&
      kill_rank == rank && transport->epoch() == 0;
  std::unique_ptr<QCApp> app =
      fault_victim ? std::make_unique<StallFirstComputeApp>(config)
                   : std::make_unique<QCApp>(config);
  Engine engine(std::move(table), config, app.get(), transport.get());
  auto report = engine.Run();
  if (!report.ok()) {
    return Fail(transport.get(),
                "engine failed: " + report.status().ToString());
  }

  // Ship the report + raw candidates to the coordinator for merging.
  {
    Encoder enc;
    EncodeEngineReport(report.value(), &enc);
    Status s = transport->SendReport(enc.Release());
    if (!s.ok()) {
      return Fail(transport.get(),
                  "report send failed: " + s.ToString());
    }
  }

  if (!trace_fragment.empty()) {
    Status ts = WriteOutput(trace_fragment, trace::DrainJsonLines(rank));
    if (!ts.ok()) {
      std::fprintf(stderr, "qcm_worker rank %d: trace fragment failed: %s\n",
                   rank, ts.ToString().c_str());
    }
  }

  std::fprintf(stderr,
               "qcm_worker rank %d: done, %zu raw candidates, "
               "%llu tasks completed\n",
               rank, report->results.size(),
               static_cast<unsigned long long>(
                   report->counters.tasks_completed));
  const bool ok = transport->terminated() && !transport->failed();
  if (!ok) {
    std::fprintf(stderr, "qcm_worker rank %d: transport failure: %s\n",
                 rank, transport->failure().c_str());
  }
  transport->Shutdown();
  return ok ? 0 : 1;
}
