// The in-process launcher of the cluster deployment: `--machines N` runs
// N single-machine Engines as threads of this process, each over its own
// TcpTransport on loopback, under the real Coordinator -- qcm_cluster's
// stack without fork/exec (qcm_mine, ParallelMiner, the engine tests and
// examples). The coordinator launches each rank's thread as it admits
// that rank, the same launch path qcm_cluster forks its workers through.
// Every rank serves its partition of one shared, resident Graph, and every
// rank's spill files live in one directory of the process.
//
// Differences from the process launcher, all because the ranks share a
// process: there is no status deadline (a rank cannot die alone), each
// rank's EngineReport stays in memory (the kReport frame it sends is
// empty), and the merged report's peak RSS is the process's own.

#ifndef QCM_NET_LOCAL_CLUSTER_H_
#define QCM_NET_LOCAL_CLUSTER_H_

#include "gthinker/engine_config.h"
#include "gthinker/metrics.h"
#include "gthinker/task.h"
#include "graph/graph.h"
#include "net/coordinator.h"
#include "util/status.h"

namespace qcm {

/// The coordinator settings `config` implies, shared by both launchers:
/// world size, the steal master's period (0 when there is one machine)
/// and batch policy, and the telemetry sample period
/// (config.stats_interval_ms). The status deadline keeps
/// CoordinatorConfig's default.
CoordinatorConfig CoordinatorConfigFor(const EngineConfig& config);

/// Mines `graph` with config.num_machines in-process ranks sharing `app`
/// (which must be thread-safe across compers, as for one engine) and
/// returns the merged report; its `results` are the raw candidates. With
/// tracing on, the coordinator records its telemetry samples as counter
/// records in the calling thread's ring (CoordinatorConfig). A rank that
/// fails aborts the run at once.
StatusOr<EngineReport> RunLocalCluster(const Graph& graph,
                                       const EngineConfig& config, App* app);

}  // namespace qcm

#endif  // QCM_NET_LOCAL_CLUSTER_H_
