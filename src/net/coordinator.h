// Coordinator: the control plane of the cluster deployment -- the
// paper's master, for ranks that are threads of one process
// (net/local_cluster.h) or worker processes (tools/qcm_cluster) alike.
//
// It accepts exactly `world_size` workers, runs the rank-assignment
// handshake (wire.h), releases the start barrier, and then drives three
// periodic jobs off the workers' kStatus / kHeartbeat streams:
//
//   * Distributed termination detection. A sweep is quiescent when every
//     rank reported pending == 0 and spawn_done and, for every ordered
//     pair (i, j), rank i's sent_to[j] equals rank j's processed_from[i]
//     (the per-pair form survives a rank being replaced mid-run, because
//     both sides of a dead pair reset symmetrically). Termination is
//     declared only after two consecutive quiescent sweeps with identical
//     per-pair counters, where every rank published a fresh status in
//     between -- the engine-side counting discipline (transport.h)
//     guarantees any in-flight or unprocessed frame breaks one of the two
//     sweeps, so the drain invariant holds across processes.
//
//   * Steal mastering. The sched/steal_planner.h plan (move at most one
//     batch per donor per period toward the average pending-big count,
//     with per-link batch caps scaled by RTT estimates -- larger, rarer
//     batches on slow links); each move is a kStealCmd to the donor,
//     which ships the batch rank-to-rank as a kStealBatch fabric
//     message. The coordinator cannot observe fabric timestamps itself,
//     so its RTT input is the per-rank mean delivery latency every
//     worker publishes in its kStatus stream.
//
//   * Liveness + recovery. Every frame a rank sends (heartbeats fill the
//     silences) refreshes its liveness deadline. A rank that goes silent
//     past heartbeat_deadline_sec, loses its control connection, or is
//     reported dead by the launcher's child watchdog (OnRankDeath) is
//     recovered in place when recovery callbacks are installed: the old
//     process is killed, survivors get kPeerDown {rank, epoch+1}, a
//     replacement is launched and walked through the same handshake with
//     the bumped epoch (it re-dials every survivor; its checkpoint replay
//     restores its durable progress), and survivors get kPeerUp once the
//     replacement is wired. Steal mastering and termination confirmation
//     naturally pause until the replacement publishes its first status.
//     Without callbacks -- or past max_rank_restarts -- a death fails the
//     run loudly, exactly like the pre-recovery behavior.
//
// After kTerminate it collects one kReport per rank and hands the payloads
// to the caller (tools/qcm_cluster merges them; the in-process launcher
// keeps each rank's report in memory and ships an empty kReport).

#ifndef QCM_NET_COORDINATOR_H_
#define QCM_NET_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/wire.h"
#include "sched/rtt.h"
#include "sched/steal_planner.h"
#include "util/status.h"
#include "util/timer.h"

namespace qcm {

struct CoordinatorConfig {
  /// Number of worker processes (= machines = ranks).
  int world_size = 0;
  /// Opaque job configuration delivered to every worker with its rank.
  std::string config_blob;
  /// Termination-detection sweep cadence.
  double sweep_period_sec = 0.001;
  /// Steal-mastering period; <= 0 disables stealing.
  double steal_period_sec = 0.02;
  /// Base tasks per steal command (the engine's batch size C); the
  /// latency-aware planner may grow a command up to
  /// steal_batch_cap * steal_max_batch_factor on slow links.
  uint64_t steal_batch_cap = 16;
  /// Link RTT granting one extra base batch (EngineConfig::
  /// steal_rtt_reference_sec's cluster-side twin).
  double steal_rtt_reference_sec = 1e-3;
  /// Hard cap multiplier for latency-scaled steal commands.
  uint64_t steal_max_batch_factor = 8;
  /// Bring-up / report-collection guard.
  double timeout_sec = 120.0;
  /// A rank silent (no frame of any kind) for this long is declared dead
  /// and recovered. <= 0 disables heartbeat-based detection; child-exit
  /// (OnRankDeath) and connection-loss detection still apply.
  double heartbeat_deadline_sec = 5.0;
  /// Hard cap on replacements of any single rank before the run fails.
  int max_rank_restarts = 2;
};

/// Per-rank liveness bookkeeping: last-seen timestamps against a silence
/// deadline. Socket-free so the deadline arithmetic is unit-testable
/// (tests/recovery_test.cc); the Coordinator feeds it wall-clock seconds
/// under its own lock. A rank starts un-armed until the first Arm/Observe.
class LivenessTracker {
 public:
  LivenessTracker(int world_size, double deadline_sec);

  /// (Re-)arms `rank`'s deadline at `now_sec` (bring-up, or a replacement
  /// coming online) and clears its dead marker.
  void Arm(int rank, double now_sec);
  /// A frame arrived from `rank`: refresh its deadline. Ignored while the
  /// rank is marked dead (a late frame from a killed incarnation must not
  /// resurrect it).
  void Observe(int rank, double now_sec);
  /// Marks `rank` dead: excluded from Expired() until re-armed.
  void MarkDead(int rank);

  /// Armed, not-dead ranks whose silence exceeds the deadline at
  /// `now_sec`. Empty when the deadline is disabled (<= 0).
  std::vector<int> Expired(double now_sec) const;

  /// Seconds of silence for `rank` at `now_sec` (detection latency at the
  /// moment of declaring death); 0 when never armed.
  double SilenceSec(int rank, double now_sec) const;

  bool IsDead(int rank) const { return dead_[rank]; }
  double deadline_sec() const { return deadline_sec_; }

 private:
  double deadline_sec_;
  std::vector<double> last_seen_;
  std::vector<bool> armed_;
  std::vector<bool> dead_;
};

class Coordinator {
 public:
  /// One completed rank recovery (observability for reports/tests).
  struct RecoveryEvent {
    int rank = -1;
    /// Incarnation epoch of the replacement (first replacement = 1).
    uint32_t epoch = 0;
    /// What noticed the death: "heartbeat-timeout", "disconnect", or
    /// "child-exit".
    std::string method;
    /// Silence observed at the moment of declaring the rank dead.
    uint64_t detection_latency_usec = 0;
    /// Kill -> replacement-wired wall time.
    double recovery_sec = 0;
  };

  /// Binds a listener on 127.0.0.1:`port` (0 = ephemeral).
  static StatusOr<std::unique_ptr<Coordinator>> Listen(
      CoordinatorConfig config, uint16_t port = 0);

  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Port workers must connect to.
  uint16_t port() const { return port_; }

  /// Installs the rank-recovery callbacks; without them a worker death
  /// fails the run. `kill` must ensure the rank's current process is dead
  /// before returning (SIGKILL + reap); `relaunch` spawns a fresh worker
  /// process that will dial this coordinator. Both are invoked from the
  /// RunToCompletion thread only. Call before RunToCompletion.
  void SetRecoveryCallbacks(std::function<void(int)> kill,
                            std::function<Status(int)> relaunch);

  /// Installs the kStats telemetry consumer (the qcm_cluster ticker /
  /// merged-trace counter tracks, see AppendStatsCounterEvents). Invoked
  /// from per-rank receiver threads; the callback must be thread-safe.
  /// Call before RunHandshake.
  using StatsCallback =
      std::function<void(int rank, const WireStatsSample& sample)>;
  void SetStatsCallback(StatsCallback cb);

  /// Accepts every worker, assigns ranks in connection order, exchanges
  /// peer listener ports, and releases the start barrier. Blocks.
  Status RunHandshake();

  /// Drives termination detection (plus steal mastering and rank
  /// recovery) until global quiescence, broadcasts kTerminate, and
  /// returns every rank's report payload (index = rank). Blocks.
  StatusOr<std::vector<std::string>> RunToCompletion();

  /// Total kStealCmd frames issued (observability for tests/tools).
  uint64_t steal_commands_issued() const { return steal_commands_; }

  /// Completed rank recoveries, in order.
  std::vector<RecoveryEvent> recovery_events() const;
  /// Replacements performed per rank.
  std::vector<int> restarts() const;

  /// Latest status published by `rank` (false until its first kStatus).
  /// Launcher-side fault-injection hooks poll this to kill a worker only
  /// once it verifiably holds work.
  bool SnapshotStatus(int rank, WireRankStatus* out) const;

  /// OS pid the current incarnation of `rank` reported in its kHello
  /// (0 before its handshake). Ranks are assigned in CONNECT order, not
  /// the launcher's spawn order -- the launcher must use this to map a
  /// rank onto the process it forked before killing/replacing anything.
  uint64_t RankPid(int rank) const;

  /// The launcher's child watchdog noticed rank `rank`'s process exit:
  /// queue it for recovery (or fail the run when recovery is off).
  /// Thread-safe.
  void OnRankDeath(int rank);

  /// Fails the run from another thread: RunHandshake stops accepting (or,
  /// when a worker's connection then fails, returns this reason) and
  /// RunToCompletion returns Aborted promptly.
  void Abort(const std::string& reason);

  /// Closes every connection and joins receiver threads. Idempotent.
  void Close();

 private:
  struct WorkerSlot {
    int fd = -1;
    std::unique_ptr<std::mutex> send_mu = std::make_unique<std::mutex>();
    std::thread recv_thread;

    // Guarded by Coordinator::mu_.
    uint64_t status_seq = 0;
    WireRankStatus status;
    bool report_received = false;
    std::string report;
    bool disconnected = false;
    /// The coordinator has declared this incarnation dead; its RecvLoop
    /// exit is expected and must not re-queue a recovery.
    bool superseded = false;
  };

  /// A declared death awaiting inline recovery in RunToCompletion.
  struct PendingRecovery {
    int rank = -1;
    std::string method;
    uint64_t detection_latency_usec = 0;
  };

  explicit Coordinator(CoordinatorConfig config)
      : config_(std::move(config)) {}

  /// RunHandshake's steps.
  Status Handshake();
  void RecvLoop(int rank);
  void Fail(const std::string& reason);
  Status Broadcast(FrameKind kind, const std::string& payload);
  Status SendTo(int rank, FrameKind kind, const std::string& payload);
  /// Declares `rank` dead (idempotent) and queues it for recovery; fails
  /// the run instead when recovery is unavailable or exhausted.
  void RequestRecovery(int rank, const char* method);
  /// Kills, replaces, and re-wires one rank. RunToCompletion thread only.
  Status RecoverRank(const PendingRecovery& death);
  double NowSec() const;

  CoordinatorConfig config_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::vector<WorkerSlot> workers_;
  /// Peer listener port of every rank (updated when a rank is replaced;
  /// a replacement receives the whole refreshed map).
  std::vector<uint32_t> peer_ports_;
  /// Current incarnation epoch per rank (0 = original process).
  std::vector<uint32_t> rank_epoch_;
  /// Self-reported OS pid per rank (from kHello). Guarded by mu_.
  std::vector<uint64_t> rank_pid_;
  bool handshake_done_ = false;
  bool closed_ = false;

  std::function<void(int)> kill_cb_;
  std::function<Status(int)> relaunch_cb_;
  StatsCallback stats_cb_;

  std::atomic<bool> terminate_sent_{false};
  std::atomic<bool> failed_{false};
  uint64_t steal_commands_ = 0;
  /// Per-rank delivery-latency EWMAs assembled from kStatus publications
  /// (the planner's RTT input). Created by Listen().
  std::unique_ptr<LinkRttTracker> rtt_;
  /// Monotonic clock for liveness deadlines; created by Listen().
  std::unique_ptr<WallTimer> clock_;

  mutable std::mutex mu_;
  std::string failure_;
  // All guarded by mu_.
  std::unique_ptr<LivenessTracker> liveness_;
  std::vector<PendingRecovery> dead_queue_;
  std::vector<RecoveryEvent> recovery_events_;
  std::vector<int> restarts_;
};

/// Appends one Chrome trace counter event ("ph":"C", pid = `rank`) per
/// kStats gauge of `sample` to `events`: the counter tracks of a
/// launcher's merged timeline.
void AppendStatsCounterEvents(int rank, const WireStatsSample& sample,
                              std::vector<std::string>* events);

}  // namespace qcm

#endif  // QCM_NET_COORDINATOR_H_
