// Coordinator: the control plane of the cluster deployment -- the
// paper's master, for ranks that are threads of one process
// (net/local_cluster.h) or worker processes (tools/qcm_cluster) alike.
//
// It starts every rank itself, through one launch callback, admits it,
// runs the rank-assignment handshake (wire.h), releases the start
// barrier, and then drives four periodic jobs off the workers' kStatus
// streams (each rank's only periodic upward frame), in one sweep every
// millisecond:
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
//   * Steal mastering. The sched/steal_planner.h plan (the paper's §5:
//     move at most one batch of C tasks per donor per period toward the
//     average pending-big count); each move is a kStealCmd to the donor,
//     which ships the batch rank-to-rank as a kStealBatch fabric
//     message.
//
//   * Telemetry. Every sample_period_sec the sweep samples the latest
//     status of every rank: with tracing on it records the sample itself,
//     one trace counter record per gauge on each rank's process track
//     (pid = rank), and it hands the sample to on_sample (qcm_cluster's
//     telemetry line).
//
//   * Liveness + recovery. Every frame a rank sends refreshes its
//     liveness deadline; a mining rank's status thread publishes every
//     0.5 ms. A rank that goes silent past status_deadline_sec
//     (`status-timeout`) or loses its control connection (`disconnect`:
//     a process that dies closes it) is recovered in place when a `kill`
//     callback is configured: the old process is killed, survivors get
//     kPeerDown {rank, epoch+1}, a replacement is launched and admitted
//     through the same Admit with the bumped epoch (it re-dials every
//     survivor; its checkpoint replay restores its durable progress), and
//     survivors get kPeerUp once the replacement is wired. Steal
//     mastering and termination confirmation naturally pause until the
//     replacement publishes its first status. Without `kill` -- or past
//     max_rank_restarts -- a death fails the run loudly.
//
// A rank joins the job one way, at first launch and as a replacement
// alike: Admit(rank, epoch) launches it (config.launch) unless the run has
// failed, accepts the next connection (polling, so an Abort ends the wait;
// a replacement gets status_deadline_sec to connect), which can only be
// this rank's because no other rank is launched until this one is admitted,
// checks the protocol version in its kHello, records its peer listener
// port and sends kAssign {rank, world, job, epoch}; kPeers and the kReady
// barrier follow, and StartRank(rank) resets the slot, arms its liveness
// deadline and starts its receiver before kStart releases the rank. Every
// bring-up read names the frame kind it expects (ReadFrameOfKind,
// wire.h).
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
#include "sched/steal_planner.h"
#include "util/status.h"
#include "util/timer.h"

namespace qcm {

/// Receives one telemetry sample: the coordinator's NowMicros() at the
/// sweep and the latest status of every rank (index = rank).
using StatusSampler = std::function<void(
    uint64_t ts_usec, const std::vector<RankStatus>& statuses)>;

struct CoordinatorConfig {
  /// Number of worker processes (= machines = ranks).
  int world_size = 0;
  /// Starts rank `rank` as incarnation `epoch` (0 at first launch, k for
  /// its k-th replacement): a process or thread that dials port(). Admit
  /// calls it and then accepts the next connection as this rank's.
  /// Required. Called on the RunHandshake thread (ranks 0..N-1, in order)
  /// or the RunToCompletion thread (a replacement).
  std::function<Status(int rank, uint32_t epoch)> launch;
  /// Ensures rank `rank`'s current process is dead (SIGKILL + reap)
  /// before returning. Optional: with it a dead rank is replaced in
  /// place; without it a death fails the run. Called on the
  /// RunToCompletion thread.
  std::function<void(int rank)> kill;
  /// Opaque job configuration delivered to every worker with its rank.
  std::string config_blob;
  /// Steal-mastering period; <= 0 disables stealing.
  double steal_period_sec = 0.02;
  /// Max tasks per steal command (the engine's batch size C).
  uint64_t steal_batch_cap = 16;
  /// Bring-up / report-collection guard.
  double timeout_sec = 120.0;
  /// A rank silent (no frame of any kind; a mining rank publishes a
  /// status every 0.5 ms) for this long is declared dead and recovered,
  /// and a replacement that has not connected within it fails the
  /// recovery. <= 0 disables status-based detection (a replacement then
  /// waits timeout_sec); connection-loss detection still applies.
  double status_deadline_sec = 5.0;
  /// Hard cap on replacements of any single rank before the run fails.
  int max_rank_restarts = 2;
  /// Telemetry sampling: every sample_period_sec (<= 0 disables), and
  /// first as soon as every rank has reported, RunToCompletion's sweep
  /// samples every rank's latest status. With tracing on the sample
  /// becomes counter records in the RunToCompletion thread's ring (seven
  /// per rank; the ring keeps its first trace::kRingKb KiB); on_sample,
  /// when set, receives it on that thread too.
  double sample_period_sec = 0.0;
  StatusSampler on_sample;
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

  /// Marked dead and not re-armed since: the coordinator has declared
  /// this incarnation dead, so its connection's teardown is expected.
  bool IsDead(int rank) const { return dead_[rank]; }

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
    /// What noticed the death: "status-timeout" or "disconnect".
    std::string method;
    /// Silence observed at the moment of declaring the rank dead.
    uint64_t detection_latency_usec = 0;
    /// Kill -> replacement-wired wall time.
    double recovery_sec = 0;
  };

  /// Binds a listener on 127.0.0.1:`port` (0 = ephemeral).
  /// InvalidArgument without a launch callback.
  static StatusOr<std::unique_ptr<Coordinator>> Listen(
      CoordinatorConfig config, uint16_t port = 0);

  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Port workers must connect to.
  uint16_t port() const { return port_; }

  /// Launches and admits ranks 0..N-1, one at a time, exchanges peer
  /// listener ports, and releases the start barrier. Blocks.
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
  bool SnapshotStatus(int rank, RankStatus* out) const;

  /// Fails the run from another thread (a launcher that saw a worker
  /// exit during bring-up, a rank that failed): RunHandshake stops
  /// accepting (or, when a worker's connection then fails, returns this
  /// reason) and RunToCompletion returns Aborted promptly.
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
    RankStatus status;
    bool report_received = false;
    std::string report;
    bool disconnected = false;
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
  /// Launches rank `rank` as incarnation `epoch` and admits its
  /// connection (see the file comment); the caller then sends kPeers,
  /// reads kReady, calls StartRank and sends kStart.
  Status Admit(int rank, uint32_t epoch);
  void StartRank(int rank);
  void RecvLoop(int rank);
  void Fail(const std::string& reason);
  /// Sends one frame to every rank but `except`.
  Status Broadcast(FrameKind kind, const std::string& payload,
                   int except = -1);
  Status SendTo(int rank, FrameKind kind, const std::string& payload);
  /// Declares `rank` dead (idempotent) and queues it for recovery; fails
  /// the run instead when recovery is unavailable or exhausted. A no-op
  /// once the run has failed.
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
  bool handshake_done_ = false;
  bool closed_ = false;

  std::atomic<bool> terminate_sent_{false};
  std::atomic<bool> failed_{false};
  uint64_t steal_commands_ = 0;
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

}  // namespace qcm

#endif  // QCM_NET_COORDINATOR_H_
