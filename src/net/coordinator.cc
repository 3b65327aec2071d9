#include "net/coordinator.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "net/socket_util.h"
#include "util/logging.h"
#include "util/serde.h"
#include "util/timer.h"
#include "util/trace.h"

namespace qcm {

namespace {

/// RunToCompletion's sweep cadence (termination, steals, liveness,
/// telemetry).
constexpr std::chrono::milliseconds kSweepPeriod{1};

/// kPeers payload: the peer listener port of every rank.
std::string EncodePeers(const std::vector<uint32_t>& ports) {
  Encoder enc;
  enc.PutU32Vector(ports);
  return enc.Release();
}

/// v[idx] with absent entries reading as zero (a status published before
/// a world resize, or a replacement's first sweeps).
uint64_t VecAt(const std::vector<uint64_t>& v, size_t idx) {
  return idx < v.size() ? v[idx] : 0;
}

/// Records one telemetry sample as trace counter records, one per gauge of
/// every rank's status, on that rank's process track (pid = rank).
void TraceSample(const std::vector<RankStatus>& statuses) {
  for (size_t rank = 0; rank < statuses.size(); ++rank) {
    const RankStatus& s = statuses[rank];
    const auto counter = [rank](uint16_t name_id, uint64_t value) {
      trace::EmitCounter(name_id, trace::kStats, static_cast<int>(rank),
                         value);
    };
    counter(QCM_TRACE_NAME("queue_depth"), s.pending_big);
    counter(QCM_TRACE_NAME("inflight_bytes"), s.inflight_bytes);
    counter(QCM_TRACE_NAME("busy_compers"), s.busy_compers);
    counter(QCM_TRACE_NAME("tasks_completed"), s.tasks_completed);
    counter(QCM_TRACE_NAME("cache_hits"), s.cache_hits);
    counter(QCM_TRACE_NAME("cache_misses"), s.cache_misses);
    counter(QCM_TRACE_NAME("pending_tasks"),
            s.pending < 0 ? 0 : static_cast<uint64_t>(s.pending));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// LivenessTracker
// ---------------------------------------------------------------------------

LivenessTracker::LivenessTracker(int world_size, double deadline_sec)
    : deadline_sec_(deadline_sec),
      last_seen_(world_size, 0.0),
      armed_(world_size, false),
      dead_(world_size, false) {}

void LivenessTracker::Arm(int rank, double now_sec) {
  last_seen_[rank] = now_sec;
  armed_[rank] = true;
  dead_[rank] = false;
}

void LivenessTracker::Observe(int rank, double now_sec) {
  if (dead_[rank]) return;
  last_seen_[rank] = std::max(last_seen_[rank], now_sec);
  armed_[rank] = true;
}

void LivenessTracker::MarkDead(int rank) { dead_[rank] = true; }

std::vector<int> LivenessTracker::Expired(double now_sec) const {
  std::vector<int> expired;
  if (deadline_sec_ <= 0) return expired;
  for (size_t r = 0; r < last_seen_.size(); ++r) {
    if (!armed_[r] || dead_[r]) continue;
    if (now_sec - last_seen_[r] > deadline_sec_) {
      expired.push_back(static_cast<int>(r));
    }
  }
  return expired;
}

double LivenessTracker::SilenceSec(int rank, double now_sec) const {
  if (!armed_[rank]) return 0.0;
  return std::max(0.0, now_sec - last_seen_[rank]);
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<Coordinator>> Coordinator::Listen(
    CoordinatorConfig config, uint16_t port) {
  if (config.world_size < 1) {
    return Status::InvalidArgument("world_size must be >= 1");
  }
  if (!config.launch) {
    return Status::InvalidArgument("a coordinator needs a launch callback");
  }
  std::unique_ptr<Coordinator> c(new Coordinator(std::move(config)));
  uint16_t bound = 0;
  auto fd = ListenLoopback(port, &bound);
  QCM_RETURN_IF_ERROR(fd.status());
  c->listen_fd_ = fd.value();
  c->port_ = bound;
  c->workers_.resize(c->config_.world_size);
  c->peer_ports_.assign(c->config_.world_size, 0);
  c->rank_epoch_.assign(c->config_.world_size, 0);
  c->restarts_.assign(c->config_.world_size, 0);
  c->clock_ = std::make_unique<WallTimer>();
  c->liveness_ = std::make_unique<LivenessTracker>(
      c->config_.world_size, c->config_.status_deadline_sec);
  return c;
}

Coordinator::~Coordinator() { Close(); }

double Coordinator::NowSec() const { return clock_->Seconds(); }

Status Coordinator::RunHandshake() {
  Status s = Handshake();
  // A step that failed because another thread aborted the run (its
  // worker closed the connection) reports the abort's reason.
  if (!s.ok() && failed_.load()) {
    std::lock_guard<std::mutex> lock(mu_);
    return Status::Aborted(failure_);
  }
  return s;
}

Status Coordinator::Handshake() {
  const int world = config_.world_size;

  for (int rank = 0; rank < world; ++rank) {
    QCM_RETURN_IF_ERROR(Admit(rank, /*epoch=*/0));
  }
  QCM_RETURN_IF_ERROR(
      Broadcast(FrameKind::kPeers, EncodePeers(peer_ports_)));

  // Mesh barrier: every rank reports ready, then all start together.
  Frame frame;
  for (int rank = 0; rank < world; ++rank) {
    QCM_RETURN_IF_ERROR(
        ReadFrameOfKind(workers_[rank].fd, FrameKind::kReady, &frame));
  }
  for (int rank = 0; rank < world; ++rank) StartRank(rank);
  QCM_RETURN_IF_ERROR(Broadcast(FrameKind::kStart, {}));
  handshake_done_ = true;
  return Status::OK();
}

Status Coordinator::Admit(int rank, uint32_t epoch) {
  // A failed run launches nothing more. No other rank is launched until
  // this one is admitted, so the next connection is this rank's.
  auto aborted = [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return Status::Aborted(failure_);
  };
  if (failed_.load()) return aborted();
  QCM_RETURN_IF_ERROR(config_.launch(rank, epoch));
  // The accept poll is kept short so an Abort() (a worker process died
  // before connecting) fails the admission promptly instead of after the
  // full timeout. A replacement is allowed the silence a live rank is,
  // when that is bounded: one that dies before it connects fails the
  // recovery then.
  const double connect_sec = epoch > 0 && config_.status_deadline_sec > 0
                                 ? config_.status_deadline_sec
                                 : config_.timeout_sec;
  WallTimer waited;
  int fd = -1;
  while (fd < 0) {
    if (failed_.load()) return aborted();
    auto accepted = AcceptTcp(listen_fd_, 0.1);
    if (accepted.ok()) {
      fd = accepted.value();
    } else if (accepted.status().message() != "accept timed out") {
      return accepted.status();
    } else if (waited.Seconds() > connect_sec) {
      return Status::IOError("timed out waiting for rank " +
                             std::to_string(rank) + " to connect");
    }
  }
  WorkerSlot& slot = workers_[rank];
  slot.fd = fd;
  SetRecvTimeout(slot.fd, config_.timeout_sec);

  Frame frame;
  QCM_RETURN_IF_ERROR(ReadFrameOfKind(slot.fd, FrameKind::kHello, &frame));
  // The version is read first: another version's hello is named as such,
  // whatever the layout of the rest.
  uint32_t version = kWireProtocolVersion;
  uint16_t listener_port = 0;
  const Status hello = DecodeHello(frame.payload, &version, &listener_port);
  if (version != kWireProtocolVersion) {
    return Status::InvalidArgument(
        "worker speaks wire protocol v" + std::to_string(version) +
        ", coordinator expects v" + std::to_string(kWireProtocolVersion));
  }
  QCM_RETURN_IF_ERROR(hello);
  peer_ports_[rank] = listener_port;
  return WriteFrame(
      slot.fd, Frame{FrameKind::kAssign, kCoordinatorRank,
                     EncodeAssign(static_cast<uint32_t>(rank),
                                  static_cast<uint32_t>(config_.world_size),
                                  config_.config_blob, epoch)});
}

void Coordinator::StartRank(int rank) {
  WorkerSlot& slot = workers_[rank];
  {
    std::lock_guard<std::mutex> lock(mu_);
    slot.status = RankStatus{};
    slot.status_seq = 0;
    slot.report_received = false;
    slot.report.clear();
    slot.disconnected = false;
    liveness_->Arm(rank, NowSec());
  }
  SetRecvTimeout(slot.fd, 0);
  slot.recv_thread = std::thread([this, rank] { RecvLoop(rank); });
}

void Coordinator::RecvLoop(int rank) {
  WorkerSlot& slot = workers_[rank];
  Frame frame;
  for (;;) {
    Status s = ReadFrame(slot.fd, &frame);
    if (!s.ok()) {
      bool reported = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        slot.disconnected = true;
        // The coordinator itself tore this connection down (the rank was
        // already declared dead): expected exit, nothing more to do.
        if (liveness_->IsDead(rank)) return;
        reported = slot.report_received;
      }
      // EOF after the report (or after termination) is the worker's
      // normal goodbye; anything earlier is a death.
      if (!reported && !terminate_sent_.load()) {
        RequestRecovery(rank, "disconnect");
      }
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      liveness_->Observe(rank, NowSec());
      if (liveness_->IsDead(rank)) {
        // Late frame from a killed incarnation racing its teardown.
        continue;
      }
    }
    switch (frame.kind) {
      case FrameKind::kStatus: {
        RankStatus status;
        if (!DecodeRankStatus(frame.payload, &status).ok()) {
          Fail("corrupt status from rank " + std::to_string(rank));
          return;
        }
        std::lock_guard<std::mutex> lock(mu_);
        slot.status = std::move(status);
        ++slot.status_seq;
        break;
      }
      case FrameKind::kReport: {
        std::lock_guard<std::mutex> lock(mu_);
        slot.report = std::move(frame.payload);
        slot.report_received = true;
        break;
      }
      case FrameKind::kAbort:
        Fail("rank " + std::to_string(rank) + " aborted: " + frame.payload);
        return;
      default:
        Fail(std::string("unexpected frame from rank ") +
             std::to_string(rank) + ": " + FrameKindName(frame.kind));
        return;
    }
  }
}

void Coordinator::Fail(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (failure_.empty()) failure_ = reason;
  }
  failed_.store(true);
}

void Coordinator::Abort(const std::string& reason) { Fail(reason); }

void Coordinator::RequestRecovery(int rank, const char* method) {
  // A failed run recovers nothing: its teardown closes every connection.
  if (failed_.load()) return;
  const bool recovery_available = static_cast<bool>(config_.kill);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (liveness_->IsDead(rank)) return;  // already declared this death
    if (recovery_available && restarts_[rank] < config_.max_rank_restarts) {
      PendingRecovery death;
      death.rank = rank;
      death.method = method;
      death.detection_latency_usec = static_cast<uint64_t>(
          liveness_->SilenceSec(rank, NowSec()) * 1e6);
      liveness_->MarkDead(rank);
      QCM_TRACE_INSTANT(trace::kRecovery, "rank_declared_dead", rank);
      QCM_WLOG << "rank " << rank << " declared dead (" << method
               << ", silent "
               << death.detection_latency_usec / 1000 << " ms); queueing "
               << "replacement epoch " << rank_epoch_[rank] + 1;
      dead_queue_.push_back(std::move(death));
      return;
    }
  }
  std::string reason = "rank " + std::to_string(rank) + " died (" + method +
                       ")";
  if (recovery_available) {
    reason += " after exhausting " +
              std::to_string(config_.max_rank_restarts) + " restarts";
  } else {
    reason += " and recovery is off";
  }
  Fail(reason);
}

Status Coordinator::RecoverRank(const PendingRecovery& death) {
  const int rank = death.rank;
  WallTimer recovery_timer;
  QCM_TRACE_SPAN(trace::kRecovery, "recover_rank", rank);
  uint32_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch = ++rank_epoch_[rank];
  }
  const std::string peer_event =
      EncodePeerEvent(static_cast<uint32_t>(rank), epoch);
  WorkerSlot& slot = workers_[rank];

  {
    QCM_TRACE_SPAN(trace::kRecovery, "recover_kill", rank);
    // 1. Make sure the old incarnation is actually dead before telling
    // the survivors so: a half-alive process must not keep writing to
    // peers that have already reset its counters.
    config_.kill(rank);

    // 2. Tear down the old control connection (its RecvLoop sees the
    // rank marked dead and exits quietly).
    ShutdownSocket(slot.fd);
    if (slot.recv_thread.joinable()) slot.recv_thread.join();
    CloseSocket(slot.fd);
    slot.fd = -1;

    // 3. Survivors quiesce the dead pair: their transports drop the
    // connection, reset sent_to[rank], and re-inject retained steal
    // batches (engine OnPeerDown).
    QCM_RETURN_IF_ERROR(Broadcast(FrameKind::kPeerDown, peer_event, rank));
  }

  QCM_TRACE_SPAN(trace::kRecovery, "recover_relaunch", rank);
  // 4. Launch and admit the replacement as the original was, with the
  // bumped epoch (its transport then dials every survivor instead of
  // accepting).
  QCM_RETURN_IF_ERROR(Admit(rank, epoch));
  QCM_RETURN_IF_ERROR(
      SendTo(rank, FrameKind::kPeers, EncodePeers(peer_ports_)));
  // kReady arrives only after the replacement has dialed every survivor,
  // so the mesh is complete here.
  Frame frame;
  QCM_RETURN_IF_ERROR(ReadFrameOfKind(slot.fd, FrameKind::kReady, &frame));

  // 5. Start the replacement's receiver before releasing it.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++restarts_[rank];
  }
  StartRank(rank);
  QCM_RETURN_IF_ERROR(SendTo(rank, FrameKind::kStart, {}));

  // 6. Survivors re-open the pair: their transports wait for the
  // replacement's dial (already done -- kReady proves it) and re-request
  // in-flight pulls (engine OnPeerUp).
  QCM_RETURN_IF_ERROR(Broadcast(FrameKind::kPeerUp, peer_event, rank));

  RecoveryEvent event;
  event.rank = rank;
  event.epoch = epoch;
  event.method = death.method;
  event.detection_latency_usec = death.detection_latency_usec;
  event.recovery_sec = recovery_timer.Seconds();
  QCM_ILOG << "rank " << rank << " recovered: epoch " << epoch << " ("
           << death.method << ", detection "
           << death.detection_latency_usec / 1000 << " ms, recovery "
           << static_cast<int>(event.recovery_sec * 1000) << " ms)";
  {
    std::lock_guard<std::mutex> lock(mu_);
    recovery_events_.push_back(std::move(event));
  }
  return Status::OK();
}

std::vector<Coordinator::RecoveryEvent> Coordinator::recovery_events()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return recovery_events_;
}

std::vector<int> Coordinator::restarts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return restarts_;
}

bool Coordinator::SnapshotStatus(int rank, RankStatus* out) const {
  if (rank < 0 || rank >= config_.world_size) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (workers_[rank].status_seq == 0) return false;
  *out = workers_[rank].status;
  return true;
}

Status Coordinator::Broadcast(FrameKind kind, const std::string& payload,
                              int except) {
  for (int rank = 0; rank < config_.world_size; ++rank) {
    if (rank != except) QCM_RETURN_IF_ERROR(SendTo(rank, kind, payload));
  }
  return Status::OK();
}

Status Coordinator::SendTo(int rank, FrameKind kind,
                           const std::string& payload) {
  WorkerSlot& slot = workers_[rank];
  std::lock_guard<std::mutex> lock(*slot.send_mu);
  return WriteFrame(slot.fd, Frame{kind, kCoordinatorRank, payload});
}

StatusOr<std::vector<std::string>> Coordinator::RunToCompletion() {
  if (!handshake_done_) {
    return Status::InvalidArgument("RunToCompletion before RunHandshake");
  }
  const int world = config_.world_size;

  // Double-sweep quiescence candidate: per-rank per-pair counters and the
  // status sequence numbers they were observed at.
  bool have_candidate = false;
  std::vector<RankStatus> cand(world);
  std::vector<uint64_t> cand_seq(world);

  // Steal mastering bookkeeping: local estimates so repeated sweeps do
  // not re-plan the same move before fresh statuses arrive.
  WallTimer steal_timer;
  // Telemetry sampling, into the trace's counter tracks and on_sample; the
  // first sample is taken as soon as every rank has reported.
  const bool sampling =
      config_.sample_period_sec > 0 &&
      (trace::Enabled() || static_cast<bool>(config_.on_sample));
  double last_sample_sec = -1.0;  // none yet

  while (!failed_.load()) {
    std::this_thread::sleep_for(kSweepPeriod);

    // Liveness first: declare status-silent ranks dead, then run any
    // queued recoveries inline (steal mastering and termination
    // confirmation are paused for the rest of this sweep -- and until
    // the replacement publishes a status, via the all_reported gate).
    std::vector<PendingRecovery> deaths;
    {
      std::vector<int> expired;
      {
        std::lock_guard<std::mutex> lock(mu_);
        expired = liveness_->Expired(NowSec());
      }
      for (int r : expired) RequestRecovery(r, "status-timeout");
      std::lock_guard<std::mutex> lock(mu_);
      deaths = std::move(dead_queue_);
      dead_queue_.clear();
    }
    if (!deaths.empty()) {
      for (const PendingRecovery& death : deaths) {
        Status s = RecoverRank(death);
        if (!s.ok()) {
          Fail("recovery of rank " + std::to_string(death.rank) +
               " failed: " + s.ToString());
          break;
        }
      }
      have_candidate = false;
      continue;
    }

    std::vector<RankStatus> statuses(world);
    std::vector<uint64_t> seqs(world);
    bool all_reported = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (int r = 0; r < world; ++r) {
        statuses[r] = workers_[r].status;
        seqs[r] = workers_[r].status_seq;
        if (seqs[r] == 0) all_reported = false;
      }
    }
    if (!all_reported) continue;

    if (sampling && (last_sample_sec < 0 ||
                     NowSec() - last_sample_sec >= config_.sample_period_sec)) {
      last_sample_sec = NowSec();
      if (trace::Enabled()) TraceSample(statuses);
      if (config_.on_sample) {
        config_.on_sample(static_cast<uint64_t>(NowMicros()), statuses);
      }
    }

    // Quiescence: no rank holds work, and every ordered pair's wire is
    // drained (sent_to on the sender matches processed_from on the
    // receiver).
    bool quiescent = true;
    for (int r = 0; r < world && quiescent; ++r) {
      if (statuses[r].pending != 0 || statuses[r].spawn_done == 0) {
        quiescent = false;
      }
    }
    for (int i = 0; i < world && quiescent; ++i) {
      for (int j = 0; j < world; ++j) {
        if (i == j) continue;
        if (VecAt(statuses[i].sent_to, j) !=
            VecAt(statuses[j].processed_from, i)) {
          quiescent = false;
          break;
        }
      }
    }

    if (quiescent) {
      if (have_candidate) {
        bool confirmed = true;
        for (int r = 0; r < world && confirmed; ++r) {
          // A fresh status must have arrived since the candidate sweep,
          // and its counters must not have moved: the rank verifiably
          // did nothing in between.
          if (seqs[r] <= cand_seq[r]) {
            confirmed = false;
            break;
          }
          for (int p = 0; p < world; ++p) {
            if (VecAt(statuses[r].sent_to, p) !=
                    VecAt(cand[r].sent_to, p) ||
                VecAt(statuses[r].processed_from, p) !=
                    VecAt(cand[r].processed_from, p)) {
              confirmed = false;
              break;
            }
          }
        }
        if (confirmed) break;  // global quiescence proven twice
      }
      have_candidate = true;
      for (int r = 0; r < world; ++r) {
        cand[r] = statuses[r];
        cand_seq[r] = seqs[r];
      }
      continue;  // no point planning steals in a quiescent sweep
    }
    have_candidate = false;

    // Steal mastering: the sched/steal_planner.h plan.
    if (config_.steal_period_sec > 0 && world >= 2 &&
        steal_timer.Seconds() >= config_.steal_period_sec) {
      steal_timer.Reset();
      std::vector<uint64_t> counts(world);
      for (int r = 0; r < world; ++r) counts[r] = statuses[r].pending_big;
      for (const StealMove& move :
           PlanSteals(counts, config_.steal_batch_cap)) {
        Status s = SendTo(
            move.donor, FrameKind::kStealCmd,
            EncodeStealCmd(static_cast<uint32_t>(move.receiver),
                           move.want));
        if (!s.ok()) {
          Fail("steal command to rank " + std::to_string(move.donor) +
               " failed: " + s.ToString());
          break;
        }
        ++steal_commands_;
      }
    }
  }

  if (failed_.load()) {
    std::lock_guard<std::mutex> lock(mu_);
    return Status::Aborted(failure_);
  }

  terminate_sent_.store(true);
  QCM_RETURN_IF_ERROR(Broadcast(FrameKind::kTerminate, {}));

  // Collect one report per rank.
  WallTimer waited;
  for (;;) {
    bool all = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (int r = 0; r < world; ++r) {
        if (!workers_[r].report_received) {
          all = false;
          if (workers_[r].disconnected) {
            return Status::Aborted("rank " + std::to_string(r) +
                                   " exited without a report");
          }
        }
      }
    }
    if (all) break;
    if (failed_.load()) {
      std::lock_guard<std::mutex> lock(mu_);
      return Status::Aborted(failure_);
    }
    if (waited.Seconds() > config_.timeout_sec) {
      return Status::IOError("timed out waiting for worker reports");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::vector<std::string> reports(world);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int r = 0; r < world; ++r) reports[r] = workers_[r].report;
  }
  return reports;
}

void Coordinator::Close() {
  if (closed_) return;
  closed_ = true;
  CloseSocket(listen_fd_);
  listen_fd_ = -1;
  for (WorkerSlot& slot : workers_) {
    ShutdownSocket(slot.fd);
  }
  for (WorkerSlot& slot : workers_) {
    if (slot.recv_thread.joinable()) slot.recv_thread.join();
  }
  for (WorkerSlot& slot : workers_) {
    CloseSocket(slot.fd);
    slot.fd = -1;
  }
}

}  // namespace qcm
