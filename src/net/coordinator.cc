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

/// v[idx] with absent entries reading as zero (a status published before
/// a world resize, or a replacement's first sweeps).
uint64_t VecAt(const std::vector<uint64_t>& v, size_t idx) {
  return idx < v.size() ? v[idx] : 0;
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
  std::unique_ptr<Coordinator> c(new Coordinator(std::move(config)));
  uint16_t bound = 0;
  auto fd = ListenLoopback(port, &bound);
  QCM_RETURN_IF_ERROR(fd.status());
  c->listen_fd_ = fd.value();
  c->port_ = bound;
  c->workers_.resize(c->config_.world_size);
  c->peer_ports_.assign(c->config_.world_size, 0);
  c->rank_epoch_.assign(c->config_.world_size, 0);
  c->rank_pid_.assign(c->config_.world_size, 0);
  c->restarts_.assign(c->config_.world_size, 0);
  // Alpha 0.5: status-borne latency estimates are already EWMAs of many
  // deliveries, so the coordinator tracks them tightly.
  c->rtt_ = std::make_unique<LinkRttTracker>(c->config_.world_size, 0.5);
  c->clock_ = std::make_unique<WallTimer>();
  c->liveness_ = std::make_unique<LivenessTracker>(
      c->config_.world_size, c->config_.heartbeat_deadline_sec);
  return c;
}

Coordinator::~Coordinator() { Close(); }

double Coordinator::NowSec() const { return clock_->Seconds(); }

void Coordinator::SetRecoveryCallbacks(std::function<void(int)> kill,
                                       std::function<Status(int)> relaunch) {
  kill_cb_ = std::move(kill);
  relaunch_cb_ = std::move(relaunch);
}

void Coordinator::SetStatsCallback(StatsCallback cb) {
  stats_cb_ = std::move(cb);
}

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

  // Accept and rank-assign in connection order. The accept poll is kept
  // short so an Abort() (a worker process died before connecting) fails
  // the handshake promptly instead of after the full timeout.
  for (int rank = 0; rank < world; ++rank) {
    WallTimer waited;
    int accepted = -1;
    while (accepted < 0) {
      if (failed_.load()) {
        std::lock_guard<std::mutex> lock(mu_);
        return Status::Aborted(failure_);
      }
      auto fd = AcceptTcp(listen_fd_, 0.1);
      if (fd.ok()) {
        accepted = fd.value();
        break;
      }
      if (fd.status().message() != "accept timed out") return fd.status();
      if (waited.Seconds() > config_.timeout_sec) return fd.status();
    }
    WorkerSlot& slot = workers_[rank];
    slot.fd = accepted;
    SetRecvTimeout(slot.fd, config_.timeout_sec);
    Frame frame;
    QCM_RETURN_IF_ERROR(ReadFrame(slot.fd, &frame));
    if (frame.kind != FrameKind::kHello) {
      return Status::Corruption(std::string("expected hello, got ") +
                                FrameKindName(frame.kind));
    }
    uint32_t version = 0;
    uint64_t pid = 0;
    QCM_RETURN_IF_ERROR(DecodeHello(frame.payload, &version, &pid));
    if (version != kWireProtocolVersion) {
      return Status::InvalidArgument(
          "worker speaks wire protocol v" + std::to_string(version) +
          ", coordinator expects v" + std::to_string(kWireProtocolVersion));
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      rank_pid_[rank] = pid;
    }
    QCM_RETURN_IF_ERROR(WriteFrame(
        slot.fd,
        Frame{FrameKind::kAssign, kCoordinatorRank,
              EncodeAssign(static_cast<uint32_t>(rank),
                           static_cast<uint32_t>(world), config_.config_blob,
                           /*epoch=*/0)}));
  }

  // Collect peer listener ports, then publish the full port map.
  for (int rank = 0; rank < world; ++rank) {
    Frame frame;
    QCM_RETURN_IF_ERROR(ReadFrame(workers_[rank].fd, &frame));
    if (frame.kind != FrameKind::kListening) {
      return Status::Corruption(std::string("expected listening, got ") +
                                FrameKindName(frame.kind));
    }
    Decoder dec(frame.payload);
    QCM_RETURN_IF_ERROR(dec.GetU32(&peer_ports_[rank]));
  }
  {
    Encoder enc;
    enc.PutU32Vector(peer_ports_);
    QCM_RETURN_IF_ERROR(Broadcast(FrameKind::kPeers, enc.Release()));
  }

  // Mesh barrier: every rank reports ready, then all start together.
  for (int rank = 0; rank < world; ++rank) {
    Frame frame;
    QCM_RETURN_IF_ERROR(ReadFrame(workers_[rank].fd, &frame));
    if (frame.kind != FrameKind::kReady) {
      return Status::Corruption(std::string("expected ready, got ") +
                                FrameKindName(frame.kind));
    }
  }
  QCM_RETURN_IF_ERROR(Broadcast(FrameKind::kStart, {}));

  // Hand each connection to its receiver thread; liveness deadlines arm
  // at the barrier release.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int rank = 0; rank < world; ++rank) {
      liveness_->Arm(rank, NowSec());
    }
  }
  for (int rank = 0; rank < world; ++rank) {
    SetRecvTimeout(workers_[rank].fd, 0);
    workers_[rank].recv_thread =
        std::thread([this, rank] { RecvLoop(rank); });
  }
  handshake_done_ = true;
  return Status::OK();
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
        if (slot.superseded) return;
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
      if (slot.superseded) {
        // Late frame from a killed incarnation racing its teardown.
        continue;
      }
    }
    switch (frame.kind) {
      case FrameKind::kStatus: {
        WireRankStatus status;
        if (!DecodeRankStatus(frame.payload, &status).ok()) {
          Fail("corrupt status from rank " + std::to_string(rank));
          return;
        }
        std::lock_guard<std::mutex> lock(mu_);
        slot.status = std::move(status);
        ++slot.status_seq;
        break;
      }
      case FrameKind::kHeartbeat: {
        // The Observe above already refreshed the deadline; the payload
        // sequence is not otherwise needed.
        break;
      }
      case FrameKind::kStats: {
        WireStatsSample sample;
        if (!DecodeStatsSample(frame.payload, &sample).ok()) {
          Fail("corrupt stats from rank " + std::to_string(rank));
          return;
        }
        // Telemetry only: never touches termination or steal state.
        // stats_cb_ is installed before RunHandshake, so reading it
        // without mu_ is race-free.
        if (stats_cb_) stats_cb_(rank, sample);
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

void Coordinator::OnRankDeath(int rank) {
  if (rank < 0 || rank >= config_.world_size) return;
  if (terminate_sent_.load()) return;  // post-termination exits are normal
  RequestRecovery(rank, "child-exit");
}

void Coordinator::RequestRecovery(int rank, const char* method) {
  const bool recovery_available =
      static_cast<bool>(kill_cb_) && static_cast<bool>(relaunch_cb_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (workers_[rank].superseded) return;  // already declared this death
    if (recovery_available && restarts_[rank] < config_.max_rank_restarts) {
      PendingRecovery death;
      death.rank = rank;
      death.method = method;
      death.detection_latency_usec = static_cast<uint64_t>(
          liveness_->SilenceSec(rank, NowSec()) * 1e6);
      workers_[rank].superseded = true;
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
    reason += " and no recovery callbacks are installed";
  }
  Fail(reason);
}

Status Coordinator::RecoverRank(const PendingRecovery& death) {
  const int rank = death.rank;
  const int world = config_.world_size;
  WallTimer recovery_timer;
  QCM_TRACE_SPAN(trace::kRecovery, "recover_rank", rank);
  uint32_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch = ++rank_epoch_[rank];
  }

  {
    QCM_TRACE_SPAN(trace::kRecovery, "recover_kill", rank);
    // 1. Make sure the old incarnation is actually dead before telling
    // the survivors so: a half-alive process must not keep writing to
    // peers that have already reset its counters.
    if (kill_cb_) kill_cb_(rank);

    // 2. Tear down the old control connection (its RecvLoop sees
    // superseded and exits quietly).
    WorkerSlot& slot0 = workers_[rank];
    ShutdownSocket(slot0.fd);
    if (slot0.recv_thread.joinable()) slot0.recv_thread.join();
    CloseSocket(slot0.fd);
    slot0.fd = -1;

    // 3. Survivors quiesce the dead pair: their transports drop the
    // connection, reset sent_to[rank], and re-inject retained steal
    // batches (engine OnPeerDown).
    const std::string down =
        EncodePeerEvent(static_cast<uint32_t>(rank), epoch);
    for (int r = 0; r < world; ++r) {
      if (r == rank) continue;
      QCM_RETURN_IF_ERROR(SendTo(r, FrameKind::kPeerDown, down));
    }
  }
  WorkerSlot& slot = workers_[rank];

  QCM_TRACE_SPAN(trace::kRecovery, "recover_relaunch", rank);
  // 4. Launch the replacement and walk it through the same handshake the
  // original got, with the bumped epoch (its transport then dials every
  // survivor instead of accepting).
  QCM_RETURN_IF_ERROR(relaunch_cb_(rank));

  WallTimer waited;
  int accepted = -1;
  while (accepted < 0) {
    if (failed_.load()) {
      std::lock_guard<std::mutex> lock(mu_);
      return Status::Aborted(failure_);
    }
    auto fd = AcceptTcp(listen_fd_, 0.1);
    if (fd.ok()) {
      accepted = fd.value();
      break;
    }
    if (fd.status().message() != "accept timed out") return fd.status();
    if (waited.Seconds() > config_.timeout_sec) {
      return Status::IOError("timed out waiting for rank " +
                             std::to_string(rank) + " replacement");
    }
  }
  slot.fd = accepted;
  SetRecvTimeout(slot.fd, config_.timeout_sec);

  Frame frame;
  QCM_RETURN_IF_ERROR(ReadFrame(slot.fd, &frame));
  if (frame.kind != FrameKind::kHello) {
    return Status::Corruption(std::string("expected hello, got ") +
                              FrameKindName(frame.kind));
  }
  uint32_t version = 0;
  uint64_t pid = 0;
  QCM_RETURN_IF_ERROR(DecodeHello(frame.payload, &version, &pid));
  if (version != kWireProtocolVersion) {
    return Status::InvalidArgument("replacement speaks wire protocol v" +
                                   std::to_string(version));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    rank_pid_[rank] = pid;
  }
  QCM_RETURN_IF_ERROR(WriteFrame(
      slot.fd, Frame{FrameKind::kAssign, kCoordinatorRank,
                     EncodeAssign(static_cast<uint32_t>(rank),
                                  static_cast<uint32_t>(world),
                                  config_.config_blob, epoch)}));
  QCM_RETURN_IF_ERROR(ReadFrame(slot.fd, &frame));
  if (frame.kind != FrameKind::kListening) {
    return Status::Corruption(std::string("expected listening, got ") +
                              FrameKindName(frame.kind));
  }
  {
    Decoder dec(frame.payload);
    QCM_RETURN_IF_ERROR(dec.GetU32(&peer_ports_[rank]));
  }
  {
    Encoder enc;
    enc.PutU32Vector(peer_ports_);
    QCM_RETURN_IF_ERROR(WriteFrame(
        slot.fd, Frame{FrameKind::kPeers, kCoordinatorRank, enc.Release()}));
  }
  // kReady arrives only after the replacement has dialed every survivor,
  // so the mesh is complete here.
  QCM_RETURN_IF_ERROR(ReadFrame(slot.fd, &frame));
  if (frame.kind != FrameKind::kReady) {
    return Status::Corruption(std::string("expected ready, got ") +
                              FrameKindName(frame.kind));
  }

  // 5. Reset the slot's bookkeeping and hand the connection to a fresh
  // receiver before releasing the replacement.
  {
    std::lock_guard<std::mutex> lock(mu_);
    slot.status = WireRankStatus{};
    slot.status_seq = 0;
    slot.report_received = false;
    slot.report.clear();
    slot.disconnected = false;
    slot.superseded = false;
    liveness_->Arm(rank, NowSec());
    ++restarts_[rank];
  }
  SetRecvTimeout(slot.fd, 0);
  slot.recv_thread = std::thread([this, rank] { RecvLoop(rank); });
  QCM_RETURN_IF_ERROR(SendTo(rank, FrameKind::kStart, {}));

  // 6. Survivors re-open the pair: their transports wait for the
  // replacement's dial (already done -- kReady proves it) and re-request
  // in-flight pulls (engine OnPeerUp).
  const std::string up = EncodePeerEvent(static_cast<uint32_t>(rank), epoch);
  for (int r = 0; r < world; ++r) {
    if (r == rank) continue;
    QCM_RETURN_IF_ERROR(SendTo(r, FrameKind::kPeerUp, up));
  }

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

uint64_t Coordinator::RankPid(int rank) const {
  if (rank < 0 || rank >= config_.world_size) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return rank_pid_[rank];
}

bool Coordinator::SnapshotStatus(int rank, WireRankStatus* out) const {
  if (rank < 0 || rank >= config_.world_size) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (workers_[rank].status_seq == 0) return false;
  *out = workers_[rank].status;
  return true;
}

Status Coordinator::Broadcast(FrameKind kind, const std::string& payload) {
  for (int rank = 0; rank < config_.world_size; ++rank) {
    QCM_RETURN_IF_ERROR(SendTo(rank, kind, payload));
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
  std::vector<WireRankStatus> cand(world);
  std::vector<uint64_t> cand_seq(world);

  // Steal mastering bookkeeping: local estimates so repeated sweeps do
  // not re-plan the same move before fresh statuses arrive.
  WallTimer steal_timer;

  while (!failed_.load()) {
    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::max(config_.sweep_period_sec, 1e-5)));

    // Liveness first: declare heartbeat-silent ranks dead, then run any
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
      for (int r : expired) RequestRecovery(r, "heartbeat-timeout");
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

    std::vector<WireRankStatus> statuses(world);
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

    // Steal mastering: the sched/steal_planner.h plan, with link RTTs
    // estimated from the per-rank delivery latencies the workers publish.
    if (config_.steal_period_sec > 0 && world >= 2 &&
        steal_timer.Seconds() >= config_.steal_period_sec) {
      steal_timer.Reset();
      std::vector<uint64_t> counts(world);
      for (int r = 0; r < world; ++r) {
        counts[r] = statuses[r].pending_big;
        if (statuses[r].delivery_latency_usec != 0) {
          rtt_->RecordInbound(
              r, 1e-6 * static_cast<double>(
                            statuses[r].delivery_latency_usec));
        }
      }
      StealPlannerOptions opts;
      opts.base_batch = config_.steal_batch_cap;
      opts.rtt_reference_sec = config_.steal_rtt_reference_sec;
      opts.max_batch_factor = config_.steal_max_batch_factor;
      for (const StealMove& move : PlanSteals(counts, opts, rtt_.get())) {
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

void AppendStatsCounterEvents(int rank, const WireStatsSample& sample,
                              std::vector<std::string>* events) {
  auto counter = [&](const char* name, uint64_t value) {
    events->push_back("{\"name\":\"" + std::string(name) +
                      "\",\"cat\":\"stats\",\"ph\":\"C\",\"ts\":" +
                      std::to_string(sample.ts_usec) +
                      ",\"pid\":" + std::to_string(rank) +
                      ",\"tid\":0,\"args\":{\"value\":" +
                      std::to_string(value) + "}}");
  };
  counter("queue_depth", sample.queue_depth);
  counter("inflight_bytes", sample.inflight_bytes);
  counter("busy_compers", sample.busy_compers);
  counter("tasks_completed", sample.tasks_completed);
  counter("cache_hits", sample.cache_hits);
  counter("cache_misses", sample.cache_misses);
  counter("pending_tasks",
          sample.pending < 0 ? 0 : static_cast<uint64_t>(sample.pending));
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
