#include "net/tcp_transport.h"

#include <unistd.h>

#include <chrono>
#include <utility>

#include "net/socket_util.h"
#include "util/logging.h"
#include "util/serde.h"
#include "util/timer.h"
#include "util/trace.h"

namespace qcm {

namespace {

/// Bring-up steps must not hang forever when a process dies mid-handshake.
constexpr double kHandshakeTimeoutSec = 60.0;

/// A peer closing its sockets during an orderly shutdown can be observed
/// before our own kTerminate has been processed (the broadcast and the
/// peer's teardown race on different connections). EOF only counts as a
/// crash if no termination arrives within this window.
constexpr double kPeerEofGraceSec = 10.0;

/// Dial retry policy: a worker forked a moment before its target listens
/// (the coordinator at launch, a survivor's listener while the host is
/// briefly saturated) deserves a few patient attempts before the bring-up
/// fails.
constexpr int kConnectAttempts = 8;
constexpr int64_t kConnectBackoffBaseUsec = 20000;  // 20ms, doubling

StatusOr<int> ConnectTcpRetry(const std::string& host, uint16_t port) {
  int64_t backoff = kConnectBackoffBaseUsec;
  StatusOr<int> fd = Status::IOError("unreachable");
  for (int attempt = 0; attempt < kConnectAttempts; ++attempt) {
    fd = ConnectTcp(host, port);
    if (fd.ok()) return fd;
    ::usleep(static_cast<useconds_t>(backoff));
    backoff *= 2;
  }
  return fd;
}

}  // namespace

StatusOr<std::unique_ptr<TcpTransport>> TcpTransport::ConnectWorker(
    const std::string& host, uint16_t port) {
  std::unique_ptr<TcpTransport> t(new TcpTransport());

  // 1. open the peer listener, whose port the hello carries. It stays
  // open for the whole run: a crashed peer's replacement dials back in
  // through it long after bring-up.
  uint16_t peer_port = 0;
  auto listener = ListenLoopback(0, &peer_port);
  QCM_RETURN_IF_ERROR(listener.status());
  t->listen_fd_ = listener.value();

  // 2. hello -> rank assignment -> every rank's peer port.
  auto coord = ConnectTcpRetry(host, port);
  QCM_RETURN_IF_ERROR(coord.status());
  t->coord_fd_ = coord.value();
  SetRecvTimeout(t->coord_fd_, kHandshakeTimeoutSec);
  QCM_RETURN_IF_ERROR(
      WriteFrame(t->coord_fd_, Frame{FrameKind::kHello, kUnassignedRank,
                                     EncodeHello(peer_port)}));
  Frame frame;
  QCM_RETURN_IF_ERROR(
      ReadFrameOfKind(t->coord_fd_, FrameKind::kAssign, &frame));
  uint32_t rank = 0;
  uint32_t world = 0;
  QCM_RETURN_IF_ERROR(DecodeAssign(frame.payload, &rank, &world,
                                   &t->config_blob_, &t->epoch_));
  if (world == 0 || rank >= world) {
    return Status::Corruption("bad rank assignment " + std::to_string(rank) +
                              "/" + std::to_string(world));
  }
  t->rank_ = static_cast<int>(rank);
  t->world_size_ = static_cast<int>(world);
  t->peer_fds_.assign(world, -1);
  t->peer_mus_.clear();
  for (uint32_t i = 0; i < world; ++i) {
    t->peer_mus_.push_back(std::make_unique<std::mutex>());
  }
  t->sent_to_.assign(world, 0);
  t->peer_epoch_.assign(world, 0u);
  t->peer_down_flags_ = std::make_unique<std::atomic<bool>[]>(world);
  for (uint32_t i = 0; i < world; ++i) t->peer_down_flags_[i].store(false);
  t->recv_peer_threads_.resize(world);
  QCM_RETURN_IF_ERROR(
      ReadFrameOfKind(t->coord_fd_, FrameKind::kPeers, &frame));
  std::vector<uint32_t> ports;
  QCM_RETURN_IF_ERROR(Decoder(frame.payload).GetU32Vector(&ports));
  if (ports.size() != world) {
    return Status::Corruption("peer port list size mismatch");
  }

  // 3. build the mesh. First incarnation: dial every lower rank, accept
  // every higher one (a deterministic pairing with no dial/accept
  // races). Replacement incarnation: every survivor is already up with a
  // persistent accept loop, so dial ALL of them and accept none. A step
  // that fails returns at once; the transport's destructor closes every
  // socket it holds.
  const bool dial_all = t->epoch_ > 0;
  for (uint32_t r = 0; r < world; ++r) {
    if (r == rank || (!dial_all && r > rank)) continue;
    auto fd = ConnectTcpRetry(host, static_cast<uint16_t>(ports[r]));
    QCM_RETURN_IF_ERROR(fd.status());
    t->peer_fds_[r] = fd.value();
    QCM_RETURN_IF_ERROR(WriteFrame(
        fd.value(),
        Frame{FrameKind::kPeerHello, rank, EncodePeerHello(t->epoch_)}));
  }
  for (uint32_t i = rank + 1; i < world && !dial_all; ++i) {
    auto fd = AcceptTcp(t->listen_fd_, kHandshakeTimeoutSec);
    QCM_RETURN_IF_ERROR(fd.status());
    int peer = -1;
    uint32_t peer_epoch = 0;
    Status s = t->ReadPeerHello(fd.value(), &peer, &peer_epoch);
    if (s.ok() && (peer < static_cast<int>(rank) || t->peer_fds_[peer] != -1)) {
      s = Status::Corruption("unexpected peer hello from rank " +
                             std::to_string(peer));
    }
    if (!s.ok()) {
      CloseSocket(fd.value());
      return s;
    }
    t->peer_fds_[peer] = fd.value();
  }
  SetRecvTimeout(t->coord_fd_, 0);
  return t;
}

Status TcpTransport::ReadPeerHello(int fd, int* peer, uint32_t* epoch) const {
  SetRecvTimeout(fd, kHandshakeTimeoutSec);
  Frame hello;
  QCM_RETURN_IF_ERROR(ReadFrameOfKind(fd, FrameKind::kPeerHello, &hello));
  if (hello.src >= static_cast<uint32_t>(world_size_) ||
      hello.src == static_cast<uint32_t>(rank_)) {
    return Status::Corruption("peer hello from bad rank " +
                              std::to_string(hello.src));
  }
  QCM_RETURN_IF_ERROR(DecodePeerHello(hello.payload, epoch));
  *peer = static_cast<int>(hello.src);
  SetRecvTimeout(fd, 0);
  return Status::OK();
}

TcpTransport::~TcpTransport() { Shutdown(); }

void TcpTransport::SetDataHandler(DataHandler handler) {
  QCM_CHECK(!started_.load()) << "SetDataHandler after Start";
  data_handler_ = std::move(handler);
}

void TcpTransport::SetControlHooks(ControlHooks hooks) {
  QCM_CHECK(!started_.load()) << "SetControlHooks after Start";
  hooks_ = std::move(hooks);
}

Status TcpTransport::Start() {
  QCM_CHECK(!started_.load()) << "Start called twice";
  QCM_RETURN_IF_ERROR(WriteTo(
      coord_fd_, coord_mu_,
      Frame{FrameKind::kReady, static_cast<uint32_t>(rank_), {}}));
  SetRecvTimeout(coord_fd_, kHandshakeTimeoutSec);
  Frame frame;
  QCM_RETURN_IF_ERROR(ReadFrameOfKind(coord_fd_, FrameKind::kStart, &frame));
  SetRecvTimeout(coord_fd_, 0);
  started_.store(true);
  coord_recv_thread_ = std::thread([this] { RecvCoordinatorLoop(); });
  {
    std::lock_guard<std::mutex> lock(recv_threads_mu_);
    for (int r = 0; r < world_size_; ++r) {
      if (r == rank_) continue;
      int fd = -1;
      {
        // The coordinator thread may already be running a kPeerDown
        // transition for this peer, which retires its fd.
        std::lock_guard<std::mutex> peer_lock(*peer_mus_[r]);
        fd = peer_fds_[r];
      }
      if (fd < 0) continue;
      recv_peer_threads_[r] = std::thread([this, r, fd] {
        RecvPeerLoop(r, fd);
      });
    }
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

TransportFlushStats TcpTransport::FlushStats() const {
  std::lock_guard<std::mutex> lock(flush_stats_mu_);
  return flush_stats_;
}

Status TcpTransport::SendData(int dst, uint8_t type, std::string payload) {
  QCM_CHECK(dst >= 0 && dst < world_size_ && dst != rank_)
      << "SendData to bad rank " << dst;
  if (payload.size() + kDataFrameMetaBytes > kMaxFramePayload) {
    // Fail at the cause (an oversized fabric message, e.g. a pull batch
    // of enormous adjacency lists) instead of letting the receiver
    // reject an inexplicable frame and blame the connection.
    Status s = Status::InvalidArgument(
        "fabric message of " + std::to_string(payload.size()) +
        " bytes exceeds the wire cap; lower --pull-batch or the batch "
        "size");
    Fail(s.ToString());
    return s;
  }
  // The send timestamp is stamped before the per-peer lock, so the
  // receiver's transit measurement and the park statistic both include
  // the wait for a concurrent sender's write to the same peer.
  const uint64_t send_usec = static_cast<uint64_t>(NowMicros());
  const DataFrameParts parts = EncodeDataFrameParts(
      static_cast<uint32_t>(rank_), type, send_usec, payload);
  const WireSlice slices[] = {{parts.head.data(), parts.head.size()},
                              {payload.data(), payload.size()},
                              {parts.trailer.data(), parts.trailer.size()}};
  const size_t frame_bytes =
      parts.head.size() + payload.size() + parts.trailer.size();
  uint64_t syscalls = 0;
  uint64_t written_usec = 0;
  Status s;
  {
    std::lock_guard<std::mutex> lock(*peer_mus_[dst]);
    const int fd = peer_fds_[dst];
    if (peer_down_flags_[dst].load(std::memory_order_relaxed) || fd < 0) {
      // Peer is between its down and up transitions: drop the frame,
      // uncounted. Whatever mattered in it is replayed by the recovery
      // protocol (steal batches from the donor's retained copies,
      // vertex pulls by the broker's re-request on peer-up).
      return Status::OK();
    }
    // Counted under the same lock that orders the frame onto the wire:
    // the destination can only process a frame the counter already
    // covers, so sent_to[dst] >= the peer's processed_from[us] in every
    // snapshot the termination detector takes.
    ++sent_to_[dst];
    // Span covers the write syscall(s) of this frame; arg = frame bytes.
    QCM_TRACE_SPAN(trace::kNet, "frame_write", frame_bytes);
    s = WriteFrameSlices(fd, slices, &syscalls);
    written_usec = static_cast<uint64_t>(NowMicros());
  }
  {
    std::lock_guard<std::mutex> lock(flush_stats_mu_);
    flush_stats_.flushes += syscalls;
    ++flush_stats_.flushed_frames;
    flush_stats_.flushed_bytes += frame_bytes;
    if (written_usec > send_usec) {
      flush_stats_.park_usec_sum += written_usec - send_usec;
    }
    ++flush_stats_.bytes_hist[FlushBytesBucketIndex(frame_bytes)];
  }
  if (!s.ok()) {
    // A write error to a live-looking peer is almost always a peer that
    // just died (EPIPE before its kPeerDown reached us). Do NOT fail the
    // run: if the peer really died the coordinator declares it and the
    // pair's counters reset; if it did not, the now-stale sent counter
    // blocks termination until the coordinator's sweep timeout surfaces
    // the problem loudly.
    QCM_WLOG << "rank " << rank_ << ": dropped send to rank " << dst
             << " (" << s.ToString() << "); awaiting liveness verdict";
  }
  return Status::OK();
}

void TcpTransport::PublishStatus(const RankStatus& status) {
  RankStatus wire = status;
  // The engine filled processed_from before this call; the sent_to
  // snapshot is taken after, keeping any inconsistency in the
  // conservative sent > processed direction (which can only delay
  // termination, never declare it early).
  wire.processed_from.resize(static_cast<size_t>(world_size_), 0);
  wire.sent_to.assign(static_cast<size_t>(world_size_), 0);
  for (int r = 0; r < world_size_; ++r) {
    if (r == rank_) continue;
    std::lock_guard<std::mutex> lock(*peer_mus_[r]);
    wire.sent_to[r] = sent_to_[r];
  }
  // Failures surface through the coordinator receive loop; a lost status
  // frame only delays detection.
  (void)WriteTo(coord_fd_, coord_mu_,
                Frame{FrameKind::kStatus, static_cast<uint32_t>(rank_),
                      EncodeRankStatus(wire)});
}

Status TcpTransport::SendReport(const std::string& payload) {
  return WriteTo(coord_fd_, coord_mu_,
                 Frame{FrameKind::kReport, static_cast<uint32_t>(rank_),
                       payload});
}

void TcpTransport::SendAbort(const std::string& reason) {
  (void)WriteTo(coord_fd_, coord_mu_,
                Frame{FrameKind::kAbort, static_cast<uint32_t>(rank_),
                      reason});
}

std::string TcpTransport::failure() const {
  std::lock_guard<std::mutex> lock(failure_mu_);
  return failure_;
}

void TcpTransport::Fail(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(failure_mu_);
    if (failure_.empty()) failure_ = reason;
  }
  failed_.store(true, std::memory_order_release);
  NotifyStateChange();
  // Unblock the engine: a dead connection can never deliver kTerminate.
  if (hooks_.on_terminate) hooks_.on_terminate();
}

void TcpTransport::NotifyStateChange() {
  // The lock orders the notify against a waiter's predicate re-check.
  std::lock_guard<std::mutex> lock(state_mu_);
  state_cv_.notify_all();
}

Status TcpTransport::WriteTo(int fd, std::mutex& mu, const Frame& frame) {
  if (fd < 0) return Status::Aborted("connection closed");
  std::lock_guard<std::mutex> lock(mu);
  return WriteFrame(fd, frame);
}

void TcpTransport::MarkPeerDown(int peer, uint32_t epoch) {
  std::lock_guard<std::mutex> transition(down_transition_mu_);
  int old_fd = -1;
  {
    std::lock_guard<std::mutex> lock(*peer_mus_[peer]);
    if (epoch <= peer_epoch_[peer]) return;  // stale or already handled
    peer_epoch_[peer] = epoch;
    peer_down_flags_[peer].store(true, std::memory_order_release);
    old_fd = peer_fds_[peer];
    peer_fds_[peer] = -1;
    // Symmetric counter reset: the replacement starts every counter at
    // zero, so this side of the pair must too (the engine hook resets
    // the processed_from direction).
    sent_to_[peer] = 0;
  }
  NotifyStateChange();
  // Quiesce the old incarnation's receive path completely before the
  // engine hook runs: after on_peer_down returns, no frame from the old
  // incarnation can ever be delivered.
  if (old_fd >= 0) ShutdownSocket(old_fd);
  std::thread old_recv;
  {
    std::lock_guard<std::mutex> lock(recv_threads_mu_);
    old_recv = std::move(recv_peer_threads_[peer]);
  }
  if (old_recv.joinable()) old_recv.join();
  if (old_fd >= 0) CloseSocket(old_fd);
  QCM_ILOG << "rank " << rank_ << ": peer rank " << peer
           << " down (epoch " << epoch << ")";
  if (hooks_.on_peer_down) hooks_.on_peer_down(peer);
}

void TcpTransport::HandlePeerUp(int peer, uint32_t epoch) {
  // The replacement's kPeerHello travels on its own data connection and
  // has no ordering against the coordinator's kPeerUp; wait (bounded)
  // for the accept thread to swap the new connection in.
  {
    std::unique_lock<std::mutex> lock(state_mu_);
    state_cv_.wait_for(
        lock, std::chrono::duration<double>(kHandshakeTimeoutSec),
        [this, peer] {
          return shutdown_.load() || failed_.load() ||
                 !peer_down_flags_[peer].load(std::memory_order_acquire);
        });
  }
  if (shutdown_.load() || failed_.load()) return;
  bool up = false;
  {
    std::lock_guard<std::mutex> lock(*peer_mus_[peer]);
    up = !peer_down_flags_[peer].load(std::memory_order_relaxed) &&
         peer_epoch_[peer] == epoch && peer_fds_[peer] >= 0;
  }
  if (!up) {
    Fail("peer-up for rank " + std::to_string(peer) + " (epoch " +
         std::to_string(epoch) +
         ") but its replacement never connected here");
    return;
  }
  QCM_ILOG << "rank " << rank_ << ": peer rank " << peer
           << " back up (epoch " << epoch << ")";
  if (hooks_.on_peer_up) hooks_.on_peer_up(peer);
}

void TcpTransport::AcceptLoop() {
  while (!shutdown_.load() && !failed_.load()) {
    // Blocks until a dial arrives or Shutdown() shuts the listener down.
    auto fd = AcceptTcp(listen_fd_, /*timeout_sec=*/0);
    if (!fd.ok()) continue;  // the loop condition sees a shutdown
    if (shutdown_.load() || failed_.load()) {
      CloseSocket(fd.value());
      return;
    }
    int peer = -1;
    uint32_t hello_epoch = 0;
    Status s = ReadPeerHello(fd.value(), &peer, &hello_epoch);
    if (!s.ok()) {
      QCM_WLOG << "rank " << rank_ << ": rejected inbound peer connection: "
               << s.ToString();
      CloseSocket(fd.value());
      continue;
    }
    // The replacement's hello can outrun the coordinator's kPeerDown
    // (different connections): run the down transition here first. A
    // no-op when kPeerDown already did it.
    MarkPeerDown(peer, hello_epoch);
    bool accepted = false;
    {
      std::lock_guard<std::mutex> lock(*peer_mus_[peer]);
      if (peer_epoch_[peer] == hello_epoch &&
          peer_down_flags_[peer].load(std::memory_order_relaxed)) {
        peer_fds_[peer] = fd.value();
        peer_down_flags_[peer].store(false, std::memory_order_release);
        accepted = true;
      }
    }
    if (!accepted) {
      // A superseded incarnation (or an epoch-0 dial outside bring-up).
      CloseSocket(fd.value());
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(recv_threads_mu_);
      const int new_fd = fd.value();
      recv_peer_threads_[peer] = std::thread([this, peer, new_fd] {
        RecvPeerLoop(peer, new_fd);
      });
    }
    NotifyStateChange();  // wake a HandlePeerUp waiting for the swap
  }
}

void TcpTransport::RecvCoordinatorLoop() {
  Frame frame;
  for (;;) {
    Status s = ReadFrame(coord_fd_, &frame);
    if (!s.ok()) {
      // EOF after termination is the normal coordinator goodbye.
      if (!terminate_received_.load() && !shutdown_.load()) {
        Fail("coordinator connection lost: " + s.ToString());
      }
      return;
    }
    switch (frame.kind) {
      case FrameKind::kTerminate:
        terminate_received_.store(true, std::memory_order_release);
        NotifyStateChange();
        if (hooks_.on_terminate) hooks_.on_terminate();
        break;
      case FrameKind::kStealCmd: {
        uint32_t receiver = 0;
        uint64_t want = 0;
        if (!DecodeStealCmd(frame.payload, &receiver, &want).ok() ||
            receiver >= static_cast<uint32_t>(world_size_)) {
          Fail("corrupt steal command");
          return;
        }
        if (hooks_.on_steal_command) {
          hooks_.on_steal_command(static_cast<int>(receiver), want);
        }
        break;
      }
      case FrameKind::kPeerDown:
      case FrameKind::kPeerUp: {
        uint32_t peer = 0;
        uint32_t ep = 0;
        if (!DecodePeerEvent(frame.payload, &peer, &ep).ok() ||
            peer >= static_cast<uint32_t>(world_size_) ||
            peer == static_cast<uint32_t>(rank_)) {
          Fail("corrupt peer event");
          return;
        }
        if (frame.kind == FrameKind::kPeerDown) {
          MarkPeerDown(static_cast<int>(peer), ep);
        } else {
          HandlePeerUp(static_cast<int>(peer), ep);
        }
        break;
      }
      case FrameKind::kAbort:
        Fail("coordinator aborted: " + frame.payload);
        return;
      default:
        Fail(std::string("unexpected control frame: ") +
             FrameKindName(frame.kind));
        return;
    }
  }
}

void TcpTransport::RecvPeerLoop(int peer, int fd) {
  Frame frame;
  for (;;) {
    Status s = ReadFrame(fd, &frame);
    if (!s.ok()) {
      // Peers close their sockets after global termination -- which this
      // rank may learn about a moment later on a different connection --
      // and a crashed peer's EOF is usually explained by a kPeerDown
      // moments later. Only an EOF that neither termination nor a peer-
      // death verdict explains within the grace window fails the run.
      {
        std::unique_lock<std::mutex> lock(state_mu_);
        state_cv_.wait_for(
            lock, std::chrono::duration<double>(kPeerEofGraceSec),
            [this, peer] {
              return terminate_received_.load() || shutdown_.load() ||
                     failed_.load() ||
                     peer_down_flags_[peer].load(std::memory_order_acquire);
            });
      }
      if (!terminate_received_.load() && !shutdown_.load() &&
          !peer_down_flags_[peer].load(std::memory_order_acquire)) {
        Fail("peer rank " + std::to_string(peer) +
             " connection lost: " + s.ToString());
      }
      return;
    }
    uint8_t type = 0;
    uint64_t send_ts_usec = 0;
    std::string body;
    if (frame.kind != FrameKind::kData ||
        frame.src != static_cast<uint32_t>(peer) ||
        !SplitDataFramePayload(frame.payload, &type, &send_ts_usec, &body)
             .ok()) {
      // A frame torn by the peer dying mid-write is a death symptom, not
      // corruption; the liveness verdict decides.
      if (peer_down_flags_[peer].load(std::memory_order_acquire)) return;
      Fail("corrupt data frame from rank " + std::to_string(peer));
      return;
    }
    // Receiver-measured transit: the sender's write + wire time. The
    // steady clock is shared across processes on one machine; clamp at
    // zero so cross-host clock offset can only under-report, never
    // poison the delivery-latency counters with garbage.
    const uint64_t now = static_cast<uint64_t>(NowMicros());
    const uint64_t transit = now > send_ts_usec ? now - send_ts_usec : 0;
    data_handler_(peer, type, std::move(body), transit);
  }
}

void TcpTransport::Shutdown() {
  if (shutdown_.exchange(true)) return;
  NotifyStateChange();
  // Unblock the receive and accept threads first; fds stay valid until
  // they joined (closing a socket another thread still reads from invites
  // fd reuse). Shutting the listener down wakes a blocked accept at once.
  ShutdownSocket(listen_fd_);
  ShutdownSocket(coord_fd_);
  {
    std::lock_guard<std::mutex> lock(recv_threads_mu_);
    for (int r = 0; r < world_size_; ++r) {
      if (r == rank_) continue;
      std::lock_guard<std::mutex> peer_lock(*peer_mus_[r]);
      ShutdownSocket(peer_fds_[r]);
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (coord_recv_thread_.joinable()) coord_recv_thread_.join();
  std::vector<std::thread> recvs;
  {
    std::lock_guard<std::mutex> lock(recv_threads_mu_);
    recvs = std::move(recv_peer_threads_);
    recv_peer_threads_.clear();
  }
  for (std::thread& th : recvs) {
    if (th.joinable()) th.join();
  }
  CloseSocket(coord_fd_);
  coord_fd_ = -1;
  CloseSocket(listen_fd_);
  listen_fd_ = -1;
  for (int& fd : peer_fds_) {
    CloseSocket(fd);
    fd = -1;
  }
}

}  // namespace qcm
