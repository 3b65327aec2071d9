// TcpTransport: the worker-process side of the multi-process deployment.
//
// One instance lives in each qcm_worker process (or rank thread of an
// in-process cluster), which the coordinator's launch callback started.
// ConnectWorker() runs the full bring-up against the cluster coordinator:
// open the peer listener, hello with its port -> rank assignment -> every
// rank's peer port -> full data-plane mesh. A first-incarnation
// worker (epoch 0) dials every lower rank and accepts every higher one; a
// replacement worker (epoch > 0, relaunched by the coordinator after its
// predecessor crashed) dials every peer and accepts none -- the survivors'
// persistent accept threads swap the new connection in. Every accepted
// peer connection, in bring-up and in the persistent accept loop alike,
// is identified by one ReadPeerHello, and every bring-up read from the
// coordinator names the kind it expects (ReadFrameOfKind, wire.h).
// Start() then releases the start barrier (kReady / kStart) and spawns
// the receive threads and the persistent peer-accept thread.
//
// Data plane: SendData frames one CommFabric message per kData frame and
// writes it on the calling thread, straight onto the rank-to-rank socket
// as one zero-copy {head, payload, trailer} scatter-gather write. The
// per-peer mutex guards the socket, the peer's liveness state AND the
// per-peer sent counter, so frame order is preserved and a frame is
// counted sent_to[dst] if and only if it was actually accepted for a
// live peer. A send to a peer marked dead is dropped, uncounted, and
// still returns OK (the recovery protocol replays or re-requests what
// matters); a write error to a peer not yet declared dead drops the
// frame WITHOUT failing the run -- either the peer really died (its
// control connection closes or its status deadline passes, so the
// coordinator declares it and resets the pair's counters) or the stale
// sent counter blocks termination until the coordinator's sweep timeout
// fails the run loudly.
//
// Control plane (coordinator connection): PublishStatus sends kStatus up,
// the rank's only periodic upward frame and so its liveness signal
// (per-peer sent_to snapshot taken at publish time, after the engine's
// processed_from, keeping any inconsistency in the conservative
// sent > processed direction); kStealCmd / kTerminate invoke the
// engine's control hooks; kPeerDown runs the idempotent peer-down
// transition (quiesce the link, join its receive thread, reset
// sent_to[peer], then the engine hook); kPeerUp waits until the
// replacement's connection has been swapped in and fires the engine's
// peer-up hook. kAbort or an unexplained coordinator connection loss
// marks the transport failed -- a cluster with a dead COORDINATOR never
// hangs, it fails loudly; a dead worker is the recoverable case.

#ifndef QCM_NET_TCP_TRANSPORT_H_
#define QCM_NET_TCP_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/transport.h"
#include "net/wire.h"
#include "util/status.h"

namespace qcm {

class TcpTransport : public Transport {
 public:
  /// Runs the worker bring-up against a coordinator listening on
  /// `host:port`: peer listener, hello, rank assignment, peer mesh.
  /// Blocks until the mesh is complete (every peer link established) or
  /// a step fails. Every dial retries with backoff, so a briefly
  /// saturated host does not fail the bring-up.
  static StatusOr<std::unique_ptr<TcpTransport>> ConnectWorker(
      const std::string& host, uint16_t port);

  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  // ---- Transport ----
  int rank() const override { return rank_; }
  int world_size() const override { return world_size_; }
  void SetDataHandler(DataHandler handler) override;
  void SetControlHooks(ControlHooks hooks) override;
  Status Start() override;
  Status SendData(int dst, uint8_t type, std::string payload) override;
  TransportFlushStats FlushStats() const override;
  void PublishStatus(const RankStatus& status) override;
  bool healthy() const override { return !failed(); }
  bool PeerAlive(int peer) const override {
    return !peer_down_flags_[peer].load(std::memory_order_acquire);
  }
  uint32_t epoch() const override { return epoch_; }

  // ---- worker-process extras (not part of the engine-facing seam) ----

  /// Opaque job configuration delivered with the rank assignment.
  const std::string& config_blob() const { return config_blob_; }

  /// Ships the final EngineReport/result blob to the coordinator.
  Status SendReport(const std::string& payload);

  /// Tells the coordinator this worker failed (best effort).
  void SendAbort(const std::string& reason);

  /// True once the coordinator declared global termination; false while
  /// running or if a connection died first.
  bool terminated() const {
    return terminate_received_.load(std::memory_order_acquire);
  }

  /// True if any connection failed before a clean termination.
  bool failed() const { return failed_.load(std::memory_order_acquire); }

  /// First recorded failure reason (empty when !failed()).
  std::string failure() const;

  /// Closes every connection and joins the receive threads. Idempotent.
  void Shutdown();

 private:
  TcpTransport() = default;

  /// Reads a dialing peer's kPeerHello on the accepted `fd` (bounded by
  /// the bring-up timeout, which it clears on success): the peer's rank,
  /// from the frame's src, and its incarnation epoch. Corruption for any
  /// other frame kind or a src that names this rank or no rank.
  Status ReadPeerHello(int fd, int* peer, uint32_t* epoch) const;
  void RecvCoordinatorLoop();
  /// Reads data frames from one incarnation of a peer; `fd` is fixed for
  /// the thread's lifetime (a replacement's connection gets a new
  /// thread).
  void RecvPeerLoop(int peer, int fd);
  /// Persistent accept loop on the peer listener: swaps a replacement
  /// rank's new connection in (running the down transition first when
  /// its kPeerHello outruns the coordinator's kPeerDown). Blocks in
  /// accept without a timeout; Shutdown() wakes it by shutting the
  /// listener down.
  void AcceptLoop();
  /// Idempotent peer-down transition to successor epoch `epoch`: marks
  /// the peer dead, quiesces and joins its receive thread, resets
  /// sent_to_[peer], then fires the engine's on_peer_down hook. No-op
  /// when `epoch` is not newer than the peer's current epoch -- but only
  /// once any transition already under way has finished, so a caller
  /// that goes on to swap in the replacement's connection never
  /// overtakes the hook.
  void MarkPeerDown(int peer, uint32_t epoch);
  /// kPeerUp handler: waits (bounded) for the accept thread to swap the
  /// replacement's connection in, then fires the engine's on_peer_up
  /// hook.
  void HandlePeerUp(int peer, uint32_t epoch);
  void Fail(const std::string& reason);
  /// Wakes threads blocked on the terminated/failed/shutdown/peer state
  /// (the peer-EOF grace wait, the peer-up wait).
  void NotifyStateChange();
  Status WriteTo(int fd, std::mutex& mu, const Frame& frame);

  int rank_ = -1;
  int world_size_ = 0;
  uint32_t epoch_ = 0;
  std::string config_blob_;

  int coord_fd_ = -1;
  std::mutex coord_mu_;
  /// Peer-listener fd; stays open for the whole run so a replacement
  /// rank can dial in after a crash.
  int listen_fd_ = -1;
  /// Rank -> connected socket (self slot unused, -1). Guarded by
  /// peer_mus_[rank].
  std::vector<int> peer_fds_;
  std::vector<std::unique_ptr<std::mutex>> peer_mus_;
  /// Guarded by peer_mus_[rank]: data frames accepted for the wire to
  /// that peer's CURRENT incarnation (reset by MarkPeerDown).
  std::vector<uint64_t> sent_to_;
  /// Guarded by peer_mus_[rank]: epoch of the peer incarnation this rank
  /// is (or was last) connected to.
  std::vector<uint32_t> peer_epoch_;
  /// Lock-free mirror of "peer is between down and up transitions";
  /// written under peer_mus_[rank].
  std::unique_ptr<std::atomic<bool>[]> peer_down_flags_;

  mutable std::mutex flush_stats_mu_;
  TransportFlushStats flush_stats_;

  DataHandler data_handler_;
  ControlHooks hooks_;

  std::atomic<bool> started_{false};
  std::atomic<bool> terminate_received_{false};
  std::atomic<bool> failed_{false};
  std::atomic<bool> shutdown_{false};
  mutable std::mutex failure_mu_;
  std::string failure_;
  std::mutex state_mu_;
  std::condition_variable state_cv_;

  std::thread coord_recv_thread_;
  std::thread accept_thread_;
  /// Rank -> the receive thread of that peer's current incarnation.
  /// Guarded by recv_threads_mu_ (spawned by Start/AcceptLoop, joined by
  /// MarkPeerDown/Shutdown).
  std::mutex recv_threads_mu_;
  std::vector<std::thread> recv_peer_threads_;
  /// Held for a whole MarkPeerDown. The coordinator's kPeerDown and the
  /// replacement's kPeerHello race on different threads; without this, the
  /// loser could see the epoch already bumped, return, and let the
  /// replacement's frames be counted before the hook resets the pair.
  std::mutex down_transition_mu_;
};

}  // namespace qcm

#endif  // QCM_NET_TCP_TRANSPORT_H_
