// Transport: the machine-boundary seam of the CommFabric (paper §5: one
// engine per machine, coordinated by a master).
//
// The engine and fabric are written against this interface only. Every
// engine runs ONE machine (the transport's rank), whether the ranks are
// threads of one process (net/local_cluster.h) or processes
// (qcm_cluster); either way the master (net/coordinator.h) starts each
// rank as it admits it, so a rank's thread or process is the one its
// assignment names, and a replacement is started the same way. A fabric
// send to another rank is handed to the transport as one data frame (the
// TCP transport writes it on the sending thread, one frame per write),
// arriving frames are injected into the local fabric by the transport's
// receive thread, and the control plane (status publication up, steal
// commands and the termination signal down) connects the engine to the
// coordinator.
//
// Termination-detection contract (the engine's drain invariant across
// processes): a rank publishes a RankStatus (net/wire.h) whose {pending,
// spawn_done, sent_to[], processed_from[], pending_big} are the detection
// inputs (the rest is telemetry). The coordinator may declare global
// termination only after two consecutive sweeps in which every rank
// reported pending == 0 and spawn_done, for every ordered pair (i, j)
// rank i's sent_to[j] equals rank j's processed_from[i], and no rank's
// counters moved between the sweeps (each rank must have published a
// fresh, unchanged status in between). Senders count a data frame as
// sent *before* it can possibly be processed, and receivers fold a
// frame's pending-task delta into `pending` *before* counting it
// processed, so any in-flight or unprocessed frame shows up as either
// sent > processed or pending > 0 in every consistent snapshot.
//
// Where a kPullRequest counts as processed: not on arrival, but on the
// receiver's pull-responder thread (gthinker/comm.h) once it has served
// the request and sent the kPullResponse. The response is therefore
// counted as sent before its request counts as processed, so a request
// waiting at the responder or being answered keeps sent > processed on
// its pair, and its answer keeps sent > processed on the reverse pair
// until the requester folds it in: no snapshot can show the exchange as
// finished while either half is still in flight.
//
// The per-pair form (rather than global totals) is what lets a rank be
// replaced mid-run: when rank R dies, every survivor resets sent_to[R]
// and processed_from[R] to zero and R's replacement starts all its
// counters at zero, so both sides of every dead pair stay consistent
// while live pairs are untouched. Before a survivor resets
// processed_from[R], it drops R's requests still queued at its responder
// and waits out one being answered, so no late increment from the dead
// incarnation can land after the reset.

#ifndef QCM_NET_TRANSPORT_H_
#define QCM_NET_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <string>

#include "net/wire.h"
#include "util/status.h"

namespace qcm {

/// Bytes-per-write histogram buckets: <256, <1K, <2K, <4K, <16K, <64K,
/// <256K, >=256K.
inline constexpr int kFlushBytesBuckets = 8;

inline int FlushBytesBucketIndex(uint64_t bytes) {
  if (bytes < 256) return 0;
  if (bytes < 1024) return 1;
  if (bytes < 2048) return 2;
  if (bytes < 4096) return 3;
  if (bytes < 16384) return 4;
  if (bytes < 65536) return 5;
  if (bytes < 262144) return 6;
  return 7;
}

/// Aggregate data-plane write statistics of a transport: how many write
/// syscalls its data frames took and how long each frame waited for its
/// write. Mirrored into EngineCounters as the net_flush_* fields after a
/// run.
struct TransportFlushStats {
  /// Write syscalls issued for data frames (one per frame unless a
  /// partial write forces more).
  uint64_t flushes = 0;
  /// Data frames and frame bytes those writes moved.
  uint64_t flushed_frames = 0;
  uint64_t flushed_bytes = 0;
  /// Total microseconds from each frame's send timestamp to the end of
  /// its write: the per-peer lock wait plus the syscall. Divide by
  /// flushed_frames for the mean per frame.
  uint64_t park_usec_sum = 0;
  /// Bytes-per-write histogram (see FlushBytesBucketIndex).
  uint64_t bytes_hist[kFlushBytesBuckets] = {0, 0, 0, 0, 0, 0, 0, 0};
};

class Transport {
 public:
  /// Invoked on a receive thread for every arriving fabric data frame.
  /// It must neither block nor write to a socket: two ranks whose receive
  /// threads each waited on the other would deadlock.
  /// `wire_transit_usec` is the receiver-measured transit time (now minus
  /// the frame's sender timestamp, clamped at 0): the sender's write plus
  /// wire time. Meaningful across processes on one machine; only
  /// clock-offset-approximate across hosts.
  using DataHandler = std::function<void(
      int src, uint8_t type, std::string payload, uint64_t wire_transit_usec)>;

  /// Control-plane callbacks, invoked on a receive thread.
  struct ControlHooks {
    /// Global quiescence was declared; the engine must shut down.
    std::function<void()> on_terminate;
    /// The coordinator's balancing plan wants `want` big tasks moved from
    /// this rank to `receiver`.
    std::function<void(int receiver, uint64_t want)> on_steal_command;
    /// Rank `peer` was declared dead. Invoked after the transport has
    /// stopped delivering frames from that peer's old incarnation and
    /// reset its own sent_to[peer]; the engine drops that incarnation's
    /// requests still at its pull responder, resets processed_from[peer]
    /// and re-injects any retained steal batches it had shipped there.
    std::function<void(int peer)> on_peer_down;
    /// Rank `peer`'s replacement is connected and started; safe to
    /// re-request anything lost in flight (e.g. unanswered vertex pulls).
    std::function<void(int peer)> on_peer_up;
  };

  virtual ~Transport() = default;

  /// This process's machine id / total machine count.
  virtual int rank() const = 0;
  virtual int world_size() const = 0;

  /// Installs the handlers. Must be called before Start(); frames never
  /// arrive earlier.
  virtual void SetDataHandler(DataHandler handler) = 0;
  virtual void SetControlHooks(ControlHooks hooks) = 0;

  /// Releases the receive path (and, for the TCP transport, the cluster
  /// start barrier). Returns once data and control frames may flow.
  virtual Status Start() = 0;

  /// Ships one fabric message to `dst`'s process. Counts it in the
  /// status's sent_to[dst] before the bytes can reach the destination.
  /// Takes the payload by value so callers can std::move it in; the TCP
  /// transport writes the frame straight from that buffer with one
  /// scatter-gather write before returning — no second copy of the
  /// payload bytes is ever made.
  /// A send to a peer currently marked dead is silently dropped and not
  /// counted (the recovery protocol replays or re-requests what matters);
  /// it still returns OK.
  virtual Status SendData(int dst, uint8_t type, std::string payload) = 0;

  /// False while `peer` is marked dead (between its peer-down and
  /// peer-up transitions). Engines consult this before volunteering work
  /// to a peer (e.g. serving a steal command naming a dead receiver).
  virtual bool PeerAlive(int peer) const {
    (void)peer;
    return true;
  }

  /// This rank's incarnation number: 0 on first launch, >0 when this
  /// process is a replacement for a crashed rank (it then replays its
  /// predecessor's checkpoint).
  virtual uint32_t epoch() const { return 0; }

  /// Data-plane write statistics accumulated so far (all zeros for
  /// transports that write no sockets).
  virtual TransportFlushStats FlushStats() const { return {}; }

  /// Publishes this rank's status to whoever runs detection (the cluster
  /// coordinator): the termination and steal inputs, and the telemetry
  /// the coordinator samples. The stream is also the rank's liveness
  /// signal. The engine fills every field but sent_to; the transport
  /// adds its own per-peer sent_to counters at publish time (processed
  /// is read first, keeping any inconsistency in the conservative
  /// sent > processed direction).
  virtual void PublishStatus(const RankStatus& status) = 0;

  /// False once a connection failed before clean termination; the engine
  /// then reports an error instead of pretending its partial state is a
  /// completed run.
  virtual bool healthy() const { return true; }
};

}  // namespace qcm

#endif  // QCM_NET_TRANSPORT_H_
