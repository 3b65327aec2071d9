// CommFabric: one machine's asynchronous message endpoint for every
// cross-machine transfer (paper §5's codesign: all network traffic --
// batched vertex pulls and master-coordinated big-task steals -- overlaps
// with mining instead of blocking it).
//
// Each transfer is a typed message (kPullRequest, kPullResponse,
// kStealBatch) carrying a serialized payload. Send() ships a message to
// another machine over the Transport, as a kData wire frame; the
// transport's receive thread hands arriving frames back through Inject().
// Injection only enqueues: a receive thread never serves a request or
// writes to a socket, so two ranks' receive threads can never block on
// each other.
//
// One latency model applies on arrival: an injected message becomes
// deliverable net_latency_sec of wall time after it was enqueued. At 0 s
// it is deliverable at once, while positive latency parks it -- exactly
// the window the VertexCache and the big-task queues must hide. Where a
// due message goes depends on its type:
//
//   * kPullResponse and kStealBatch wait in the machine's inbox; its
//     compers collect due messages once per scheduling loop
//     (Scheduler::ServiceFabric).
//   * kPullRequest never reaches a comper. Every request waits in the
//     queue of the machine's pull-responder thread (StartResponder),
//     which sleeps until the oldest request is due, serves it from the
//     read-only vertex table (PullBroker::ServeRequest), sends the
//     kPullResponse, and only then reports the request served. This is
//     the paper's G-thinker communication thread: a request is answered
//     while the owner's compers keep mining, instead of waiting for one of
//     them to finish its task.
//
// Delivery is FIFO per queue: due times are monotone in enqueue order
// (the fabric clock only moves forward), so popping from a queue head
// while the head is due preserves arrival order.
//
// The fabric never blocks a sender and never loses messages: pending-task
// accounting keeps the engine alive while anything meaningful is in
// flight (parked tasks and stolen batches are still counted in the
// engine's pending tasks), and Drain() hands back undelivered messages --
// inbox and responder queue alike -- at termination for inspection.

#ifndef QCM_GTHINKER_COMM_H_
#define QCM_GTHINKER_COMM_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gthinker/metrics.h"
#include "net/transport.h"
#include "util/status.h"
#include "util/timer.h"

namespace qcm {

/// Every cross-machine transfer is exactly one of these.
enum class MessageType : uint8_t {
  /// Batched vertex-pull request: a U32Vector of wanted vertex ids,
  /// split at EngineConfig::max_pull_batch per message.
  kPullRequest = 0,
  /// Batched pull response: ids plus their adjacency lists.
  kPullResponse = 1,
  /// A batch of stolen big tasks (count + concatenated task encodings).
  kStealBatch = 2,
};

const char* MessageTypeName(MessageType type);

/// Number of tasks in a kStealBatch payload without decoding the tasks
/// (the receiving process must fold the count into its pending-task
/// accounting before the batch is even injected into the inbox).
StatusOr<uint32_t> StealBatchTaskCount(const std::string& payload);

/// One arrived transfer, addressed to this machine.
struct Message {
  MessageType type = MessageType::kPullRequest;
  int src = 0;
  std::string payload;
  /// Fabric clock (seconds since construction) at enqueue / earliest
  /// wall-clock delivery.
  double enqueue_sec = 0.0;
  double due_sec = 0.0;
  /// Receiver-measured wire transit (sender stamp to receive thread,
  /// microseconds) -- coalescing dwell plus wire time.
  uint64_t wire_transit_usec = 0;
};

class CommFabric {
 public:
  /// The endpoint of machine `transport->rank()`. `latency_sec` models
  /// the network delay of every arriving message (see file comment).
  /// `counters` may be null; `transport` must outlive the fabric.
  CommFabric(double latency_sec, EngineCounters* counters,
             Transport* transport);

  /// Stops the responder thread (StopResponder).
  ~CommFabric();

  CommFabric(const CommFabric&) = delete;
  CommFabric& operator=(const CommFabric&) = delete;

  /// Answers one kPullRequest with its kPullResponse payload (the
  /// machine's PullBroker::ServeRequest).
  using PullServer = std::function<std::string(const std::string& request)>;

  /// Starts the pull-responder thread (see file comment). Each request,
  /// once due, is answered by `serve` and its response sent back to the
  /// requester; `on_served(src)`, when set, runs after that send -- the
  /// moment the request counts as processed. Until the thread starts,
  /// requests wait in the responder queue. Call at most once.
  void StartResponder(PullServer serve,
                      std::function<void(int src)> on_served = nullptr);

  /// Stops and joins the responder thread after the request it is
  /// serving, if any. Requests still queued stay queued (Drain hands them
  /// back). Idempotent.
  void StopResponder();

  /// Recovery path: discards every queued request from machine `src` (a
  /// dead incarnation's; its responses could only be dropped) and waits
  /// until no request from `src` is being served. Once this returns, the
  /// responder reports nothing more from `src` until new requests arrive.
  /// Returns how many requests were dropped.
  size_t DropRequestsFrom(int src);

  /// Optional probe returning how many of this machine's compers are busy
  /// mining; sampled at enqueue time for the overlap-ratio metric.
  void SetBusyProbe(std::function<int()> probe);

  /// Ships a message to machine `dst` (any machine but this one) over the
  /// transport. Never blocks on the receiver.
  void Send(MessageType type, int dst, std::string payload);

  /// Receive path: enqueues a message from machine `src` under the
  /// latency model -- a kPullRequest into the responder queue, anything
  /// else into the inbox. Called by the transport's receive thread (via
  /// the engine's data handler), and by the engine to put work back into
  /// its own inbox. `wire_transit_usec` is the receiver-measured transit
  /// time of the frame (sender send-timestamp to receive thread): it is
  /// added to the message's observed delivery latency so the latency
  /// metrics see real wire time, not just inbox dwell.
  void Inject(MessageType type, int src, std::string payload,
              uint64_t wire_transit_usec = 0);

  /// Pops every inbox message that is now due, in enqueue order. Called
  /// by the machine's compers once per scheduling loop; never returns a
  /// kPullRequest.
  std::vector<Message> Service();

  /// Pops every undelivered message regardless of due time -- queued pull
  /// requests first, then the inbox (termination drain; counted in
  /// msg_drained, not msg_delivered).
  std::vector<Message> Drain();

  /// Messages not yet delivered or answered: the inbox, the responder
  /// queue, and a request being served.
  size_t InFlight() const;

  /// Payload bytes of the messages InFlight() counts.
  uint64_t InFlightBytes() const;

  int rank() const { return rank_; }
  double latency_sec() const { return latency_sec_; }

 private:
  /// The pull-responder thread's state (see file comment).
  struct Responder {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::deque<Message> q;
    /// Source machine and payload size of the request being served (-1
    /// when none).
    int serving_src = -1;
    uint64_t serving_bytes = 0;
    bool stop = false;
    PullServer serve;
    std::function<void(int)> on_served;
    std::thread thread;
  };

  void CountDelivery(const Message& m, double now);

  void ResponderLoop();

  double latency_sec_;
  EngineCounters* counters_;
  Transport* transport_;
  int rank_;
  std::function<int()> busy_probe_;
  WallTimer clock_;
  mutable std::mutex inbox_mu_;
  std::deque<Message> inbox_;
  Responder responder_;
};

}  // namespace qcm

#endif  // QCM_GTHINKER_COMM_H_
