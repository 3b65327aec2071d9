// CommFabric: the single asynchronous message substrate for every
// cross-machine transfer of the simulated cluster (paper §5's codesign:
// all network traffic -- batched vertex pulls and master-coordinated big-
// task steals -- overlaps with mining instead of blocking it).
//
// Each transfer is a typed message (kPullRequest, kPullResponse,
// kStealBatch) carrying a serialized payload. One latency model applies:
// a message becomes deliverable net_latency_sec of wall time after the
// send. At 0 s it is deliverable at once, while positive latency parks it
// in flight -- exactly the window the VertexCache and the big-task queues
// must hide. Where a due message goes depends on its type:
//
//   * kPullResponse and kStealBatch wait in the destination machine's
//     inbox; that machine's compers collect due messages once per
//     scheduling loop (Scheduler::ServiceFabric).
//   * kPullRequest never reaches a comper. Every request waits in the
//     queue of the process's one pull-responder thread (StartResponder),
//     which sleeps until the oldest request is due, serves it from the
//     owner's read-only vertex table (PullBroker::ServeRequest), sends the
//     kPullResponse, and only then reports the request served. This is
//     the paper's G-thinker communication thread: a request is answered
//     while the owner's compers keep mining, instead of waiting for one of
//     them to finish its task.
//
// Delivery is FIFO per queue: due times are monotone in enqueue order
// (the fabric clock only moves forward), so popping from a queue head
// while the head is due preserves send order.
//
// The fabric never blocks a sender and never loses messages: pending-task
// accounting keeps the engine alive while anything meaningful is in
// flight (parked tasks and stolen batches are still counted in
// Engine::pending_), and Drain() hands back undelivered messages -- inbox
// and responder queue alike -- at termination for inspection.
//
// Process-per-machine mode (paper §5 run for real): with a Transport
// injected, this process hosts exactly one machine (the transport's
// rank). Send() to any other machine frames the message as a kData wire
// frame and ships it over the transport instead of enqueueing it
// in-process; the transport's receive thread hands arriving frames back
// through Inject(), which enqueues them under the same latency model.
// Injection only enqueues: a receive thread never serves a request or
// writes to a socket, so two ranks' receive threads can never block on
// each other. Everything downstream of the queues -- FIFO order, the
// responder, drain semantics, metrics -- is one code path shared by both
// modes, so a message's meaning never depends on whether it crossed a
// thread boundary or a socket.

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
#include "sched/rtt.h"
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

/// One in-flight transfer.
struct Message {
  MessageType type = MessageType::kPullRequest;
  int src = 0;
  int dst = 0;
  std::string payload;
  /// Fabric clock (seconds since construction) at enqueue / earliest
  /// wall-clock delivery.
  double enqueue_sec = 0.0;
  double due_sec = 0.0;
  /// Process-per-machine mode only: receiver-measured wire transit
  /// (sender stamp to receive thread, microseconds) of a message that
  /// arrived over the transport -- coalescing dwell plus wire time.
  /// Zero for in-process messages.
  uint64_t wire_transit_usec = 0;
};

class CommFabric {
 public:
  /// `latency_sec` models the network delay of every message (see file
  /// comment). `counters` may be null. `transport` null = simulated mode
  /// (all machines in-process); non-null = process-per-machine mode,
  /// where only the transport's rank is local and remote sends ride the
  /// wire (see file comment).
  CommFabric(int num_machines, double latency_sec, EngineCounters* counters,
             Transport* transport = nullptr);

  /// Stops the responder thread (StopResponder).
  ~CommFabric();

  CommFabric(const CommFabric&) = delete;
  CommFabric& operator=(const CommFabric&) = delete;

  /// Answers one kPullRequest addressed to machine `owner` with its
  /// kPullResponse payload (the owner's PullBroker::ServeRequest).
  using PullServer =
      std::function<std::string(int owner, const std::string& request)>;

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

  /// Optional probe returning how many compers of a machine are busy
  /// mining; sampled at enqueue time for the overlap-ratio metric.
  void SetBusyProbe(std::function<int(int machine)> probe);

  /// Optional per-link latency tracker (sched/rtt.h): every delivery
  /// folds its observed enqueue->delivery latency into the (src, dst)
  /// EWMA, which is what the latency-aware steal planner reads. Must
  /// outlive the fabric.
  void SetRttTracker(LinkRttTracker* tracker) { rtt_ = tracker; }

  /// Enqueues a message. Never blocks; a kPullRequest goes to the
  /// responder queue, anything else to the destination's inbox, where its
  /// first service once due delivers it. In process-per-machine mode a
  /// remote destination ships the message over the transport instead.
  void Send(MessageType type, int src, int dst, std::string payload);

  /// Process-per-machine receive path: enqueues a message that arrived
  /// over the transport exactly as Send() would for the local machine
  /// (same latency model, same routing by type). Called by the transport's
  /// receive thread (via the engine's data handler).
  /// `wire_transit_usec` is the receiver-measured transit time of the
  /// frame (sender send-timestamp to receive thread): it is added to the
  /// message's observed delivery latency so the latency metrics and the
  /// steal planner's RTT EWMAs see real wire time, not just inbox dwell.
  void Inject(MessageType type, int src, std::string payload,
              uint64_t wire_transit_usec = 0);

  /// Pops every inbox message for `dst` that is now due, in enqueue
  /// order. Called by the destination machine's compers once per
  /// scheduling loop; never returns a kPullRequest.
  std::vector<Message> Service(int dst);

  /// Pops every undelivered message for `dst` regardless of due time --
  /// queued pull requests first, then the inbox (termination drain;
  /// counted in msg_drained, not msg_delivered).
  std::vector<Message> Drain(int dst);

  /// Messages not yet delivered or answered across all destinations: the
  /// inboxes, the responder queue, and a request being served.
  size_t InFlight() const;

  /// Payload bytes of the messages InFlight() counts.
  uint64_t InFlightBytes() const;

  double latency_sec() const { return latency_sec_; }

 private:
  struct Inbox {
    mutable std::mutex mu;
    std::deque<Message> q;
  };

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
  void Enqueue(Message m, bool count_send);
  void ResponderLoop();

  double latency_sec_;
  EngineCounters* counters_;
  Transport* transport_;
  LinkRttTracker* rtt_ = nullptr;
  /// The one machine hosted by this process (-1 in simulated mode).
  int local_rank_;
  std::function<int(int)> busy_probe_;
  WallTimer clock_;
  std::vector<std::unique_ptr<Inbox>> inboxes_;
  Responder responder_;
};

}  // namespace qcm

#endif  // QCM_GTHINKER_COMM_H_
