// CommFabric unit tests: FIFO ordering, wall-clock-delayed delivery,
// drain-at-termination (no message lost), the pull responder (requests
// never reach an inbox, are answered once due, and a dead source's
// requests can be dropped), and the message accounting counters
// (per-type sent/delivered/bytes, in-flight gauge, queue depth, latency
// histogram, overlap sampling; the in-flight gauge never wraps while
// other threads deliver). Each machine has its own fabric; the
// fabrics talk over an in-memory transport and share one counter set.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gthinker/comm.h"
#include "memory_transport.h"
#include "util/timer.h"

namespace qcm {
namespace {

/// Services `fabric` until a message arrives or 10 s pass (the responder
/// answers on its own thread).
std::vector<Message> AwaitService(CommFabric& fabric) {
  WallTimer waited;
  std::vector<Message> due = fabric.Service();
  while (due.empty() && waited.Seconds() < 10.0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    due = fabric.Service();
  }
  return due;
}

/// `n` machines, each with its own fabric over one in-memory network;
/// every fabric models `latency_sec` and counts into `counters`.
struct Fabrics {
  Fabrics(int n, double latency_sec, EngineCounters* counters) : net(n) {
    for (int r = 0; r < n; ++r) {
      fabrics.push_back(
          std::make_unique<CommFabric>(latency_sec, counters, net.at(r)));
      CommFabric* f = fabrics.back().get();
      net.at(r)->SetDataHandler(
          [f](int src, uint8_t type, std::string payload, uint64_t transit) {
            f->Inject(static_cast<MessageType>(type), src, std::move(payload),
                      transit);
          });
    }
  }
  /// A responder may still be inside another fabric's Inject: stop them
  /// all before any fabric goes.
  ~Fabrics() {
    for (auto& f : fabrics) f->StopResponder();
  }
  CommFabric& operator[](int r) { return *fabrics[r]; }

  MemoryNetwork net;
  std::vector<std::unique_ptr<CommFabric>> fabrics;
};

TEST(CommFabricTest, ZeroLatencyDeliversOnNextServiceInFifoOrder) {
  EngineCounters counters;
  Fabrics fabric(2, /*latency_sec=*/0, &counters);
  fabric[0].Send(MessageType::kStealBatch, 1, "a");
  fabric[0].Send(MessageType::kPullResponse, 1, "bb");
  fabric[0].Send(MessageType::kStealBatch, 1, "ccc");
  EXPECT_EQ(fabric[1].InFlight(), 3u);
  EXPECT_EQ(fabric[1].InFlightBytes(), 6u);

  // Nothing for machine 0.
  EXPECT_TRUE(fabric[0].Service().empty());

  auto due = fabric[1].Service();
  ASSERT_EQ(due.size(), 3u);
  EXPECT_EQ(due[0].payload, "a");
  EXPECT_EQ(due[1].payload, "bb");
  EXPECT_EQ(due[2].payload, "ccc");
  EXPECT_EQ(due[0].type, MessageType::kStealBatch);
  EXPECT_EQ(due[1].type, MessageType::kPullResponse);
  EXPECT_EQ(due[2].type, MessageType::kStealBatch);
  EXPECT_EQ(due[0].src, 0);
  EXPECT_EQ(fabric[1].InFlight(), 0u);
  EXPECT_EQ(fabric[1].InFlightBytes(), 0u);
}

TEST(CommFabricTest, PullRequestsAreAnsweredByTheResponderNeverAComper) {
  EngineCounters counters;
  Fabrics fabric(2, /*latency_sec=*/0, &counters);
  fabric[0].Send(MessageType::kPullRequest, 1, "req");
  // The request waits for the responder, not in machine 1's inbox.
  EXPECT_TRUE(fabric[1].Service().empty());
  EXPECT_EQ(fabric[1].InFlight(), 1u);
  EXPECT_EQ(fabric[1].InFlightBytes(), 3u);

  std::atomic<int> served_src{-1};
  fabric[1].StartResponder(
      [](const std::string& request) { return "adj:" + request; },
      [&served_src](int src) { served_src.store(src); });
  auto due = AwaitService(fabric[0]);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].type, MessageType::kPullResponse);
  EXPECT_EQ(due[0].src, 1);
  EXPECT_EQ(due[0].payload, "adj:req");
  // The served hook runs only after the response was sent.
  fabric[1].StopResponder();
  EXPECT_EQ(served_src.load(), 0);
  EXPECT_TRUE(fabric[1].Service().empty());
  EXPECT_EQ(fabric[1].InFlight(), 0u);
  const int req = static_cast<int>(MessageType::kPullRequest);
  const int resp = static_cast<int>(MessageType::kPullResponse);
  EXPECT_EQ(counters.msg_delivered[req].load(), 1u);
  EXPECT_EQ(counters.msg_sent[resp].load(), 1u);
  EXPECT_EQ(counters.msg_delivered[resp].load(), 1u);
  EXPECT_EQ(counters.msg_inflight_bytes.load(), 0u);
}

TEST(CommFabricTest, ResponderAnswersOnlyOnceTheRequestIsDue) {
  EngineCounters counters;
  Fabrics fabric(2, /*latency_sec=*/0.03, &counters);
  fabric[1].StartResponder([](const std::string& request) { return request; });
  WallTimer round_trip;
  fabric[0].Send(MessageType::kPullRequest, 1, "r");
  auto due = AwaitService(fabric[0]);
  ASSERT_EQ(due.size(), 1u);
  // Both legs paid the modeled latency: the request at the responder,
  // the response in the requester's inbox.
  EXPECT_GE(round_trip.Seconds(), 0.06);
}

TEST(CommFabricTest, DropRequestsFromDiscardsOnlyThatSource) {
  EngineCounters counters;
  // An hour of latency: nothing can become due during the test.
  Fabrics fabric(3, /*latency_sec=*/3600, &counters);
  std::atomic<int> served{0};
  fabric[2].StartResponder([](const std::string& r) { return r; },
                           [&served](int) { served.fetch_add(1); });
  fabric[0].Send(MessageType::kPullRequest, 2, "a");
  fabric[1].Send(MessageType::kPullRequest, 2, "bb");
  fabric[0].Send(MessageType::kPullRequest, 2, "ccc");
  EXPECT_EQ(fabric[2].DropRequestsFrom(0), 2u);
  EXPECT_EQ(fabric[2].DropRequestsFrom(0), 0u);
  EXPECT_EQ(fabric[2].InFlight(), 1u);
  EXPECT_EQ(fabric[2].InFlightBytes(), 2u);
  EXPECT_EQ(counters.msg_inflight_bytes.load(), 2u);
  fabric[2].StopResponder();
  auto drained = fabric[2].Drain();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].src, 1);
  EXPECT_EQ(drained[0].payload, "bb");
  EXPECT_EQ(served.load(), 0);
}

TEST(CommFabricTest, DropRequestsFromWaitsOutTheRequestBeingServed) {
  EngineCounters counters;
  Fabrics fabric(2, /*latency_sec=*/0, &counters);
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> served{0};
  fabric[1].StartResponder(
      [&entered, released](const std::string& r) {
        entered.set_value();
        released.wait();
        return r;
      },
      [&served](int) { served.fetch_add(1); });
  fabric[0].Send(MessageType::kPullRequest, 1, "x");
  entered.get_future().wait();  // the responder is answering it now

  std::atomic<bool> drop_returned{false};
  std::thread dropper([&] {
    EXPECT_EQ(fabric[1].DropRequestsFrom(0), 0u);
    drop_returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(drop_returned.load());
  release.set_value();
  dropper.join();
  // The request's processed count landed before the drop returned, so a
  // caller resetting its per-source counters afterwards sees no late
  // increment.
  EXPECT_EQ(served.load(), 1);
}

TEST(CommFabricTest, WallClockLatencyDelaysDelivery) {
  EngineCounters counters;
  Fabrics fabric(2, /*latency_sec=*/0.02, &counters);
  fabric[0].Send(MessageType::kStealBatch, 1, "slow");
  // Not due until 20 ms of wall time have passed.
  EXPECT_TRUE(fabric[1].Service().empty());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  auto due = fabric[1].Service();
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].payload, "slow");
  // The observed latency lands in the >=10ms histogram buckets.
  uint64_t slow_buckets = 0;
  for (int b = MsgLatencyBucketIndex(0.01); b < kMsgLatencyBuckets; ++b) {
    slow_buckets += counters.msg_latency_hist[b].load();
  }
  EXPECT_EQ(slow_buckets, 1u);
}

TEST(CommFabricTest, DrainReturnsUndeliveredMessagesIntact) {
  EngineCounters counters;
  // An hour of latency: nothing can become due during the test.
  Fabrics fabric(2, /*latency_sec=*/3600, &counters);
  fabric[0].Send(MessageType::kPullRequest, 1, "p");
  fabric[0].Send(MessageType::kStealBatch, 1, "steal-payload");
  EXPECT_TRUE(fabric[1].Service().empty());  // far from due
  EXPECT_EQ(fabric[1].InFlight(), 2u);

  // Termination: nothing may be lost even though nothing was due.
  auto drained = fabric[1].Drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].payload, "p");
  EXPECT_EQ(drained[1].payload, "steal-payload");
  EXPECT_EQ(fabric[1].InFlight(), 0u);
  EXPECT_EQ(fabric[1].InFlightBytes(), 0u);
  EXPECT_EQ(counters.msg_drained.load(), 2u);
  // Drained messages are not "delivered".
  for (int t = 0; t < kNumMessageTypes; ++t) {
    EXPECT_EQ(counters.msg_delivered[t].load(), 0u);
  }
  EXPECT_EQ(counters.msg_inflight_bytes.load(), 0u);
}

TEST(CommFabricTest, CountersTrackBytesDepthAndOverlap) {
  EngineCounters counters;
  Fabrics fabric(2, 0, &counters);
  int busy = 0;
  fabric[1].SetBusyProbe([&busy] { return busy; });

  fabric[0].Send(MessageType::kStealBatch, 1, "1234");  // idle dst
  busy = 2;
  fabric[0].Send(MessageType::kPullResponse, 1, "56");  // busy dst
  const int steal = static_cast<int>(MessageType::kStealBatch);
  const int resp = static_cast<int>(MessageType::kPullResponse);
  EXPECT_EQ(counters.msg_sent[steal].load(), 1u);
  EXPECT_EQ(counters.msg_sent[resp].load(), 1u);
  EXPECT_EQ(counters.msg_bytes[steal].load(), 4u);
  EXPECT_EQ(counters.msg_bytes[resp].load(), 2u);
  EXPECT_EQ(counters.msg_inflight_bytes_peak.load(), 6u);
  EXPECT_EQ(counters.msg_queue_depth_peak.load(), 2u);
  EXPECT_EQ(counters.msg_overlapped.load(), 1u);

  auto due = fabric[1].Service();
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(counters.msg_delivered[steal].load(), 1u);
  EXPECT_EQ(counters.msg_delivered[resp].load(), 1u);
  EXPECT_EQ(counters.msg_inflight_bytes.load(), 0u);

  EngineCountersSnapshot snap = EngineCountersSnapshot::From(counters);
  EXPECT_EQ(snap.MessagesSent(), 2u);
  EXPECT_EQ(snap.MessageBytes(), 6u);
  EXPECT_DOUBLE_EQ(snap.MessageOverlapRatio(), 0.5);
}

TEST(CommFabricTest, InFlightBytesNeverWrapUnderConcurrentDelivery) {
  // Eight threads inject pull requests and steal batches into machine 1
  // while its responder answers the requests and a comper thread services
  // both inboxes, so a message is often delivered, on another thread,
  // right after it is queued. A delivery that subtracted its bytes before
  // the injection added them would wrap the unsigned gauge, and the next
  // injection would record a peak near 2^64.
  constexpr int kInjectors = 8;
  constexpr int kMessages = 10000;
  static constexpr size_t kTotal = size_t{kInjectors} * kMessages;
  EngineCounters counters;
  Fabrics fabric(2, /*latency_sec=*/0, &counters);
  fabric[1].StartResponder(
      [](const std::string& request) { return request + request; });
  std::thread comper([&fabric] {
    size_t delivered = 0;
    WallTimer waited;
    while (delivered < kTotal && waited.Seconds() < 30.0) {
      delivered += fabric[1].Service().size();  // steal batches
      delivered += fabric[0].Service().size();  // pull responses
    }
    EXPECT_EQ(delivered, kTotal);
  });
  std::vector<std::thread> injectors;
  for (int i = 0; i < kInjectors; ++i) {
    injectors.emplace_back([&fabric] {
      for (int m = 0; m < kMessages; ++m) {
        fabric[0].Send(m % 2 == 0 ? MessageType::kPullRequest
                                  : MessageType::kStealBatch,
                       1, "msg");
        std::this_thread::yield();
      }
    });
  }
  for (std::thread& t : injectors) t.join();
  comper.join();
  fabric[1].StopResponder();

  const uint64_t injected =
      EngineCountersSnapshot::From(counters).MessageBytes();
  EXPECT_EQ(injected, kTotal / 2 * (3 + 3 + 6));
  EXPECT_LE(counters.msg_inflight_bytes_peak.load(), injected);
  EXPECT_EQ(counters.msg_inflight_bytes.load(), 0u);
}

TEST(CommFabricTest, LatencyBucketBoundaries) {
  EXPECT_EQ(MsgLatencyBucketIndex(0.0), 0);
  EXPECT_EQ(MsgLatencyBucketIndex(5e-6), 0);
  EXPECT_EQ(MsgLatencyBucketIndex(5e-5), 1);
  EXPECT_EQ(MsgLatencyBucketIndex(5e-4), 2);
  EXPECT_EQ(MsgLatencyBucketIndex(5e-3), 3);
  EXPECT_EQ(MsgLatencyBucketIndex(5e-2), 4);
  EXPECT_EQ(MsgLatencyBucketIndex(0.5), 5);
  EXPECT_EQ(MsgLatencyBucketIndex(5.0), 6);
  EXPECT_EQ(MsgLatencyBucketIndex(50.0), kMsgLatencyBuckets - 1);
}

}  // namespace
}  // namespace qcm
