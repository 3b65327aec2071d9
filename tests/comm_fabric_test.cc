// CommFabric unit tests: FIFO ordering, wall-clock-delayed delivery,
// drain-at-termination (no message lost), the pull responder (requests
// never reach an inbox, are answered once due, and a dead source's
// requests can be dropped), and the message accounting counters
// (per-type sent/delivered/bytes, in-flight gauge, queue depth, latency
// histogram, overlap sampling).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "gthinker/comm.h"
#include "util/timer.h"

namespace qcm {
namespace {

/// Services `dst` until a message arrives or 10 s pass (the responder
/// answers on its own thread).
std::vector<Message> AwaitService(CommFabric& fabric, int dst) {
  WallTimer waited;
  std::vector<Message> due = fabric.Service(dst);
  while (due.empty() && waited.Seconds() < 10.0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    due = fabric.Service(dst);
  }
  return due;
}

TEST(CommFabricTest, ZeroLatencyDeliversOnNextServiceInFifoOrder) {
  EngineCounters counters;
  CommFabric fabric(2, /*latency_sec=*/0, &counters);
  fabric.Send(MessageType::kStealBatch, 0, 1, "a");
  fabric.Send(MessageType::kPullResponse, 0, 1, "bb");
  fabric.Send(MessageType::kStealBatch, 0, 1, "ccc");
  EXPECT_EQ(fabric.InFlight(), 3u);
  EXPECT_EQ(fabric.InFlightBytes(), 6u);

  // Nothing for machine 0.
  EXPECT_TRUE(fabric.Service(0).empty());

  auto due = fabric.Service(1);
  ASSERT_EQ(due.size(), 3u);
  EXPECT_EQ(due[0].payload, "a");
  EXPECT_EQ(due[1].payload, "bb");
  EXPECT_EQ(due[2].payload, "ccc");
  EXPECT_EQ(due[0].type, MessageType::kStealBatch);
  EXPECT_EQ(due[1].type, MessageType::kPullResponse);
  EXPECT_EQ(due[2].type, MessageType::kStealBatch);
  EXPECT_EQ(due[0].src, 0);
  EXPECT_EQ(due[0].dst, 1);
  EXPECT_EQ(fabric.InFlight(), 0u);
  EXPECT_EQ(fabric.InFlightBytes(), 0u);
}

TEST(CommFabricTest, PullRequestsAreAnsweredByTheResponderNeverAComper) {
  EngineCounters counters;
  CommFabric fabric(2, /*latency_sec=*/0, &counters);
  fabric.Send(MessageType::kPullRequest, 0, 1, "req");
  // The request waits for the responder, not in machine 1's inbox.
  EXPECT_TRUE(fabric.Service(1).empty());
  EXPECT_EQ(fabric.InFlight(), 1u);
  EXPECT_EQ(fabric.InFlightBytes(), 3u);

  std::atomic<int> served_src{-1};
  fabric.StartResponder(
      [](int owner, const std::string& request) {
        return "adj" + std::to_string(owner) + ":" + request;
      },
      [&served_src](int src) { served_src.store(src); });
  auto due = AwaitService(fabric, 0);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].type, MessageType::kPullResponse);
  EXPECT_EQ(due[0].src, 1);
  EXPECT_EQ(due[0].dst, 0);
  EXPECT_EQ(due[0].payload, "adj1:req");
  // The served hook runs only after the response was sent.
  fabric.StopResponder();
  EXPECT_EQ(served_src.load(), 0);
  EXPECT_TRUE(fabric.Service(1).empty());
  EXPECT_EQ(fabric.InFlight(), 0u);
  const int req = static_cast<int>(MessageType::kPullRequest);
  const int resp = static_cast<int>(MessageType::kPullResponse);
  EXPECT_EQ(counters.msg_delivered[req].load(), 1u);
  EXPECT_EQ(counters.msg_sent[resp].load(), 1u);
  EXPECT_EQ(counters.msg_delivered[resp].load(), 1u);
  EXPECT_EQ(counters.msg_inflight_bytes.load(), 0u);
}

TEST(CommFabricTest, ResponderAnswersOnlyOnceTheRequestIsDue) {
  EngineCounters counters;
  CommFabric fabric(2, /*latency_sec=*/0.03, &counters);
  fabric.StartResponder(
      [](int, const std::string& request) { return request; });
  WallTimer round_trip;
  fabric.Send(MessageType::kPullRequest, 0, 1, "r");
  auto due = AwaitService(fabric, 0);
  ASSERT_EQ(due.size(), 1u);
  // Both legs paid the modeled latency: the request at the responder,
  // the response in the requester's inbox.
  EXPECT_GE(round_trip.Seconds(), 0.06);
}

TEST(CommFabricTest, DropRequestsFromDiscardsOnlyThatSource) {
  EngineCounters counters;
  // An hour of latency: nothing can become due during the test.
  CommFabric fabric(3, /*latency_sec=*/3600, &counters);
  std::atomic<int> served{0};
  fabric.StartResponder([](int, const std::string& r) { return r; },
                        [&served](int) { served.fetch_add(1); });
  fabric.Send(MessageType::kPullRequest, 0, 2, "a");
  fabric.Send(MessageType::kPullRequest, 1, 2, "bb");
  fabric.Send(MessageType::kPullRequest, 0, 2, "ccc");
  EXPECT_EQ(fabric.DropRequestsFrom(0), 2u);
  EXPECT_EQ(fabric.DropRequestsFrom(0), 0u);
  EXPECT_EQ(fabric.InFlight(), 1u);
  EXPECT_EQ(fabric.InFlightBytes(), 2u);
  EXPECT_EQ(counters.msg_inflight_bytes.load(), 2u);
  fabric.StopResponder();
  auto drained = fabric.Drain(2);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].src, 1);
  EXPECT_EQ(drained[0].payload, "bb");
  EXPECT_EQ(served.load(), 0);
}

TEST(CommFabricTest, DropRequestsFromWaitsOutTheRequestBeingServed) {
  EngineCounters counters;
  CommFabric fabric(2, /*latency_sec=*/0, &counters);
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> served{0};
  fabric.StartResponder(
      [&entered, released](int, const std::string& r) {
        entered.set_value();
        released.wait();
        return r;
      },
      [&served](int) { served.fetch_add(1); });
  fabric.Send(MessageType::kPullRequest, 0, 1, "x");
  entered.get_future().wait();  // the responder is answering it now

  std::atomic<bool> drop_returned{false};
  std::thread dropper([&] {
    EXPECT_EQ(fabric.DropRequestsFrom(0), 0u);
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
  CommFabric fabric(1, /*latency_sec=*/0.02, &counters);
  fabric.Send(MessageType::kStealBatch, 0, 0, "slow");
  // Not due until 20 ms of wall time have passed.
  EXPECT_TRUE(fabric.Service(0).empty());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  auto due = fabric.Service(0);
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
  CommFabric fabric(2, /*latency_sec=*/3600, &counters);
  fabric.Send(MessageType::kPullRequest, 0, 1, "p");
  fabric.Send(MessageType::kStealBatch, 0, 1, "steal-payload");
  EXPECT_TRUE(fabric.Service(1).empty());  // far from due
  EXPECT_EQ(fabric.InFlight(), 2u);

  // Termination: nothing may be lost even though nothing was due.
  auto drained = fabric.Drain(1);
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].payload, "p");
  EXPECT_EQ(drained[1].payload, "steal-payload");
  EXPECT_EQ(fabric.InFlight(), 0u);
  EXPECT_EQ(fabric.InFlightBytes(), 0u);
  EXPECT_EQ(counters.msg_drained.load(), 2u);
  // Drained messages are not "delivered".
  for (int t = 0; t < kNumMessageTypes; ++t) {
    EXPECT_EQ(counters.msg_delivered[t].load(), 0u);
  }
  EXPECT_EQ(counters.msg_inflight_bytes.load(), 0u);
}

TEST(CommFabricTest, CountersTrackBytesDepthAndOverlap) {
  EngineCounters counters;
  CommFabric fabric(2, 0, &counters);
  int busy = 0;
  fabric.SetBusyProbe([&busy](int) { return busy; });

  fabric.Send(MessageType::kStealBatch, 0, 1, "1234");  // idle dst
  busy = 2;
  fabric.Send(MessageType::kPullResponse, 0, 1, "56");  // busy dst
  const int steal = static_cast<int>(MessageType::kStealBatch);
  const int resp = static_cast<int>(MessageType::kPullResponse);
  EXPECT_EQ(counters.msg_sent[steal].load(), 1u);
  EXPECT_EQ(counters.msg_sent[resp].load(), 1u);
  EXPECT_EQ(counters.msg_bytes[steal].load(), 4u);
  EXPECT_EQ(counters.msg_bytes[resp].load(), 2u);
  EXPECT_EQ(counters.msg_inflight_bytes_peak.load(), 6u);
  EXPECT_EQ(counters.msg_queue_depth_peak.load(), 2u);
  EXPECT_EQ(counters.msg_overlapped.load(), 1u);

  auto due = fabric.Service(1);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(counters.msg_delivered[steal].load(), 1u);
  EXPECT_EQ(counters.msg_delivered[resp].load(), 1u);
  EXPECT_EQ(counters.msg_inflight_bytes.load(), 0u);

  EngineCountersSnapshot snap = EngineCountersSnapshot::From(counters);
  EXPECT_EQ(snap.MessagesSent(), 2u);
  EXPECT_EQ(snap.MessageBytes(), 6u);
  EXPECT_DOUBLE_EQ(snap.MessageOverlapRatio(), 0.5);
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
  EXPECT_STREQ(MsgLatencyBucketLabel(0), "<10us");
  EXPECT_STREQ(MsgLatencyBucketLabel(kMsgLatencyBuckets - 1), ">=10s");
}

}  // namespace
}  // namespace qcm
