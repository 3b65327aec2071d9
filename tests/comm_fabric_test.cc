// CommFabric unit tests: FIFO ordering, wall-clock-delayed delivery,
// drain-at-termination (no message lost), and the message accounting
// counters (per-type sent/delivered/bytes, in-flight gauge,
// queue depth, latency histogram, overlap sampling).

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "gthinker/comm.h"

namespace qcm {
namespace {

TEST(CommFabricTest, ZeroLatencyDeliversOnNextServiceInFifoOrder) {
  EngineCounters counters;
  CommFabric fabric(2, /*latency_sec=*/0, &counters);
  fabric.Send(MessageType::kPullRequest, 0, 1, "a");
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
  EXPECT_EQ(due[0].type, MessageType::kPullRequest);
  EXPECT_EQ(due[1].type, MessageType::kPullResponse);
  EXPECT_EQ(due[2].type, MessageType::kStealBatch);
  EXPECT_EQ(due[0].src, 0);
  EXPECT_EQ(due[0].dst, 1);
  EXPECT_EQ(fabric.InFlight(), 0u);
  EXPECT_EQ(fabric.InFlightBytes(), 0u);
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

  fabric.Send(MessageType::kPullRequest, 0, 1, "1234");  // idle dst
  busy = 2;
  fabric.Send(MessageType::kPullResponse, 0, 1, "56");  // busy dst
  const int req = static_cast<int>(MessageType::kPullRequest);
  const int resp = static_cast<int>(MessageType::kPullResponse);
  EXPECT_EQ(counters.msg_sent[req].load(), 1u);
  EXPECT_EQ(counters.msg_sent[resp].load(), 1u);
  EXPECT_EQ(counters.msg_bytes[req].load(), 4u);
  EXPECT_EQ(counters.msg_bytes[resp].load(), 2u);
  EXPECT_EQ(counters.msg_inflight_bytes_peak.load(), 6u);
  EXPECT_EQ(counters.msg_queue_depth_peak.load(), 2u);
  EXPECT_EQ(counters.msg_overlapped.load(), 1u);

  auto due = fabric.Service(1);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(counters.msg_delivered[req].load(), 1u);
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
