// Pins for the derived-ratio metrics (gthinker/metrics.h): every ratio
// with a potentially-zero denominator must degrade to a finite, defined
// value -- never NaN or inf, which poison downstream JSON consumers and
// merged-report aggregation. Also pins MapToInputIds, which renames a
// report from the mined graph's ids to the input's.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "gthinker/metrics.h"

namespace qcm {
namespace {

TEST(BusyImbalanceTest, NoThreadsIsPerfectlyBalanced) {
  EngineReport report;
  EXPECT_DOUBLE_EQ(report.BusyImbalance(), 1.0);
}

TEST(BusyImbalanceTest, AllThreadsIdleIsPerfectlyBalanced) {
  EngineReport report;
  report.threads.resize(3);  // busy_seconds all 0.0
  EXPECT_DOUBLE_EQ(report.BusyImbalance(), 1.0);
}

TEST(BusyImbalanceTest, ThreadThatNeverRanYieldsZeroNotInf) {
  EngineReport report;
  report.threads.resize(2);
  report.threads[0].busy_seconds = 3.5;
  report.threads[1].busy_seconds = 0.0;  // max/min is undefined
  const double imbalance = report.BusyImbalance();
  EXPECT_DOUBLE_EQ(imbalance, 0.0);
  EXPECT_TRUE(std::isfinite(imbalance));
}

TEST(BusyImbalanceTest, NormalRatioIsMaxOverMin) {
  EngineReport report;
  report.threads.resize(3);
  report.threads[0].busy_seconds = 2.0;
  report.threads[1].busy_seconds = 4.0;
  report.threads[2].busy_seconds = 3.0;
  EXPECT_DOUBLE_EQ(report.BusyImbalance(), 2.0);
}

TEST(DerivedRatiosTest, CacheHitRatioWithNoDemandIsOne) {
  EngineCountersSnapshot counters;
  EXPECT_DOUBLE_EQ(counters.CacheHitRatio(), 1.0);
  counters.cache_hits = 3;
  counters.pin_hits = 1;
  counters.cache_misses = 4;
  EXPECT_DOUBLE_EQ(counters.CacheHitRatio(), 0.5);
}

TEST(DerivedRatiosTest, MessageOverlapRatioWithNoMessagesIsOne) {
  EngineCountersSnapshot counters;
  EXPECT_DOUBLE_EQ(counters.MessageOverlapRatio(), 1.0);
  counters.msg_sent[0] = 8;
  counters.msg_overlapped = 2;
  EXPECT_DOUBLE_EQ(counters.MessageOverlapRatio(), 0.25);
}

TEST(DerivedRatiosTest, MeanDeliveryLatencyWithNoDeliveriesIsZero) {
  EngineCountersSnapshot counters;
  counters.msg_latency_usec_sum = 12345;  // sum without deliveries
  EXPECT_DOUBLE_EQ(counters.MeanDeliveryLatencySeconds(), 0.0);
  counters.msg_delivered[1] = 2;
  EXPECT_DOUBLE_EQ(counters.MeanDeliveryLatencySeconds(), 12345 * 1e-6 / 2);
}

TEST(DerivedRatiosTest, FramesPerFlushWithNoFlushesIsZero) {
  EngineCountersSnapshot counters;
  counters.net_flush_frames = 7;  // frames recorded, flushes zero
  EXPECT_DOUBLE_EQ(counters.FramesPerFlush(), 0.0);
  counters.net_flushes = 2;
  EXPECT_DOUBLE_EQ(counters.FramesPerFlush(), 3.5);
}

TEST(DerivedRatiosTest, MeanFlushParkWithNoFramesIsZero) {
  EngineCountersSnapshot counters;
  counters.net_flush_park_usec = 99;
  EXPECT_DOUBLE_EQ(counters.MeanFlushParkUsec(), 0.0);
  counters.net_flush_frames = 3;
  EXPECT_DOUBLE_EQ(counters.MeanFlushParkUsec(), 33.0);
}

/// Every derived ratio stays finite on a default-constructed (all-zero)
/// snapshot -- the exact state a rank that died during bring-up reports.
TEST(DerivedRatiosTest, AllRatiosFiniteOnZeroSnapshot) {
  EngineCountersSnapshot counters;
  EXPECT_TRUE(std::isfinite(counters.CacheHitRatio()));
  EXPECT_TRUE(std::isfinite(counters.MessageOverlapRatio()));
  EXPECT_TRUE(std::isfinite(counters.MeanDeliveryLatencySeconds()));
  EXPECT_TRUE(std::isfinite(counters.FramesPerFlush()));
  EXPECT_TRUE(std::isfinite(counters.MeanFlushParkUsec()));
  EngineReport report;
  EXPECT_TRUE(std::isfinite(report.BusyImbalance()));
}

/// The launchers' map is a degeneracy order, not monotone: every mapped
/// set must come back sorted (FilterMaximal's subset probe and the
/// canonical digest rely on it, and only assert it), and every root must
/// be renamed.
TEST(MapToInputIdsTest, NonMonotoneMapSortsEverySetAndMapsEveryRoot) {
  const std::vector<VertexId> ids = {40, 10, 30, 0, 20};
  EngineReport report;
  report.results = {{0, 1, 2}, {1, 3, 4}, {0, 2, 4}, {3}, {}};
  for (VertexId root = 0; root < ids.size(); ++root) {
    report.root_tasks.push_back({.root = root, .tasks = root + 1});
  }
  MapToInputIds(ids, &report);
  const std::vector<VertexSet> want = {
      {10, 30, 40}, {0, 10, 20}, {20, 30, 40}, {0}, {}};
  EXPECT_EQ(report.results, want);
  ASSERT_EQ(report.root_tasks.size(), ids.size());
  for (VertexId root = 0; root < ids.size(); ++root) {
    EXPECT_EQ(report.root_tasks[root].root, ids[root]) << root;
    EXPECT_EQ(report.root_tasks[root].tasks, root + 1u) << root;
  }
}

}  // namespace
}  // namespace qcm
