// MetricShard / ShardScope: thread-confined metric buffering for the
// data-parallel rollout engine.  Writes under a scope land in the shard,
// merge() folds them into the shared instruments, and the disabled fast
// path stays untouched.
#include <gtest/gtest.h>

#include <thread>

#include "obs/metrics.h"

namespace dras::obs {
namespace {

class MetricShardTest : public ::testing::Test {
 protected:
  void TearDown() override { set_enabled(false); }
};

TEST_F(MetricShardTest, BuffersWritesUntilMerge) {
  set_enabled(true);
  Counter counter;
  Gauge gauge;
  HdrHistogram histogram;
  MetricShard shard;
  {
    ShardScope scope(shard);
    counter.add(2);
    counter.add(3);
    gauge.set(7.0);
    histogram.observe(1.5);
    histogram.observe(99.0);
    // Nothing reached the shared instruments yet.
    EXPECT_EQ(counter.value(), 0u);
    EXPECT_EQ(gauge.value(), 0.0);
    EXPECT_EQ(histogram.count(), 0u);
  }
  EXPECT_FALSE(shard.empty());
  shard.merge();
  EXPECT_TRUE(shard.empty());
  EXPECT_EQ(counter.value(), 5u);
  EXPECT_EQ(gauge.value(), 7.0);
  EXPECT_EQ(histogram.count(), 2u);
  EXPECT_EQ(histogram.bucket(histogram.index_of(1.5)), 1u);
  EXPECT_EQ(histogram.bucket(histogram.index_of(99.0)), 1u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 100.5);
  EXPECT_DOUBLE_EQ(histogram.min(), 1.5);
  EXPECT_DOUBLE_EQ(histogram.max(), 99.0);
}

TEST_F(MetricShardTest, ScopeRestoresPreviousTargetOnExit) {
  set_enabled(true);
  Counter counter;
  MetricShard outer;
  MetricShard inner;
  {
    ShardScope outer_scope(outer);
    counter.add(1);
    {
      ShardScope inner_scope(inner);
      counter.add(10);
    }
    counter.add(2);  // back to the outer shard
  }
  counter.add(100);  // no scope: straight to the instrument
  EXPECT_EQ(counter.value(), 100u);
  outer.merge();
  EXPECT_EQ(counter.value(), 103u);
  inner.merge();
  EXPECT_EQ(counter.value(), 113u);
}

TEST_F(MetricShardTest, GaugeSetClobbersBufferedDeltas) {
  set_enabled(true);
  Gauge gauge;
  gauge.absorb_set(50.0);
  MetricShard shard;
  {
    ShardScope scope(shard);
    gauge.add(5.0);
    gauge.set(1.0);  // clobbers the buffered +5
    gauge.add(2.0);
  }
  shard.merge();
  EXPECT_DOUBLE_EQ(gauge.value(), 3.0);  // set(1) then +2; the +5 is gone
}

TEST_F(MetricShardTest, GaugeDeltaOnlyMergesAsAdd) {
  set_enabled(true);
  Gauge gauge;
  gauge.absorb_set(10.0);
  MetricShard shard;
  {
    ShardScope scope(shard);
    gauge.add(5.0);
    gauge.add(-2.0);
  }
  shard.merge();
  EXPECT_DOUBLE_EQ(gauge.value(), 13.0);
}

TEST_F(MetricShardTest, DisabledWritesBypassTheShard) {
  // enabled() gates the shard hook: with telemetry off nothing buffers,
  // so merge() is a no-op and the fast path stays write-free.
  Counter counter;
  MetricShard shard;
  {
    ShardScope scope(shard);
    counter.add(5);
  }
  EXPECT_TRUE(shard.empty());
  shard.merge();
  EXPECT_EQ(counter.value(), 0u);
}

TEST_F(MetricShardTest, ShardIsPerThread) {
  set_enabled(true);
  Counter counter;
  MetricShard shard;
  ShardScope scope(shard);
  // A write from another thread (no scope there) hits the instrument
  // directly; the shard only captures this thread.
  std::thread worker([&counter] { counter.add(7); });
  worker.join();
  counter.add(1);
  EXPECT_EQ(counter.value(), 7u);
  shard.merge();
  EXPECT_EQ(counter.value(), 8u);
}

TEST_F(MetricShardTest, MergeOrderIsDeterministicForDoubleSums) {
  // The reduction-order contract: merging shard A before shard B must
  // give bitwise-identical histogram sums on every run.  (Two merges in
  // the same order on identical data are trivially equal; this pins the
  // arithmetic path through HdrHistogram::merge().)
  set_enabled(true);
  HdrHistogram histogram;
  MetricShard a;
  MetricShard b;
  {
    ShardScope scope(a);
    histogram.observe(0.1);
    histogram.observe(0.2);
  }
  {
    ShardScope scope(b);
    histogram.observe(0.3);
  }
  a.merge();
  b.merge();
  const double first_pass = histogram.sum();
  histogram.reset();
  {
    ShardScope scope(a);
    histogram.observe(0.1);
    histogram.observe(0.2);
  }
  {
    ShardScope scope(b);
    histogram.observe(0.3);
  }
  a.merge();
  b.merge();
  EXPECT_EQ(histogram.sum(), first_pass);
  EXPECT_EQ(histogram.count(), 3u);
}

}  // namespace
}  // namespace dras::obs
