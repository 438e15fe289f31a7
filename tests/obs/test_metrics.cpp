#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "util/json.h"

namespace dras::obs {
namespace {

// Every test runs against its own registry where possible; tests touching
// the global enabled flag restore the default (disabled) afterwards.
class ObsMetricsTest : public ::testing::Test {
 protected:
  void TearDown() override { set_enabled(false); }
  Registry registry_;
};

TEST_F(ObsMetricsTest, CounterCountsWhenEnabled) {
  set_enabled(true);
  auto& c = registry_.counter("test.counter");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsMetricsTest, DisabledOpsAreNoOps) {
  set_enabled(false);
  auto& c = registry_.counter("test.counter");
  auto& g = registry_.gauge("test.gauge");
  auto& h = registry_.hdr("test.hist");
  for (int i = 0; i < 1000; ++i) {
    c.add();
    g.set(3.0);
    g.add(1.0);
    h.observe(static_cast<double>(i));
  }
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

// The "no allocations while disabled" guarantee, asserted structurally:
// registration happens once up front; subsequent disabled hot-path calls
// must not grow the registry or mutate any metric storage.
TEST_F(ObsMetricsTest, DisabledHotPathTouchesNoRegistryState) {
  set_enabled(false);
  auto& c = registry_.counter("test.pre");
  auto& h = registry_.hdr("test.pre.h");
  const auto size_before = registry_.size();
  const auto snapshot_before = registry_.snapshot();
  for (int i = 0; i < 10000; ++i) {
    c.add(7);
    h.observe(123.0);
    ScopedTimer t(h);
  }
  EXPECT_EQ(registry_.size(), size_before);
  const auto snapshot_after = registry_.snapshot();
  ASSERT_EQ(snapshot_after.size(), snapshot_before.size());
  for (std::size_t i = 0; i < snapshot_after.size(); ++i) {
    EXPECT_EQ(snapshot_after[i].name, snapshot_before[i].name);
    EXPECT_DOUBLE_EQ(snapshot_after[i].value, snapshot_before[i].value);
    EXPECT_EQ(snapshot_after[i].count, snapshot_before[i].count);
  }
}

TEST_F(ObsMetricsTest, ConcurrentCounterIncrementsAreLossless) {
  set_enabled(true);
  auto& c = registry_.counter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(ObsMetricsTest, ConcurrentHistogramObservationsAreLossless) {
  set_enabled(true);
  auto& h = registry_.hdr("test.concurrent.h");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i)
        h.observe(static_cast<double>(1 + (t * kPerThread + i) % 120));
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i < h.bucket_count(); ++i)
    bucket_total += h.bucket(i);
  EXPECT_EQ(bucket_total, h.count());
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 120.0);
}

TEST_F(ObsMetricsTest, HistogramBucketPlacement) {
  set_enabled(true);
  // Registry hdr instruments bucket each observation by its log-scale
  // index; equal values share a bucket, distant values do not.
  auto& h = registry_.hdr("test.buckets");
  h.observe(3.0);
  h.observe(3.0);
  h.observe(16.0);
  h.observe(99.0);
  ASSERT_NE(h.index_of(3.0), h.index_of(16.0));
  ASSERT_NE(h.index_of(16.0), h.index_of(99.0));
  EXPECT_EQ(h.bucket(h.index_of(3.0)), 2u);
  EXPECT_EQ(h.bucket(h.index_of(16.0)), 1u);
  EXPECT_EQ(h.bucket(h.index_of(99.0)), 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 3.0 + 3.0 + 16.0 + 99.0);
  EXPECT_DOUBLE_EQ(h.mean(), h.sum() / 4.0);
}

TEST_F(ObsMetricsTest, GaugeSetAndAdd) {
  set_enabled(true);
  auto& g = registry_.gauge("test.g");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.add(-5.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST_F(ObsMetricsTest, ScopedTimerRecordsMicroseconds) {
  set_enabled(true);
  auto& h = registry_.hdr("test.timer");
  { ScopedTimer t(h); }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.min(), 0.0);
}

TEST_F(ObsMetricsTest, RegistryReusesHandlesByName) {
  auto& a = registry_.counter("same.name");
  auto& b = registry_.counter("same.name");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(registry_.size(), 1u);
  EXPECT_TRUE(registry_.contains("same.name"));
  EXPECT_FALSE(registry_.contains("other"));
}

TEST_F(ObsMetricsTest, KindClashThrows) {
  (void)registry_.counter("clash");
  EXPECT_THROW((void)registry_.gauge("clash"), std::invalid_argument);
  EXPECT_THROW((void)registry_.hdr("clash"), std::invalid_argument);
}

TEST_F(ObsMetricsTest, ResetValuesKeepsRegistrations) {
  set_enabled(true);
  auto& c = registry_.counter("r.c");
  auto& h = registry_.hdr("r.h");
  c.add(3);
  h.observe(1.5);
  registry_.reset_values();
  EXPECT_EQ(registry_.size(), 2u);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
}

TEST_F(ObsMetricsTest, SnapshotIsSortedByName) {
  (void)registry_.counter("z.last");
  (void)registry_.counter("a.first");
  (void)registry_.gauge("m.middle");
  const auto snap = registry_.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.first");
  EXPECT_EQ(snap[1].name, "m.middle");
  EXPECT_EQ(snap[2].name, "z.last");
  EXPECT_EQ(snap[1].kind, MetricKind::Gauge);
}

TEST_F(ObsMetricsTest, JsonDumpParses) {
  set_enabled(true);
  registry_.counter("dump.count").add(2);
  registry_.hdr("dump.hist").observe(1.5);
  const auto doc = util::json::parse(metrics_to_json(registry_));
  const auto* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->as_array().size(), 2u);
  const auto& counter = metrics->as_array()[0];
  EXPECT_EQ(counter.find("name")->as_string(), "dump.count");
  EXPECT_EQ(counter.find("kind")->as_string(), "counter");
  EXPECT_DOUBLE_EQ(counter.find("value")->as_number(), 2.0);
  const auto& hist = metrics->as_array()[1];
  EXPECT_EQ(hist.find("kind")->as_string(), "hdr");
  EXPECT_DOUBLE_EQ(hist.find("count")->as_number(), 1.0);
  ASSERT_NE(hist.find("p99"), nullptr);
}

TEST_F(ObsMetricsTest, CsvDumpHasHeaderAndRows) {
  set_enabled(true);
  registry_.counter("csv.count").add(7);
  const auto csv = metrics_to_csv(registry_);
  EXPECT_NE(csv.find("name,kind,value,count,min,max,mean"),
            std::string::npos);
  EXPECT_NE(csv.find("csv.count,counter,7"), std::string::npos);
}

}  // namespace
}  // namespace dras::obs
