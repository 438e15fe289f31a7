// Tests of the benchmark's own helpers: the tail-percentile rule, span
// self time with overlapping children, and the /proc status reader.

#include <gtest/gtest.h>

#include <thread>

#include "harness.h"

namespace perfbench {
namespace {

TEST(TailPercentile, CountsSamplesBeyondTheRank) {
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(999, 99.0), 9u);
  EXPECT_EQ(samples_beyond(10000, 99.9), 10u);
  EXPECT_EQ(samples_beyond(0, 90.0), 0u);
}

TEST(TailPercentile, SamplesNeededIsTheSmallestSufficientCount) {
  for (double p : {90.0, 95.0, 99.0, 99.9}) {
    const std::size_t n = samples_needed(p);
    EXPECT_GE(samples_beyond(n, p), 10u) << p;
    EXPECT_LT(samples_beyond(n - 1, p), 10u) << p;
  }
  // 1 - 0.9 is 0.09999999999999998 in binary: 100 samples, not 101.
  EXPECT_EQ(samples_needed(90.0), 100u);
  EXPECT_EQ(samples_needed(99.0), 1000u);
  EXPECT_EQ(samples_needed(99.9), 10000u);
  EXPECT_EQ(samples_needed(95.0, 20), 400u);
}

TEST(Median, InterpolatesBetweenTheMiddleRanks) {
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

Span span(const char* name, std::int64_t start, std::int64_t end,
          std::int64_t parent) {
  return Span{name, start * 1'000'000'000, end * 1'000'000'000, parent, 0};
}

TEST(SelfTime, SubtractsTheUnionOfOverlappingChildren) {
  // Root 0..10 s; children 1..4, 3..6 (overlapping) and 8..9.
  const std::vector<Span> spans = {
      span("bench.root", 0, 10, -1), span("sim.a", 1, 4, 0),
      span("sim.b", 3, 6, 0), span("sched.c", 8, 9, 0)};
  const auto self = self_seconds(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
}

TEST(SelfTime, ClipsChildrenToTheParentAndIgnoresGrandchildren) {
  // Child 8..12 sticks out of its 0..10 parent; the grandchild 2..3
  // belongs to child 1..5 only.
  const std::vector<Span> spans = {
      span("bench.root", 0, 10, -1), span("sim.run", 1, 5, 0),
      span("sched.schedule", 2, 3, 1), span("sim.run", 8, 12, 0)};
  const auto self = self_seconds(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 2.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0);
  EXPECT_DOUBLE_EQ(self[2], 1.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
}

TEST(SelfTime, AttributesRootSelfTimeAsUnattributed) {
  const std::vector<Span> spans = {
      span("bench.root", 0, 10, -1), span("sim.run", 0, 8, 0),
      span("sched.schedule", 1, 7, 1)};
  const auto layers = attribute(spans);
  EXPECT_DOUBLE_EQ(layers.at("unattributed"), 2.0);
  EXPECT_DOUBLE_EQ(layers.at("sim"), 2.0);
  EXPECT_DOUBLE_EQ(layers.at("sched"), 6.0);
}

TEST(Recorder, DisabledRecordsNothing) {
  Recorder off(false);
  { ScopedSpan s(off, "sim.run"); }
  EXPECT_TRUE(off.spans().empty());
  Recorder on(true);
  {
    ScopedSpan root(on, "bench.root");
    ScopedSpan child(on, "sim.run", root.index(), 7);
  }
  const auto spans = on.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].op, 7u);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
}

TEST(StatusReader, ParsesFieldsOfAStatusText) {
  const std::string text =
      "Name:\tperfbench\nThreadsX:\t9\nVmHWM:\t  20480 kB\nThreads:\t5\n";
  EXPECT_EQ(status_field(text, "Threads"), 5);
  EXPECT_EQ(status_field(text, "VmHWM"), 20480);
  EXPECT_EQ(status_field(text, "Missing"), -1);
  EXPECT_EQ(status_field("Threads:\n", "Threads"), -1);
}

TEST(StatusReader, SeesThisProcessGrowAThread) {
  ThreadPeak peak;
  peak.sample();
  const long alone = peak.peak();
  EXPECT_GE(alone, 1);
  std::thread extra([&peak] { peak.sample(); });
  extra.join();
  EXPECT_EQ(peak.peak(), alone + 1);
  EXPECT_GT(peak_rss_mb(), 0.0);
}

}  // namespace
}  // namespace perfbench
