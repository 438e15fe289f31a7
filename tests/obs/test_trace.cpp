#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "../test_helpers.h"
#include "obs/sink.h"
#include "sched/fcfs_easy.h"
#include "sim/simulator.h"
#include "util/json.h"

namespace dras::obs {
namespace {

using util::json::Value;

/// Build a tracer over a StringSink; returns the tracer plus a borrowed
/// pointer to the sink (owned by the tracer).
std::pair<std::unique_ptr<EventTracer>, StringSink*> make_string_tracer(
    TraceFormat format) {
  auto sink = std::make_unique<StringSink>();
  StringSink* raw = sink.get();
  return {std::make_unique<EventTracer>(std::move(sink), format), raw};
}

/// Count events in a parsed Chrome trace document with the given name.
std::size_t count_events(const Value& doc, const std::string& name) {
  std::size_t n = 0;
  for (const auto& event : doc.find("traceEvents")->as_array())
    if (event.find("name")->as_string() == name) ++n;
  return n;
}

TEST(EventTracer, EmptyChromeTraceIsValidJson) {
  auto [tracer, sink] = make_string_tracer(TraceFormat::ChromeJson);
  tracer->close();
  const auto doc = util::json::parse(sink->str());
  const auto* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  // Only the three process_name metadata records (sim / train / exec).
  EXPECT_EQ(events->as_array().size(), 3u);
  EXPECT_EQ(count_events(doc, "process_name"), 3u);
}

TEST(EventTracer, ChromeEventsCarrySpecMandatedFields) {
  auto [tracer, sink] = make_string_tracer(TraceFormat::ChromeJson);
  tracer->instant("tick", 1.5, {targ("k", 7)});
  tracer->complete("job", 2.0, 0.25, {targ("size", 4)}, kSimPid, 3);
  tracer->counter("depth", 3.0, 11.0);
  tracer->close();

  const auto doc = util::json::parse(sink->str());
  const auto& events = doc.find("traceEvents")->as_array();
  ASSERT_EQ(events.size(), 6u);  // 3 metadata + 3 payload events.

  const auto& instant = events[3];
  EXPECT_EQ(instant.find("ph")->as_string(), "i");
  EXPECT_EQ(instant.find("s")->as_string(), "t");
  // Timestamps are microseconds per the trace-event spec.
  EXPECT_DOUBLE_EQ(instant.find("ts")->as_number(), 1.5e6);
  EXPECT_DOUBLE_EQ(instant.find("pid")->as_number(), kSimPid);
  EXPECT_DOUBLE_EQ(instant.find("args")->find("k")->as_number(), 7.0);

  const auto& complete = events[4];
  EXPECT_EQ(complete.find("ph")->as_string(), "X");
  EXPECT_DOUBLE_EQ(complete.find("ts")->as_number(), 2.0e6);
  EXPECT_DOUBLE_EQ(complete.find("dur")->as_number(), 0.25e6);
  EXPECT_DOUBLE_EQ(complete.find("tid")->as_number(), 3.0);

  const auto& counter = events[5];
  EXPECT_EQ(counter.find("ph")->as_string(), "C");
  EXPECT_DOUBLE_EQ(counter.find("args")->find("value")->as_number(), 11.0);
}

TEST(EventTracer, JsonlEmitsOneParsableObjectPerLine) {
  auto [tracer, sink] = make_string_tracer(TraceFormat::Jsonl);
  tracer->instant("a", 0.001);
  tracer->complete("b", 0.002, 0.001);
  tracer->close();

  std::istringstream lines(sink->str());
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_TRUE(util::json::parse(line).is_object()) << line;
    ++parsed;
  }
  EXPECT_EQ(parsed, 5u);  // 3 metadata + 2 events.
  EXPECT_EQ(tracer->events_recorded(), 5u);
}

TEST(EventTracer, StringArgsAreJsonEscaped) {
  auto [tracer, sink] = make_string_tracer(TraceFormat::Jsonl);
  tracer->instant("e", 0.0, {targ("path", "a\"b\\c")});
  tracer->flush();
  std::istringstream lines(sink->str());
  std::string line;
  std::getline(lines, line);  // metadata pid 1
  std::getline(lines, line);  // metadata pid 2
  std::getline(lines, line);  // metadata pid 3
  std::getline(lines, line);  // our event
  const auto doc = util::json::parse(line);
  EXPECT_EQ(doc.find("args")->find("path")->as_string(), "a\"b\\c");
}

TEST(EventTracer, CloseIsIdempotentAndDropsLaterEvents) {
  auto [tracer, sink] = make_string_tracer(TraceFormat::ChromeJson);
  tracer->instant("before", 1.0);
  tracer->close();
  tracer->close();
  tracer->instant("after", 2.0);
  tracer->close();
  const auto doc = util::json::parse(sink->str());
  EXPECT_EQ(count_events(doc, "before"), 1u);
  EXPECT_EQ(count_events(doc, "after"), 0u);
}

TEST(EventTracer, WallSecondsIsMonotonic) {
  auto [tracer, sink] = make_string_tracer(TraceFormat::Jsonl);
  const double a = tracer->wall_seconds();
  const double b = tracer->wall_seconds();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

TEST(DefaultTracer, SetGetClear) {
  EXPECT_EQ(default_tracer(), nullptr);
  auto [tracer, sink] = make_string_tracer(TraceFormat::Jsonl);
  set_default_tracer(tracer.get());
  EXPECT_EQ(default_tracer(), tracer.get());
  set_default_tracer(nullptr);
  EXPECT_EQ(default_tracer(), nullptr);
}

// ---------------------------------------------------------------------------
// Golden validation: a real simulator run must produce a valid Chrome
// trace with at least one event per scheduling instance (the ISSUE
// acceptance criterion) and one complete event per finished job.
// ---------------------------------------------------------------------------

TEST(SimulatorTracing, FullRunEmitsValidChromeTrace) {
  using dras::testing::make_job;

  auto [tracer, sink] = make_string_tracer(TraceFormat::ChromeJson);
  sim::Simulator simulator(10);
  simulator.set_tracer(tracer.get());
  sched::FcfsEasy fcfs;
  // Mixed workload: ready start, reservation, backfill, and an
  // over-walltime job (runtime > estimate) to cover the kill event.
  const sim::Trace trace = {
      make_job(1, 0, 8, 100),
      make_job(2, 1, 8, 100),                                // reserved
      make_job(3, 2, 2, 50),                                 // backfilled
      make_job(4, 3, 1, /*runtime=*/500, /*estimate=*/60),   // killed
  };
  const auto result = simulator.run(trace, fcfs);
  tracer->close();

  const auto doc = util::json::parse(sink->str());
  const auto* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  // Every event carries the mandatory fields.
  std::size_t instances = 0, jobs = 0, kills = 0, counters = 0;
  for (const auto& event : events->as_array()) {
    ASSERT_NE(event.find("name"), nullptr);
    ASSERT_NE(event.find("ph"), nullptr);
    ASSERT_NE(event.find("pid"), nullptr);
    const auto& ph = event.find("ph")->as_string();
    if (ph != "M") {
      ASSERT_NE(event.find("ts"), nullptr);
    }
    const auto& name = event.find("name")->as_string();
    if (name == "scheduling_instance") {
      ++instances;
      EXPECT_EQ(ph, "i");
      EXPECT_NE(event.find("args")->find("queue_depth"), nullptr);
    } else if (ph == "X" && event.find("pid")->as_number() == kSimPid) {
      ++jobs;
      EXPECT_NE(event.find("dur"), nullptr);
      EXPECT_NE(event.find("args")->find("job"), nullptr);
    } else if (name == "kill_walltime") {
      ++kills;
    } else if (ph == "C") {
      ++counters;
    }
  }
  // >= 1 trace event per scheduling instance (acceptance criterion).
  EXPECT_GE(instances, result.scheduling_instances);
  EXPECT_GE(result.scheduling_instances, 1u);
  // One 'X' lane event per completed job, named by its exec mode.
  EXPECT_EQ(jobs, result.jobs.size());
  EXPECT_EQ(count_events(doc, "reserved"), 1u);
  // Jobs 3 and 4 both start via backfill.
  EXPECT_GE(count_events(doc, "backfilled"), 1u);
  // Job 4 ran 60s of its 500s runtime: killed at the walltime estimate.
  EXPECT_EQ(kills, 1u);
  // queue_depth / used_nodes counter tracks were sampled.
  EXPECT_GT(counters, 0u);
}

TEST(SimulatorTracing, ConstructorPicksUpDefaultTracer) {
  using dras::testing::make_job;

  auto [tracer, sink] = make_string_tracer(TraceFormat::ChromeJson);
  set_default_tracer(tracer.get());
  sim::Simulator simulator(4);  // must adopt the default tracer
  set_default_tracer(nullptr);

  sched::FcfsEasy fcfs;
  (void)simulator.run({make_job(1, 0, 2, 10)}, fcfs);
  tracer->close();
  const auto doc = util::json::parse(sink->str());
  EXPECT_GE(count_events(doc, "scheduling_instance"), 1u);
}

TEST(SimulatorTracing, NoTracerMeansNoEvents) {
  using dras::testing::make_job;
  ASSERT_EQ(default_tracer(), nullptr);
  sim::Simulator simulator(4);
  sched::FcfsEasy fcfs;
  const auto result = simulator.run({make_job(1, 0, 2, 10)}, fcfs);
  EXPECT_EQ(result.jobs.size(), 1u);
  EXPECT_EQ(simulator.tracer(), nullptr);
}

}  // namespace
}  // namespace dras::obs
