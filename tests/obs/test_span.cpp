#include "obs/span.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../test_helpers.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "util/format.h"

namespace dras::obs {
namespace {

using dras::testing::DefaultTracerScope;

std::pair<std::unique_ptr<EventTracer>, StringSink*> make_string_tracer() {
  auto sink = std::make_unique<StringSink>();
  StringSink* raw = sink.get();
  return {std::make_unique<EventTracer>(std::move(sink), TraceFormat::Jsonl),
          raw};
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

/// The emitted JSONL line for the span named `name`, or empty.
std::string line_for(const std::string& text, const std::string& name) {
  for (const std::string& line : lines_of(text))
    if (line.find("\"name\":\"" + name + "\"") != std::string::npos &&
        line.find("\"ph\":\"X\"") != std::string::npos)
      return line;
  return {};
}

TEST(SpanId, DeterministicAndNeverZero) {
  const auto id = detail::span_id(42, "round", 3);
  EXPECT_EQ(id, detail::span_id(42, "round", 3));
  EXPECT_NE(id, 0u);
  EXPECT_NE(id, detail::span_id(42, "round", 4));      // sibling ordinal
  EXPECT_NE(id, detail::span_id(43, "round", 3));      // different parent
  EXPECT_NE(id, detail::span_id(42, "slot", 3));       // different name
  EXPECT_NE(detail::span_id(0, "root", 0), 0u);        // 0 is reserved
}

TEST(Span, InactiveWithoutTracerOrEnabledHdr) {
  set_enabled(false);
  ASSERT_EQ(default_tracer(), nullptr);
  Span span("orphan");
  EXPECT_FALSE(span.active());
  EXPECT_NE(span.id(), 0u);  // identity exists even when unobserved
  // An hdr target does not activate a span while telemetry is off.
  auto& hdr = Registry::global().hdr("test.span.inactive_us");
  hdr.reset();
  { Span timed("orphan.timed", {}, &hdr); }
  EXPECT_EQ(hdr.count(), 0u);
}

TEST(Span, NestedSpansEmitParentChildEvents) {
  auto [tracer, sink] = make_string_tracer();
  DefaultTracerScope install(tracer.get());

  std::uint64_t round_id = 0, slot_id = 0;
  {
    Span round("round");
    EXPECT_TRUE(round.active());
    round_id = round.id();
    EXPECT_EQ(Span::current().id, round_id);
    {
      Span slot("slot");
      slot_id = slot.id();
      EXPECT_NE(slot_id, round_id);
    }
  }
  EXPECT_EQ(Span::current().id, 0u);
  tracer->close();

  const std::string round_line = line_for(sink->str(), "round");
  const std::string slot_line = line_for(sink->str(), "slot");
  ASSERT_FALSE(round_line.empty());
  ASSERT_FALSE(slot_line.empty());
  EXPECT_NE(round_line.find(util::format("\"span\":{}", round_id)),
            std::string::npos);
  EXPECT_NE(slot_line.find(util::format("\"span\":{}", slot_id)),
            std::string::npos);
  EXPECT_NE(slot_line.find(util::format("\"parent\":{}", round_id)),
            std::string::npos);
  // Root spans carry no parent arg.
  EXPECT_EQ(round_line.find("\"parent\":"), std::string::npos);
}

TEST(Span, SameThreadSiblingsGetDistinctIds) {
  auto [tracer, sink] = make_string_tracer();
  DefaultTracerScope install(tracer.get());
  Span parent("round");
  std::uint64_t first = 0, second = 0;
  {
    Span a("update");
    first = a.id();
  }
  {
    Span b("update");
    second = b.id();
  }
  EXPECT_NE(first, second);  // the child ordinal advances
  tracer->close();
}

TEST(Span, CrossThreadChildIdIndependentOfThread) {
  auto [tracer, sink] = make_string_tracer();
  DefaultTracerScope install(tracer.get());

  Span parent("round");
  const SpanContext ctx = parent.context();

  // Same (parent, name, slot) → same id whether the child runs on this
  // thread or a worker: the id is a pure function of the handoff, not
  // of scheduling.
  std::uint64_t on_this_thread = 0;
  {
    Span child("slot", ctx, 5);
    on_this_thread = child.id();
  }
  std::uint64_t on_worker = 0;
  std::thread worker([&] {
    Span child("slot", ctx, 5);
    on_worker = child.id();
  });
  worker.join();
  EXPECT_EQ(on_this_thread, on_worker);
  EXPECT_EQ(on_this_thread, detail::span_id(parent.id(), "slot", 5));
  tracer->close();
}

TEST(Span, CrossLaneChildEmitsFlowPair) {
  auto [tracer, sink] = make_string_tracer();
  DefaultTracerScope install(tracer.get());

  std::uint64_t child_id = 0;
  {
    Span parent("round");
    const SpanContext ctx = parent.context();
    TraceLaneScope worker_lane({kExecPid, 2});
    Span child("slot", ctx, 0);
    child_id = child.id();
  }
  tracer->close();

  // One 's' on the parent's lane, one 'f' on the child's, both keyed by
  // the child's span id.
  const std::string text = sink->str();
  bool saw_start = false, saw_finish = false;
  for (const std::string& line : lines_of(text)) {
    if (line.find(util::format("\"id\":{}", child_id)) == std::string::npos)
      continue;
    if (line.find("\"ph\":\"s\"") != std::string::npos) saw_start = true;
    if (line.find("\"ph\":\"f\"") != std::string::npos) saw_finish = true;
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_finish);
}

TEST(Span, SameLaneChildEmitsNoFlowEvents) {
  auto [tracer, sink] = make_string_tracer();
  DefaultTracerScope install(tracer.get());
  {
    Span parent("round");
    Span child("update");
  }
  tracer->close();
  const std::string text = sink->str();
  EXPECT_EQ(text.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_EQ(text.find("\"ph\":\"f\""), std::string::npos);
}

TEST(Span, HdrLatencyTargetRecordsMicroseconds) {
  set_enabled(true);
  auto& hdr = Registry::global().hdr("test.span.latency_us");
  hdr.reset();
  {
    Span span("timed", {}, &hdr);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  set_enabled(false);
  ASSERT_EQ(hdr.count(), 1u);
  // A ≥2 ms scope must land at ≥2000 in microseconds; a seconds
  // mix-up would record ~0.002.
  EXPECT_GE(hdr.max(), 2e3);
  EXPECT_LT(hdr.max(), 1e7);
}

TEST(Span, ArgAppendsToTracedSlice) {
  auto [tracer, sink] = make_string_tracer();
  DefaultTracerScope install(tracer.get());
  {
    Span span("round", {targ("episodes", 4)});
    span.arg(targ("loss", 0.5));
  }
  tracer->close();
  const std::string line = line_for(sink->str(), "round");
  ASSERT_FALSE(line.empty());
  EXPECT_NE(line.find("\"episodes\":4"), std::string::npos);
  EXPECT_NE(line.find("\"loss\":0.5"), std::string::npos);
}

}  // namespace
}  // namespace dras::obs
