// §V-E reproduction: runtime overhead of the DRAS agents — plus the
// overhead of the obs/ telemetry subsystem itself.
//
// The paper reports, on a quad-core desktop, < 1 s per DRAS-PG network
// parameter update and < 2 s per DRAS-DQL update at full Theta scale,
// versus the 15-30 s decision budget of production schedulers.  These
// benchmarks measure the same operations with our networks at the paper's
// full-scale dimensions (Table III) and at the mini scale used by the
// trace-driven benches.
//
// The telemetry section quantifies the instrumentation cost added to the
// simulator event loop: per-op cost of disabled/enabled counters,
// scoped timers, HDR percentile histograms and hierarchical spans, full
// simulator runs with telemetry off vs fully on (registry + tracer into
// a null sink), and — printed after the benchmark table —
// two budget estimates: the compiled-in-but-disabled overhead (≤2% for
// the simulator counter gates, ≤0.5% for the span/hdr observatory) and
// the fully-enabled span + hdr overhead on the real NN hot path (≤2%).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "core/dql_policy.h"
#include "core/pg_policy.h"
#include "core/presets.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "sched/fcfs_easy.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/models.h"
#include "workload/synthetic.h"

namespace {

using dras::core::DQLConfig;
using dras::core::DQLPolicy;
using dras::core::PGConfig;
using dras::core::PGPolicy;

PGPolicy& pg_policy(const dras::core::SystemPreset& preset) {
  static std::map<std::string, std::unique_ptr<PGPolicy>> cache;
  auto& slot = cache[preset.name];
  if (!slot) {
    PGConfig cfg;
    cfg.net = preset.pg_network();
    slot = std::make_unique<PGPolicy>(cfg, 1);
  }
  return *slot;
}

DQLPolicy& dql_policy(const dras::core::SystemPreset& preset) {
  static std::map<std::string, std::unique_ptr<DQLPolicy>> cache;
  auto& slot = cache[preset.name];
  if (!slot) {
    DQLConfig cfg;
    cfg.net = preset.dql_network();
    slot = std::make_unique<DQLPolicy>(cfg, 1);
  }
  return *slot;
}

std::vector<float> random_state(std::size_t size, std::uint64_t seed) {
  dras::util::Rng rng(seed);
  std::vector<float> state(size);
  for (auto& v : state) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return state;
}

// One scheduling decision: a single forward pass over the window state.
void BM_PGDecision(benchmark::State& state,
                   const dras::core::SystemPreset& preset) {
  auto& policy = pg_policy(preset);
  const auto input = random_state(policy.network().config().input_size(), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        policy.greedy_action(input, preset.window));
  }
}

// One scheduling decision for DQL: one batched forward over the W window
// jobs (DQLPolicy::select_action).
void BM_DQLDecision(benchmark::State& state,
                    const dras::core::SystemPreset& preset) {
  auto& policy = dql_policy(preset);
  std::vector<std::vector<float>> window;
  for (std::size_t i = 0; i < preset.window; ++i)
    window.push_back(
        random_state(policy.network().config().input_size(), 11 + i));
  dras::util::Rng rng(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        policy.select_action(window, rng, /*explore=*/false));
  }
}

// One network parameter update over a 10-instance batch (~20 actions),
// the quantity §V-E bounds at < 1 s (PG) / < 2 s (DQL).
void BM_PGUpdate(benchmark::State& state,
                 const dras::core::SystemPreset& preset) {
  auto& policy = pg_policy(preset);
  const auto input = random_state(policy.network().config().input_size(), 17);
  for (auto _ : state) {
    for (int k = 0; k < 20; ++k)
      policy.record(input, preset.window, k % preset.window,
                    k % 2 == 0 ? 1.0 : -1.0);
    policy.update();
  }
}

void BM_DQLUpdate(benchmark::State& state,
                  const dras::core::SystemPreset& preset) {
  auto& policy = dql_policy(preset);
  const auto input = random_state(policy.network().config().input_size(), 19);
  for (auto _ : state) {
    for (int k = 0; k < 20; ++k)
      policy.record({input, input}, k % 2, k % 2 == 0 ? 1.0 : -1.0);
    policy.update();
  }
}

// ---------------------------------------------------------------------------
// Telemetry (src/obs) instrumentation cost.

dras::sim::Trace overhead_trace(std::size_t jobs) {
  dras::workload::GenerateOptions options;
  options.num_jobs = jobs;
  options.seed = 97;
  return dras::workload::generate_trace(
      dras::workload::theta_mini_workload(), options);
}

// Per-op cost of a counter increment with telemetry disabled — the price
// every instrumentation site pays on the hot path when nothing listens.
void BM_ObsCounterAdd_Disabled(benchmark::State& state) {
  dras::obs::set_enabled(false);
  auto& counter =
      dras::obs::Registry::global().counter("bench.overhead.counter");
  for (auto _ : state) counter.add();
}

void BM_ObsCounterAdd_Enabled(benchmark::State& state) {
  dras::obs::set_enabled(true);
  auto& counter =
      dras::obs::Registry::global().counter("bench.overhead.counter");
  for (auto _ : state) counter.add();
  dras::obs::set_enabled(false);
}

void BM_ObsScopedTimer_Disabled(benchmark::State& state) {
  dras::obs::set_enabled(false);
  auto& hdr = dras::obs::Registry::global().hdr("bench.overhead.timer");
  for (auto _ : state) {
    dras::obs::ScopedTimer timer(hdr);
    benchmark::DoNotOptimize(&timer);
  }
}

void BM_ObsScopedTimer_Enabled(benchmark::State& state) {
  dras::obs::set_enabled(true);
  auto& hdr = dras::obs::Registry::global().hdr("bench.overhead.timer");
  for (auto _ : state) {
    dras::obs::ScopedTimer timer(hdr);
    benchmark::DoNotOptimize(&timer);
  }
  dras::obs::set_enabled(false);
}

// HDR percentile histogram (obs::HdrHistogram) behind the p50/p90/p99
// latency metrics — one IEEE-754 shift-index + relaxed atomic add when
// enabled, the same gate as every other instrument when disabled.
void BM_ObsHdrObserve_Disabled(benchmark::State& state) {
  dras::obs::set_enabled(false);
  auto& hdr = dras::obs::Registry::global().hdr("bench.overhead.hdr");
  double v = 0.0;
  for (auto _ : state) hdr.observe(v += 1.0);
}

void BM_ObsHdrObserve_Enabled(benchmark::State& state) {
  dras::obs::set_enabled(true);
  auto& hdr = dras::obs::Registry::global().hdr("bench.overhead.hdr");
  double v = 0.0;
  for (auto _ : state) hdr.observe(v += 1.0);
  dras::obs::set_enabled(false);
}

// Hierarchical spans (obs::Span).  Inactive (telemetry off, no tracer):
// the price every span site pays when nothing listens — no clock reads,
// no string copies.  Hdr-targeted (telemetry on, no tracer): two clock
// reads plus one hdr observe.  Traced: full 'X' event serialization
// into a null sink.
void BM_ObsSpan_Inactive(benchmark::State& state) {
  dras::obs::set_enabled(false);
  for (auto _ : state) {
    dras::obs::Span span("bench.overhead.span");
    benchmark::DoNotOptimize(&span);
  }
}

void BM_ObsSpan_HdrTarget_Enabled(benchmark::State& state) {
  dras::obs::set_enabled(true);
  auto& hdr = dras::obs::Registry::global().hdr("bench.overhead.span_us");
  for (auto _ : state) {
    dras::obs::Span span("bench.overhead.span", {}, &hdr);
    benchmark::DoNotOptimize(&span);
  }
  dras::obs::set_enabled(false);
}

void BM_ObsSpan_Traced_NullSink(benchmark::State& state) {
  dras::obs::EventTracer tracer(std::make_unique<dras::obs::NullSink>(),
                                dras::obs::TraceFormat::Jsonl);
  dras::obs::set_default_tracer(&tracer);
  for (auto _ : state) {
    dras::obs::Span span("bench.overhead.span",
                         {dras::obs::targ("k", std::uint64_t{7})});
    benchmark::DoNotOptimize(&span);
  }
  dras::obs::set_default_tracer(nullptr);
}

// One instant event serialized into a null sink: the cost of active
// tracing per event (serialization + buffer append, no I/O).
void BM_ObsTracerInstant_NullSink(benchmark::State& state) {
  dras::obs::EventTracer tracer(std::make_unique<dras::obs::NullSink>(),
                                dras::obs::TraceFormat::Jsonl);
  double ts = 0.0;
  for (auto _ : state)
    tracer.instant("bench_event", ts += 0.001,
                   {dras::obs::targ("job", 42), dras::obs::targ("size", 7)});
}

// Whole-simulation cost: an FCFS run over a 2000-job theta-mini trace with
// telemetry (a) compiled in but disabled, (b) registry enabled, and
// (c) registry enabled plus a tracer draining into a null sink.
void BM_SimFcfs_ObsOff(benchmark::State& state) {
  dras::obs::set_enabled(false);
  const auto trace = overhead_trace(2000);
  const auto preset = dras::core::theta_mini();
  dras::sched::FcfsEasy policy;
  for (auto _ : state) {
    dras::sim::Simulator simulator(preset.nodes);
    benchmark::DoNotOptimize(simulator.run(trace, policy));
  }
}

void BM_SimFcfs_ObsMetrics(benchmark::State& state) {
  dras::obs::set_enabled(true);
  const auto trace = overhead_trace(2000);
  const auto preset = dras::core::theta_mini();
  dras::sched::FcfsEasy policy;
  for (auto _ : state) {
    dras::sim::Simulator simulator(preset.nodes);
    benchmark::DoNotOptimize(simulator.run(trace, policy));
  }
  dras::obs::set_enabled(false);
}

void BM_SimFcfs_ObsMetricsAndTrace(benchmark::State& state) {
  dras::obs::set_enabled(true);
  const auto trace = overhead_trace(2000);
  const auto preset = dras::core::theta_mini();
  dras::sched::FcfsEasy policy;
  dras::obs::EventTracer tracer(std::make_unique<dras::obs::NullSink>(),
                                dras::obs::TraceFormat::Jsonl);
  for (auto _ : state) {
    dras::sim::Simulator simulator(preset.nodes);
    simulator.set_tracer(&tracer);
    benchmark::DoNotOptimize(simulator.run(trace, policy));
  }
  dras::obs::set_enabled(false);
}

// The ISSUE acceptance line: estimate the slowdown a telemetry-free build
// would avoid, i.e. the cost of compiled-in-but-disabled instrumentation.
// Measured directly: repeated FCFS runs with telemetry disabled vs the
// per-op disabled costs multiplied by the number of instrumentation sites
// an identical run executes.  Printed after the benchmark table so it
// survives --benchmark_filter.
void report_disabled_overhead() {
  using clock = std::chrono::steady_clock;
  dras::obs::set_enabled(false);

  const auto trace = overhead_trace(2000);
  const auto preset = dras::core::theta_mini();
  dras::sched::FcfsEasy policy;

  // Count the instrumentation sites one run executes.
  dras::sim::Simulator probe(preset.nodes);
  const auto probe_result = probe.run(trace, policy);
  // Per scheduling instance: 1 counter + 1 hdr observe + 1 scoped timer.
  // Per job: submit counter, start counter, wait hdr observe, end counter.
  const double sites =
      3.0 * static_cast<double>(probe_result.scheduling_instances) +
      4.0 * static_cast<double>(trace.size());

  // Per-op disabled cost (counter.add is representative: one relaxed
  // atomic load + branch, the same gate every instrument uses).
  auto& counter =
      dras::obs::Registry::global().counter("bench.overhead.report");
  constexpr int kOps = 20'000'000;
  const auto op_start = clock::now();
  for (int i = 0; i < kOps; ++i) counter.add();
  const double ns_per_op =
      std::chrono::duration<double, std::nano>(clock::now() - op_start)
          .count() /
      kOps;

  // Wall time of a disabled run (best of 5 to reduce scheduling noise).
  double best_run_s = std::numeric_limits<double>::infinity();
  for (int r = 0; r < 5; ++r) {
    dras::sim::Simulator simulator(preset.nodes);
    const auto run_start = clock::now();
    benchmark::DoNotOptimize(simulator.run(trace, policy));
    best_run_s = std::min(
        best_run_s,
        std::chrono::duration<double>(clock::now() - run_start).count());
  }

  const double overhead_pct =
      100.0 * (sites * ns_per_op * 1e-9) / best_run_s;
  std::printf(
      "\n--- telemetry overhead (src/obs) ---\n"
      "disabled gate cost:        %.2f ns/op\n"
      "instrumentation sites/run: %.0f (fcfs, theta-mini, %zu jobs)\n"
      "simulator run (disabled):  %.3f ms\n"
      "compiled-in-but-disabled overhead: %.3f%% (target <= 2%%)\n",
      ns_per_op, sites, trace.size(), best_run_s * 1e3, overhead_pct);
}

// The observatory acceptance line: span + hdr-histogram overhead on the
// real instrumented hot path.  nn::Network::forward times every call
// into nn.forward_us when telemetry is enabled and pays a single gate
// check when disabled (src/nn/network.cpp); a scheduling decision is one
// such forward.  Measured: a greedy-decision loop with telemetry off vs
// on (enabled budget ≤ 2%), and the estimated per-decision cost of the
// disabled gates — one inactive span plus one gated hdr observe, a
// deliberately conservative over-count of what forward() actually
// executes when off — against the ≤ 0.5% disabled budget.
void report_span_hdr_overhead() {
  using clock = std::chrono::steady_clock;
  dras::obs::set_enabled(false);

  const auto preset = dras::core::theta_mini();
  auto& policy = pg_policy(preset);
  const auto input = random_state(policy.network().config().input_size(), 23);

  constexpr int kDecisions = 4000;
  const auto best_decision_loop_s = [&] {
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < 5; ++r) {
      const auto start = clock::now();
      for (int i = 0; i < kDecisions; ++i)
        benchmark::DoNotOptimize(policy.greedy_action(input, preset.window));
      best = std::min(
          best, std::chrono::duration<double>(clock::now() - start).count());
    }
    return best;
  };

  const double off_s = best_decision_loop_s();
  dras::obs::set_enabled(true);
  const double on_s = best_decision_loop_s();
  dras::obs::set_enabled(false);

  // Per-op disabled costs for the estimate.
  constexpr int kOps = 5'000'000;
  auto& hdr = dras::obs::Registry::global().hdr("bench.overhead.report_hdr");
  auto op_start = clock::now();
  double v = 0.0;
  for (int i = 0; i < kOps; ++i) hdr.observe(v += 1.0);
  const double hdr_off_ns =
      std::chrono::duration<double, std::nano>(clock::now() - op_start)
          .count() /
      kOps;
  op_start = clock::now();
  for (int i = 0; i < kOps; ++i) {
    dras::obs::Span span("bench.overhead.report_span");
    benchmark::DoNotOptimize(&span);
  }
  const double span_off_ns =
      std::chrono::duration<double, std::nano>(clock::now() - op_start)
          .count() /
      kOps;

  const double decision_us = off_s / kDecisions * 1e6;
  const double enabled_pct = 100.0 * std::max(0.0, on_s - off_s) / off_s;
  const double disabled_pct =
      100.0 * ((span_off_ns + hdr_off_ns) * 1e-9) / (off_s / kDecisions);
  std::printf(
      "\n--- span + hdr-histogram overhead (training observatory) ---\n"
      "inactive span:             %.2f ns/op\n"
      "disabled hdr observe:      %.2f ns/op\n"
      "scheduling decision (off): %.2f us\n"
      "decision loop, telemetry enabled: %+.3f%% (target <= 2%%)\n"
      "compiled-in-but-disabled estimate: %.3f%% (target <= 0.5%%)\n",
      span_off_ns, hdr_off_ns, decision_us, enabled_pct, disabled_pct);
}

}  // namespace

// Full paper scale (Theta, Table III) — the §V-E claim.
BENCHMARK_CAPTURE(BM_PGDecision, theta_full, dras::core::theta())
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);
BENCHMARK_CAPTURE(BM_DQLDecision, theta_full, dras::core::theta())
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);
BENCHMARK_CAPTURE(BM_PGUpdate, theta_full, dras::core::theta())
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);
BENCHMARK_CAPTURE(BM_DQLUpdate, theta_full, dras::core::theta())
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

// Mini scale used by the trace-driven benches.
BENCHMARK_CAPTURE(BM_PGDecision, theta_mini, dras::core::theta_mini())
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_DQLDecision, theta_mini, dras::core::theta_mini())
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_PGUpdate, theta_mini, dras::core::theta_mini())
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_DQLUpdate, theta_mini, dras::core::theta_mini())
    ->Unit(benchmark::kMicrosecond);

// Telemetry instrumentation cost (see report_disabled_overhead for the
// ≤2% acceptance estimate printed after the table).
BENCHMARK(BM_ObsCounterAdd_Disabled);
BENCHMARK(BM_ObsCounterAdd_Enabled);
BENCHMARK(BM_ObsScopedTimer_Disabled);
BENCHMARK(BM_ObsScopedTimer_Enabled);
BENCHMARK(BM_ObsHdrObserve_Disabled);
BENCHMARK(BM_ObsHdrObserve_Enabled);
BENCHMARK(BM_ObsSpan_Inactive);
BENCHMARK(BM_ObsSpan_HdrTarget_Enabled);
BENCHMARK(BM_ObsSpan_Traced_NullSink);
BENCHMARK(BM_ObsTracerInstant_NullSink);
BENCHMARK(BM_SimFcfs_ObsOff)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimFcfs_ObsMetrics)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimFcfs_ObsMetricsAndTrace)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  report_disabled_overhead();
  report_span_hdr_overhead();
  return 0;
}
