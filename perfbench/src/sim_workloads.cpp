// sim-cori-easy: long synthetic traces simulated again and again by
// Simulator::run under FCFS with EASY backfilling.
//
// It is the full-scale backfill hot path: at load 0.9 on the
// 12,076-node Cori model nearly all of Simulator::run is inside
// FcfsEasy::schedule, scanning ~1k running jobs.  Its cost hinges on the
// rare queue build-ups of the arrival stream (at 20k jobs one seed took
// 30x another), so the arrival stream is fixed to the model's designated
// real-trace realisation and the seed draws the users' runtime estimates,
// eight times: every reservation and backfill changes, the surges stay.
// The eight simulations run four at a time, one Simulator per thread.

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sched/fcfs_easy.h"
#include "sim/simulator.h"
#include "timed_policy.h"
#include "util/rng.h"
#include "workload/estimates.h"
#include "workload/models.h"
#include "workload/synthetic.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dras::sim::ExecMode;
using dras::sim::SchedulingContext;
using dras::sim::SimulationResult;
using dras::sim::Trace;

struct SimSpec {
  dras::workload::WorkloadModel model;
  std::size_t jobs = 0;
  int depth = 1;
  /// Seeded draws of the runtime estimates over the model's real-trace
  /// arrival stream.
  std::size_t estimate_draws = 1;
  /// Set-ups timed per untraced run; setup_s is their median.
  std::size_t setup_reps = 1;
};

/// The user's input preparation: generate, then draw estimates.
std::vector<Trace> make_traces(const SimSpec& spec, std::uint64_t seed) {
  dras::workload::GenerateOptions gen;
  gen.num_jobs = spec.jobs;
  gen.seed = dras::workload::kRealTraceSeed;
  const Trace base = dras::workload::generate_trace(spec.model, gen);
  std::vector<Trace> traces;
  for (std::size_t k = 0; k < spec.estimate_draws; ++k) {
    dras::workload::EstimateOptions estimates;
    estimates.max_factor = spec.model.max_overestimate_factor;
    estimates.walltime_limit = spec.model.max_runtime;
    estimates.seed =
        dras::util::derive_seed(seed, "estimates-" + std::to_string(k));
    traces.push_back(dras::workload::apply_estimates(base, estimates));
  }
  return traces;
}

/// Hash of the schedule: every completed job's id, start, end and mode.
std::uint64_t schedule_digest(const SimulationResult& result) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const auto& job : result.jobs) {
    h = fnv1a(&job.id, sizeof job.id, h);
    h = fnv1a(&job.start, sizeof job.start, h);
    h = fnv1a(&job.end, sizeof job.end, h);
    h = fnv1a(&job.mode, sizeof job.mode, h);
  }
  return h;
}

/// Everything the output checks of one trace need, built untimed.
struct Oracle {
  std::unordered_map<dras::sim::JobId, std::size_t> index;
  double node_seconds = 0.0;
  std::uint64_t digest = 0;  ///< Of the first simulation; 0 = none yet.

  explicit Oracle(const Trace& trace) {
    for (std::size_t i = 0; i < trace.size(); ++i) {
      index.emplace(trace[i].id, i);
      node_seconds += trace[i].node_seconds();
    }
  }
};

/// Output checks of one simulation; returns the number of failed jobs.
/// Every submitted job completes exactly once, starts no earlier than
/// its submission and runs its effective runtime; the used node-seconds
/// equal the trace's sum of size x runtime; every repetition of a trace
/// yields the same schedule digest.
std::size_t check(const Trace& trace, Oracle& oracle,
                  const SimulationResult& result, Result& out) {
  std::vector<int> seen(trace.size(), 0);
  std::size_t bad = 0;
  for (const auto& rec : result.jobs) {
    const auto it = oracle.index.find(rec.id);
    if (it == oracle.index.end()) {
      ++bad;
      continue;
    }
    const auto& job = trace[it->second];
    const double runtime = job.effective_runtime();
    if (++seen[it->second] != 1 || rec.start < job.submit_time ||
        std::abs((rec.end - rec.start) - runtime) >
            1e-6 * std::max(1.0, runtime))
      ++bad;
  }
  bad += static_cast<std::size_t>(std::count(seen.begin(), seen.end(), 0));
  if (bad > 0)
    out.fail(std::to_string(bad) + " jobs missing, repeated, started "
             "before submission or run for the wrong time", 0);
  if (std::abs(result.used_node_seconds - oracle.node_seconds) >
      1e-9 * std::max(1.0, oracle.node_seconds)) {
    out.fail("used node-seconds differ from the trace's size x runtime", 0);
    bad = trace.size();
  }
  const std::uint64_t digest = schedule_digest(result);
  if (oracle.digest == 0) {
    oracle.digest = digest;
  } else if (digest != oracle.digest) {
    out.fail("schedule digest differs between repetitions", 0);
    bad = trace.size();
  }
  out.attempted += trace.size();
  out.failed += bad;
  return bad;
}

double mean_wait_h(const SimulationResult& result) {
  double wait = 0.0;
  for (const auto& job : result.jobs) wait += job.wait();
  return wait / static_cast<double>(result.jobs.size()) / 3600.0;
}

Result run_sim(const Options& o, const SimSpec& spec) {
  Result out;
  Recorder recorder(o.traced);
  ThreadPeak threads;

  // --- Set-up: the traces a user prepares before simulating. ---
  std::vector<Trace> traces;
  std::vector<double> setup_s;
  const std::int64_t setup_root = recorder.open("bench.setup");
  for (std::size_t i = 0; i < (o.traced ? 1 : spec.setup_reps); ++i) {
    const auto start = Clock::now();
    {
      ScopedSpan span(recorder, "workload.generate", setup_root);
      traces = make_traces(spec, o.seed);
    }
    setup_s.push_back(seconds_since(start));
  }
  recorder.close(setup_root);
  std::vector<Oracle> oracles;
  for (const Trace& trace : traces) oracles.emplace_back(trace);
  double avg_wait_h = 0.0;

  // --- Untraced simulations in rounds of `--workers` concurrent runs, one
  // Simulator per thread, cycling over the traces: every trace runs, the
  // first round's traces once more (digest check), then further rounds
  // while the budget lasts.  A traced run does one round, for the thread
  // layout, and one serial run of the first trace, the baseline of the
  // tracing overhead. ---
  std::vector<std::vector<double>> wall(traces.size());
  // Per run: the median and the tail of its Scheduler::schedule calls, so
  // memory does not grow with the number of runs a fast machine fits in.
  std::vector<double> run_median_s;
  std::vector<double> run_tail_s;
  std::size_t fewest_calls = 0;
  const auto run_round = [&](std::size_t first, std::size_t width) {
    struct Run {
      SimulationResult result;
      std::vector<double> instance_s;
      double wall = 0.0;
      std::string error;
    };
    std::vector<Run> runs(width);
    const auto body = [&](std::size_t i) {
      try {
        dras::sim::Simulator sim(spec.model.system_nodes, spec.depth);
        dras::sched::FcfsEasy policy;
        TimedPolicy timed(policy, "sched.schedule");
        const auto start = Clock::now();
        runs[i].result = sim.run(traces[(first + i) % traces.size()], timed);
        runs[i].wall = seconds_since(start);
        runs[i].instance_s = std::move(timed.seconds);
      } catch (const std::exception& error) {
        runs[i].error = error.what();
      }
    };
    std::vector<std::thread> workers;
    for (std::size_t i = 1; i < width; ++i) workers.emplace_back(body, i);
    threads.sample();
    body(0);
    for (auto& worker : workers) worker.join();
    double slowest = 0.0;
    for (std::size_t i = 0; i < width; ++i) {
      const std::size_t k = (first + i) % traces.size();
      if (!runs[i].error.empty()) {
        out.fail("Simulator::run threw: " + runs[i].error, traces[k].size());
        continue;
      }
      check(traces[k], oracles[k], runs[i].result, out);
      if (wall[k].empty() && k == 0)
        avg_wait_h = mean_wait_h(runs[i].result);
      wall[k].push_back(runs[i].wall);
      const auto& calls = runs[i].instance_s;
      fewest_calls = run_median_s.empty()
                         ? calls.size()
                         : std::min(fewest_calls, calls.size());
      run_median_s.push_back(median(calls));
      run_tail_s.push_back(percentile(calls, o.tail_percentile));
      slowest = std::max(slowest, runs[i].wall);
    }
    return slowest;
  };
  const std::size_t width = std::min(o.workers, traces.size());
  if (o.traced) {
    run_round(0, width);
    wall.front().clear();
    run_round(0, 1);
  } else {
    const auto measure_start = Clock::now();
    double last = 0.0;
    for (std::size_t n = 0;
         n < traces.size() + width ||
         seconds_since(measure_start) + last <= o.seconds;
         n += width)
      last = run_round(n % traces.size(), width);
  }
  // Jobs per second of Simulator::run over the whole input: per trace, the
  // median of its repetitions.
  double jobs = 0.0;
  double seconds = 0.0;
  for (std::size_t k = 0; k < traces.size(); ++k) {
    if (wall[k].empty()) continue;
    jobs += static_cast<double>(traces[k].size());
    seconds += median(wall[k]);
  }
  const double throughput = jobs / seconds;

  if (!o.traced) {
    const std::size_t n = fewest_calls;
    if (samples_beyond(n, o.tail_percentile) < 10)
      out.fail("too few scheduling instances for the tail percentile", 0);
    const std::string runs = std::to_string(run_median_s.size()) + " runs";
    out.set("setup_s", median(setup_s), "s",
            std::to_string(setup_s.size()) + " set-ups, median");
    out.set("throughput_per_s", throughput, "1/s",
            runs + " of Simulator::run over " +
                std::to_string(traces.size()) +
                " traces; jobs per s of the per-trace medians");
    out.set("latency_ms", median(run_median_s) * 1e3, "ms",
            "median over " + runs + " of the median Scheduler::schedule "
            "call; >= " + std::to_string(n) + " calls per run");
    out.set("latency_tail_ms", median(run_tail_s) * 1e3, "ms",
            "median over " + runs + " of p" +
                std::to_string(o.tail_percentile).substr(0, 4) + "; >= " +
                std::to_string(samples_beyond(n, o.tail_percentile)) +
                " calls beyond per run");
    out.set("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM");
    out.info("avg_wait_h", std::to_string(avg_wait_h) +
                               " h, mean wait of the first trace's schedule");
    return out;
  }

  // --- Traced simulation of the first trace: spans around
  // Simulator::run and every Scheduler::schedule call, action counts and
  // per-instance state. ---
  const Trace& trace = traces.front();
  dras::sim::Simulator simulator(spec.model.system_nodes, spec.depth);
  dras::sched::FcfsEasy fcfs;
  std::size_t starts_ready = 0;
  std::size_t starts_backfill = 0;
  std::size_t reservations = 0;
  simulator.add_action_observer(
      [&](const SchedulingContext&, const dras::sim::Job& job) {
        if (!job.started())
          ++reservations;
        else if (job.mode == ExecMode::Backfilled)
          ++starts_backfill;
        else if (job.mode == ExecMode::Ready)
          ++starts_ready;
      });
  std::vector<double> queue_depth;
  std::vector<double> running_jobs;
  TimedPolicy traced_policy(fcfs, "sched.schedule");
  traced_policy.recorder = &recorder;
  traced_policy.before = [&](SchedulingContext& ctx) {
    queue_depth.push_back(static_cast<double>(ctx.queue().size()));
    running_jobs.push_back(static_cast<double>(ctx.cluster().running_count()));
  };
  const std::int64_t traced_root = recorder.open("bench.traced");
  const std::int64_t run_span = recorder.open("sim.run", traced_root);
  traced_policy.parent = run_span;
  const auto traced_start = Clock::now();
  const SimulationResult traced = simulator.run(trace, traced_policy);
  const double traced_wall = seconds_since(traced_start);
  recorder.close(run_span);
  recorder.close(traced_root);
  check(trace, oracles.front(), traced, out);

  // --- Probe simulation: layer calls on the live state, timed singly. ---
  std::vector<double> earliest_us;
  std::vector<double> backfill_us;
  std::vector<double> encode_nodes_us;
  std::vector<dras::sim::NodeRow> rows;
  double probe_sink = 0.0;  // keeps every probed result live
  TimedPolicy probe_policy(fcfs, "sched.schedule");
  probe_policy.before = [&](SchedulingContext& ctx) {
    if (!ctx.queue().empty()) {
      const std::int64_t t0 = now_ns();
      probe_sink += ctx.cluster().earliest_start(ctx.queue().front()->size,
                                                 ctx.now());
      earliest_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
    const std::int64_t t0 = now_ns();
    ctx.cluster().encode_nodes(ctx.now(), rows);
    encode_nodes_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  };
  probe_policy.after = [&](SchedulingContext& ctx) {
    if (!ctx.reservation().active()) return;
    const std::int64_t t0 = now_ns();
    probe_sink += static_cast<double>(ctx.backfill_candidates().size());
    backfill_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  };
  // A simulator of its own: the action counts above cover the traced run.
  dras::sim::Simulator probe_simulator(spec.model.system_nodes, spec.depth);
  check(trace, oracles.front(), probe_simulator.run(trace, probe_policy), out);
  if (!std::isfinite(probe_sink)) out.fail("non-finite probe result", 0);

  const std::vector<Span> spans = recorder.spans();
  const std::vector<double> self = self_seconds(spans);
  double run_s = 0.0;
  double loop_self_s = 0.0;
  double schedule_s = 0.0;
  double generate_s = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double d =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    if (spans[i].name == "sim.run") {
      run_s += d;
      loop_self_s += self[i];
    } else if (spans[i].name == "sched.schedule") {
      schedule_s += d;
    } else if (spans[i].name == "workload.generate") {
      generate_s += d;
    }
  }
  const auto samples = [](const std::vector<double>& v) {
    return std::to_string(v.size()) + " probes";
  };
  out.set("workload.generate_s", generate_s, "s", "trace preparation");
  out.set("sim.run_s", run_s, "s", "traced Simulator::run");
  out.set("sched.schedule_s", schedule_s, "s",
          std::to_string(traced_policy.seconds.size()) + " calls");
  out.set("sched.share", run_s > 0 ? schedule_s / run_s : 0.0, "ratio",
          "sched.schedule_s / sim.run_s");
  out.set("sim.loop_self_s", loop_self_s, "s", "sim.run self time");
  out.set("sim.instances", static_cast<double>(traced.scheduling_instances),
          "count");
  out.set("sim.starts_ready", static_cast<double>(starts_ready), "count");
  out.set("sim.starts_backfill", static_cast<double>(starts_backfill),
          "count");
  out.set("sim.reservations", static_cast<double>(reservations), "count");
  out.set("sim.queue_depth_p50", percentile(queue_depth, 50), "jobs");
  out.set("sim.queue_depth_p99", percentile(queue_depth, 99), "jobs");
  out.set("sim.running_jobs_p50", percentile(running_jobs, 50), "jobs");
  out.set("sim.running_jobs_p99", percentile(running_jobs, 99), "jobs");
  out.set("sim.earliest_start_us_p50", percentile(earliest_us, 50), "us",
          samples(earliest_us));
  out.set("sim.earliest_start_us_p99", percentile(earliest_us, 99), "us",
          samples(earliest_us));
  out.set("sim.backfill_candidates_us_p50", percentile(backfill_us, 50),
          "us", samples(backfill_us));
  out.set("sim.backfill_candidates_us_p99", percentile(backfill_us, 99),
          "us", samples(backfill_us));
  out.set("sim.encode_nodes_us_p50", percentile(encode_nodes_us, 50), "us",
          samples(encode_nodes_us));
  out.set("sim.avg_wait_h", avg_wait_h, "h", "first trace's schedule");
  out.set("obs.trace_overhead_share",
          1.0 - median(wall.front()) / traced_wall, "ratio",
          "1 - untraced / traced Simulator::run wall, first trace");
  out.set("exec.threads_peak", static_cast<double>(threads.peak()),
          "threads");
  finish_traced(out, spans);
  if (!o.spans_out.empty()) recorder.write_csv(o.spans_out.string());
  return out;
}

}  // namespace

Result run_sim_cori_easy(const Options& options) {
  SimSpec spec;
  spec.model = dras::workload::cori_workload().with_load(0.9);
  spec.jobs = 30000;
  spec.depth = 1;
  spec.estimate_draws = 8;
  spec.setup_reps = 41;
  return run_sim(options, spec);
}

}  // namespace perfbench
