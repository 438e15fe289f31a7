// serve-mini-pg: a theta-mini DRAS-PG snapshot loaded by ModelSnapshot
// and served by DecisionService behind a DecisionServer on a Unix socket,
// all in this process.  A closed loop of one DecisionClient connection,
// standing for a scheduler that waits for its decision, replays encoded
// windows captured from a seeded theta-mini FCFS simulation.  Every
// decision is checked against serve::reference_decision.
//
// Per-request overhead dominates: a lone request waits out the batching
// window (max_wait 200 us), and no simulation or training runs while
// measuring, so serve and net changes show here, and this is the control
// for training-side nn changes.

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/manager.h"
#include "core/dras_agent.h"
#include "core/presets.h"
#include "core/state_encoder.h"
#include "obs/hdr_histogram.h"
#include "obs/metrics.h"
#include "sched/fcfs_easy.h"
#include "serve/decision_service.h"
#include "serve/net/client.h"
#include "serve/net/server.h"
#include "serve/net/wire.h"
#include "serve/snapshot.h"
#include "sim/simulator.h"
#include "timed_policy.h"
#include "util/rng.h"
#include "workload/models.h"
#include "workload/synthetic.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dras::serve::DecisionRequest;

constexpr std::size_t kCaptureJobs = 3000;  // capture simulation
constexpr std::size_t kRequests = 4000;     // distinct captured windows
constexpr std::size_t kSetupReps = 101;
constexpr double kInterval = 0.5;  // throughput sampling interval, s

/// What a user stands up before the first decision: snapshot, service,
/// server with one I/O thread, and the connected client.
struct Stack {
  std::shared_ptr<const dras::serve::ModelSnapshot> snapshot;
  std::unique_ptr<dras::serve::DecisionService> service;
  std::unique_ptr<dras::serve::net::DecisionServer> server;
  std::unique_ptr<dras::serve::net::DecisionClient> client;

  ~Stack() {
    client.reset();
    if (server) server->stop();
    if (service) service->stop();
  }
};

std::unique_ptr<Stack> stand_up(const Options& o,
                                const dras::core::DrasConfig& config,
                                const std::filesystem::path& snapshot_path,
                                Recorder& recorder, std::int64_t parent) {
  auto stack = std::make_unique<Stack>();
  {
    ScopedSpan span(recorder, "serve.load", parent);
    stack->snapshot =
        dras::serve::ModelSnapshot::load(snapshot_path, config);
    dras::serve::ServiceOptions service_options;
    service_options.workers = o.workers;
    stack->service =
        std::make_unique<dras::serve::DecisionService>(service_options);
    stack->service->install(stack->snapshot);
  }
  ScopedSpan span(recorder, "net.connect", parent);
  dras::serve::net::ServerOptions server_options;
  const auto socket_path = o.scratch / "serve.sock";
  std::filesystem::remove(socket_path);
  server_options.address =
      dras::util::SocketAddress::unix_path(socket_path.string());
  server_options.io_workers = 1;
  stack->server = std::make_unique<dras::serve::net::DecisionServer>(
      server_options, *stack->service);
  stack->server->start();
  dras::serve::net::ClientOptions client_options;
  client_options.address = stack->server->bound_address();
  client_options.seed = 1;
  stack->client =
      std::make_unique<dras::serve::net::DecisionClient>(client_options);
  if (!stack->client->ping())
    throw std::runtime_error("client could not reach the server");
  return stack;
}

/// Windows the agent would see: one PG encoding per scheduling instance
/// of a seeded theta-mini FCFS simulation with a non-empty queue.
std::vector<DecisionRequest> capture(const dras::core::DrasConfig& config,
                                     const dras::sim::Trace& trace) {
  dras::core::StateEncoder encoder(config.total_nodes, config.time_scale);
  dras::sched::FcfsEasy fcfs;
  TimedPolicy policy(fcfs, "sched.schedule");
  std::vector<DecisionRequest> requests;
  policy.before = [&](dras::sim::SchedulingContext& ctx) {
    if (ctx.queue().empty() || requests.size() >= kRequests) return;
    const std::size_t valid =
        std::min<std::size_t>(config.window, ctx.queue().size());
    std::vector<const dras::sim::Job*> window(ctx.queue().begin(),
                                              ctx.queue().begin() +
                                                  static_cast<long>(valid));
    DecisionRequest request;
    request.valid = valid;
    encoder.encode_window(ctx, window, config.window, request.state);
    requests.push_back(std::move(request));
  };
  dras::sim::Simulator simulator(config.total_nodes);
  (void)simulator.run(trace, policy);
  return requests;
}

/// A closed loop of one client over the captured requests: the next
/// request goes out when the previous decision is back.
struct LoopResult {
  std::vector<double> latency_us;     ///< Every decision, client-observed.
  std::vector<double> per_interval;   ///< Decisions per s per interval.
  std::vector<double> batch_sizes;
  std::size_t decisions = 0;
  std::size_t wrong = 0;
  std::size_t degraded = 0;
  std::size_t errors = 0;
};

template <typename Decide>
LoopResult closed_loop(double seconds,
                       const std::vector<DecisionRequest>& requests,
                       const std::vector<std::size_t>& expected,
                       ThreadPeak& threads, const Decide& decide) {
  LoopResult out;
  const auto intervals = static_cast<std::size_t>(seconds / kInterval);
  std::vector<double> counts(std::max<std::size_t>(intervals, 1), 0.0);
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const std::size_t r = i % requests.size();
    const std::int64_t t0 = now_ns();
    try {
      const auto [job_index, degraded, batch] = decide(r);
      out.latency_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      out.batch_sizes.push_back(static_cast<double>(batch));
      if (job_index != expected[r]) ++out.wrong;
      if (degraded) ++out.degraded;
    } catch (const std::exception&) {
      ++out.errors;
    }
    ++out.decisions;
    const double done = seconds_since(start);
    const auto k = static_cast<std::size_t>(done / kInterval);
    if (k < counts.size()) counts[k] += 1.0;
    if (i % 512 == 0) threads.sample();
    if (done >= seconds) break;
  }
  for (double count : counts) out.per_interval.push_back(count / kInterval);
  return out;
}

void account(Result& out, const LoopResult& loop) {
  out.attempted += loop.decisions;
  if (loop.wrong > 0)
    out.fail(std::to_string(loop.wrong) +
                 " decisions differ from serve::reference_decision",
             loop.wrong);
  if (loop.degraded > 0)
    out.fail(std::to_string(loop.degraded) + " degraded responses",
             loop.degraded);
  if (loop.errors > 0)
    out.fail(std::to_string(loop.errors) + " requests failed", loop.errors);
}

}  // namespace

Result run_serve_mini_pg(const Options& o) {
  Result out;
  Recorder recorder(o.traced);
  ThreadPeak threads;
  const auto preset = dras::core::theta_mini();
  const auto model = dras::workload::theta_mini_workload();
  auto config = preset.agent_config(dras::core::AgentKind::PG, o.seed);
  config.total_nodes = preset.nodes;

  // The snapshot on disk is the deployment's input, written untimed.
  std::filesystem::path snapshot_path;
  {
    dras::core::DrasAgent agent(config);
    dras::ckpt::CheckpointManagerOptions manager_options;
    manager_options.dir = o.scratch / "snapshot";
    dras::ckpt::CheckpointManager manager(manager_options);
    dras::ckpt::TrainingState state;
    state.agent = &agent;
    state.telemetry = false;
    snapshot_path = manager.save(state, 1);
  }

  // --- Set-up: the trace windows come from, then the serving stack. ---
  std::vector<double> setup_s;
  dras::sim::Trace trace;
  std::unique_ptr<Stack> stack;
  const std::int64_t setup_root = recorder.open("bench.setup");
  for (std::size_t i = 0; i < (o.traced ? 1 : kSetupReps); ++i) {
    stack.reset();
    const auto start = Clock::now();
    {
      ScopedSpan span(recorder, "workload.generate", setup_root);
      dras::workload::GenerateOptions gen;
      gen.num_jobs = kCaptureJobs;
      gen.seed = o.seed;
      trace = dras::workload::generate_trace(model, gen);
    }
    stack = stand_up(o, config, snapshot_path, recorder, setup_root);
    setup_s.push_back(seconds_since(start));
  }
  recorder.close(setup_root);
  threads.sample();

  // Oracle: captured windows and their reference decisions, untimed.
  const std::vector<DecisionRequest> requests = capture(config, trace);
  if (requests.empty()) throw std::runtime_error("captured no windows");
  std::vector<std::size_t> expected;
  {
    const auto replica = stack->snapshot->make_replica();
    for (const auto& request : requests)
      expected.push_back(dras::serve::reference_decision(*replica, request));
  }

  struct Answer {
    std::size_t job_index;
    bool degraded;
    std::uint32_t batch;
  };
  const auto over_socket = [&](std::size_t r) {
    const auto d = stack->client->decide(requests[r]);
    return Answer{d.job_index, d.degraded, d.batch_size};
  };

  if (!o.traced) {
    const LoopResult loop =
        closed_loop(o.seconds, requests, expected, threads, over_socket);
    account(out, loop);
    const std::size_t n = loop.latency_us.size();
    if (samples_beyond(n, o.tail_percentile) < 10)
      out.fail("too few decisions for the tail percentile", 0);
    out.set("setup_s", median(setup_s), "s",
            std::to_string(setup_s.size()) + " set-ups, median");
    out.set("throughput_per_s", median(loop.per_interval), "1/s",
            std::to_string(loop.per_interval.size()) + " intervals of " +
                std::to_string(kInterval).substr(0, 3) +
                " s, median; decisions answered per s");
    out.set("latency_ms", percentile(loop.latency_us, 50) * 1e-3, "ms",
            std::to_string(n) + " decisions, median, client-observed");
    out.set("latency_tail_ms",
            percentile(loop.latency_us, o.tail_percentile) * 1e-3, "ms",
            "p" + std::to_string(o.tail_percentile).substr(0, 4) + " of " +
                std::to_string(n) + " decisions, " +
                std::to_string(samples_beyond(n, o.tail_percentile)) +
                " beyond");
    out.set("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM");
    std::string spread;
    for (double p : {90.0, 95.0, 99.0, 99.9})
      spread += "p" + std::to_string(p).substr(0, 4) + " " +
                std::to_string(percentile(loop.latency_us, p) * 1e-3) +
                " ms  ";
    out.info("decision latency", spread);
    out.info("decisions identical to the reference",
             std::to_string(n - loop.wrong) + " of " + std::to_string(n));
    return out;
  }

  // --- Traced run: untraced baseline, traced socket pass, in-process
  // pass, then forward_batch on the replica. ---
  const double quarter = o.seconds / 4;
  const LoopResult baseline =
      closed_loop(quarter, requests, expected, threads, over_socket);
  account(out, baseline);

  dras::obs::Registry::global().reset_values();
  dras::obs::set_enabled(true);
  const std::int64_t traced_root = recorder.open("bench.traced");
  const LoopResult traced =
      closed_loop(quarter, requests, expected, threads, [&](std::size_t r) {
        ScopedSpan span(recorder, "net.decide", traced_root, r);
        return over_socket(r);
      });
  recorder.close(traced_root);
  dras::obs::set_enabled(false);
  account(out, traced);
  const double forward_inside_us =
      dras::obs::Registry::global().hdr("serve.batch.forward_us").sum();

  const LoopResult inproc =
      closed_loop(quarter, requests, expected, threads, [&](std::size_t r) {
        const auto d = stack->service->submit(requests[r]).get();
        return Answer{d.job_index, false, d.batch_size};
      });
  account(out, inproc);

  // forward_batch at the batch sizes the socket pass saw.
  const auto replica = stack->snapshot->make_replica();
  auto& net = replica->network();
  const std::size_t input = net.config().input_size();
  std::vector<double> forward_batch_us;
  std::vector<float> outputs;
  std::vector<float> inputs;
  for (std::size_t k = 0; k < std::min<std::size_t>(2000,
                                                     baseline.batch_sizes.size());
       ++k) {
    const auto b = std::max<std::size_t>(
        1, static_cast<std::size_t>(baseline.batch_sizes[k]));
    inputs.resize(b * input);
    for (std::size_t j = 0; j < b; ++j)
      std::copy(requests[(k + j) % requests.size()].state.begin(),
                requests[(k + j) % requests.size()].state.end(),
                inputs.begin() + static_cast<long>(j * input));
    outputs.resize(b * net.config().outputs);
    const std::int64_t t0 = now_ns();
    net.forward_batch(inputs, b, outputs);
    forward_batch_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }

  // Wire sizes of one request and one response frame.
  dras::serve::net::RequestMsg request_msg;
  request_msg.request_id = 1;
  request_msg.request = requests.front();
  dras::serve::net::ResponseMsg response_msg;
  response_msg.request_id = 1;
  response_msg.model_version = stack->snapshot->version();
  response_msg.batch_size = 1;
  const auto client_stats = stack->client->stats();
  const auto service_stats = stack->service->stats();

  const double socket_p50 = percentile(baseline.latency_us, 50);
  const double inproc_p50 = percentile(inproc.latency_us, 50);
  const double forward_p50 = percentile(forward_batch_us, 50);
  out.set("workload.generate_s",
          [&] {
            for (const Span& s : recorder.spans())
              if (s.name == "workload.generate")
                return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
            return 0.0;
          }(),
          "s", "generate_trace of the capture trace");
  out.set("serve.inproc_latency_us_p50", inproc_p50, "us",
          std::to_string(inproc.latency_us.size()) +
              " DecisionService::submit calls");
  out.set("serve.inproc_latency_us_p99", percentile(inproc.latency_us, 99),
          "us", std::to_string(inproc.latency_us.size()) + " calls");
  out.set("serve.batch_size_mean", mean(baseline.batch_sizes), "requests",
          "NetDecision::batch_size");
  out.set("serve.batch_wait_share",
          inproc_p50 > 0 ? (inproc_p50 - forward_p50) / inproc_p50 : 0.0,
          "ratio", "(in-process p50 - forward_batch p50) / in-process p50");
  out.set("nn.forward_batch_us_p50", forward_p50, "us",
          std::to_string(forward_batch_us.size()) +
              " calls at the observed batch sizes");
  out.set("nn.forwards_per_decision",
          service_stats.requests > 0
              ? static_cast<double>(service_stats.batches) /
                    static_cast<double>(service_stats.requests)
              : 0.0,
          "count", "forward_batch calls per answered request");
  set_network_shape(out, config.network_config());
  out.set("net.transport_us_p50", socket_p50 - inproc_p50, "us",
          "socket p50 - in-process p50");
  out.set("net.request_bytes",
          static_cast<double>(
              dras::serve::net::encode_request(request_msg).size()),
          "B", "wire::encode_request");
  out.set("net.response_bytes",
          static_cast<double>(
              dras::serve::net::encode_response(response_msg).size()),
          "B", "wire::encode_response");
  out.set("net.retries", static_cast<double>(client_stats.retries), "count");
  out.set("net.reconnects", static_cast<double>(client_stats.reconnects),
          "count");
  out.set("net.degraded", static_cast<double>(client_stats.degraded),
          "count");
  out.set("obs.trace_overhead_share",
          1.0 - median(traced.per_interval) / median(baseline.per_interval),
          "ratio", "1 - traced / untraced throughput_per_s");
  out.set("exec.threads_peak", static_cast<double>(threads.peak()), "threads",
          "main (the client), 1 I/O, " + std::to_string(o.workers) +
              " inference, accept");
  // The inference worker runs one batch at a time, so the program's own
  // batch timer sums to nn wall time inside the traced decisions.
  finish_traced(out, recorder.spans(),
                {{"net", "nn", forward_inside_us * 1e-6}});
  if (!o.spans_out.empty()) recorder.write_csv(o.spans_out.string());
  return out;
}

}  // namespace perfbench
