// train-mini-dql: theta-mini DRAS-DQL (W=10, fc 256/64) trained through
// Trainer and RolloutPool on a seeded three-phase curriculum, with a
// checkpoint per round and one greedy validation on a held-out trace.
//
// nn forward/backward/Adam dominate here, together with
// StateEncoder::encode_job: DQL scores every window candidate with its
// own forward and re-encodes the node rows per candidate, while the
// simulator is small.  It is also the control for sim changes.
//
// Rollout workers run episodes in parallel, so their inner layers cannot
// be split from outside; the traced run replays one training episode
// single-threaded on a clone of the trained agent and probes the encoder
// and policy on the live window through a second, separate copy.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/manager.h"
#include "core/dras_agent.h"
#include "core/presets.h"
#include "core/state_encoder.h"
#include "nn/adam.h"
#include "nn/grad_accumulator.h"
#include "nn/network.h"
#include "obs/hdr_histogram.h"
#include "obs/metrics.h"
#include "rollout/rollout_pool.h"
#include "sim/simulator.h"
#include "timed_policy.h"
#include "train/curriculum.h"
#include "train/trainer.h"
#include "util/rng.h"
#include "workload/models.h"
#include "workload/synthetic.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dras::core::DrasAgent;
using dras::sim::SchedulingContext;

constexpr std::size_t kBatch = 4;           // episodes per rollout round
constexpr std::size_t kJobsPerSet = 500;    // jobs per curriculum jobset
constexpr std::size_t kSampledSets = 4;     // phase 1
constexpr std::size_t kRealSets = 4;        // phase 2 (weekly slices)
constexpr std::size_t kSyntheticSets = 8;   // phase 3
constexpr std::size_t kRealJobs = 4000;     // the stand-in real trace
constexpr std::size_t kValidationJobs = 2000;
constexpr std::size_t kSetupReps = 101;
// Every run trains the same fresh agent; the seed draws only the traces.
// The initial weights steer the schedules the agent trains on, and with
// them the work per job: on identical traces two initialisations ran 25%
// apart in throughput.
constexpr std::uint64_t kAgentSeed = 1;

struct Inputs {
  dras::sim::Trace validation;
  std::vector<dras::train::Jobset> jobsets;
  std::size_t jobs = 0;  // simulated per pass over the curriculum
};

/// The user's set-up: the real and held-out traces and the curriculum.
Inputs make_inputs(const dras::workload::WorkloadModel& model,
                   std::uint64_t seed, Recorder& recorder,
                   std::int64_t parent) {
  Inputs in;
  dras::sim::Trace real;
  {
    ScopedSpan span(recorder, "workload.generate", parent);
    dras::workload::GenerateOptions gen;
    gen.num_jobs = kRealJobs;
    gen.seed = dras::util::derive_seed(seed, "real");
    real = dras::workload::generate_trace(model, gen);
    gen.num_jobs = kValidationJobs;
    gen.seed = dras::util::derive_seed(seed, "validation");
    in.validation = dras::workload::generate_trace(model, gen);
  }
  ScopedSpan span(recorder, "train.curriculum", parent);
  dras::train::CurriculumOptions options;
  options.sampled_sets = kSampledSets;
  options.real_sets = kRealSets;
  options.synthetic_sets = kSyntheticSets;
  options.jobs_per_set = kJobsPerSet;
  options.seed = seed;
  in.jobsets = dras::train::build_curriculum(model, real, options);
  for (const auto& set : in.jobsets) in.jobs += set.trace.size();
  return in;
}

std::uint64_t parameter_digest(const DrasAgent& agent) {
  const auto params = agent.network().parameters();
  return fnv1a(params.data(), params.size_bytes());
}

/// One training pass over the curriculum from a fresh agent.
struct Pass {
  double wall_s = 0.0;
  std::vector<double> episode_s;
  std::vector<double> round_end_s;  ///< Since pass start, per checkpoint.
  std::uint64_t digest = 0;
  std::size_t episodes = 0;
  std::size_t bad_rounds = 0;
};

Pass train_pass(const dras::core::DrasConfig& config, const Inputs& in,
                dras::rollout::RolloutPool& pool,
                const std::filesystem::path& dir, ThreadPeak& threads,
                std::unique_ptr<DrasAgent>* keep = nullptr) {
  Pass pass;
  auto agent = std::make_unique<DrasAgent>(config);
  dras::train::Curriculum curriculum(in.jobsets);
  dras::train::TrainerOptions trainer_options;
  trainer_options.validate_each_episode = false;
  dras::train::Trainer trainer(*agent, config.total_nodes, {},
                               trainer_options);
  std::filesystem::remove_all(dir);
  dras::ckpt::CheckpointManagerOptions manager_options;
  manager_options.dir = dir;
  manager_options.every = 1;
  manager_options.keep_last = 2;
  dras::ckpt::CheckpointManager manager(manager_options);
  dras::train::RunOptions run_options;
  run_options.rollout = &pool;
  run_options.checkpoints = &manager;
  const auto start = Clock::now();
  run_options.on_checkpoint = [&](std::size_t, const std::filesystem::path&) {
    pass.round_end_s.push_back(seconds_since(start));
    threads.sample();
    // Loss and parameters stay finite after every round.
    if (!std::isfinite(agent->last_update_loss()) ||
        agent->network().non_finite_parameters() != 0)
      ++pass.bad_rounds;
  };
  const auto results = trainer.run(curriculum, run_options);
  pass.wall_s = seconds_since(start);
  for (const auto& r : results) pass.episode_s.push_back(r.wall_seconds);
  pass.episodes = results.size();
  pass.digest = parameter_digest(*agent);
  if (keep != nullptr) *keep = std::move(agent);
  return pass;
}

double hdr_sum_us(std::string_view name) {
  return dras::obs::Registry::global().hdr(name).sum();
}
std::uint64_t hdr_count(std::string_view name) {
  return dras::obs::Registry::global().hdr(name).count();
}

}  // namespace

Result run_train_mini_dql(const Options& o) {
  Result out;
  Recorder recorder(o.traced);
  ThreadPeak threads;
  const auto preset = dras::core::theta_mini();
  const auto model = dras::workload::theta_mini_workload();
  auto config = preset.agent_config(dras::core::AgentKind::DQL, kAgentSeed);
  config.total_nodes = preset.nodes;

  // --- Set-up: traces, curriculum, agent and rollout pool. ---
  std::vector<double> setup_s;
  Inputs in;
  std::unique_ptr<dras::rollout::RolloutPool> pool;
  const std::int64_t setup_root = recorder.open("bench.setup");
  for (std::size_t i = 0; i < (o.traced ? 1 : kSetupReps); ++i) {
    const auto start = Clock::now();
    in = make_inputs(model, o.seed, recorder, setup_root);
    // The user builds one agent; each pass below starts from its own
    // identical fresh one, so the set-up times this construction.
    const DrasAgent agent(config);
    dras::rollout::RolloutOptions rollout_options;
    rollout_options.workers = o.workers;
    rollout_options.batch = kBatch;
    pool = std::make_unique<dras::rollout::RolloutPool>(rollout_options);
    setup_s.push_back(seconds_since(start));
  }
  recorder.close(setup_root);

  // --- Training passes, each from the same fresh agent. ---
  const std::filesystem::path ckpt_dir = o.scratch / "ckpt";
  const double budget = o.traced ? o.seconds / 3 : o.seconds;
  std::vector<double> throughput;
  std::vector<double> episode_s;
  std::uint64_t digest = 0;
  std::unique_ptr<DrasAgent> trained;
  const auto account = [&](const Pass& pass) {
    out.attempted += pass.episodes;
    if (pass.bad_rounds > 0)
      out.fail("non-finite loss or parameters after a round",
               pass.bad_rounds * kBatch);
    if (throughput.empty() && digest == 0)
      digest = pass.digest;
    else if (pass.digest != digest)
      out.fail("final parameters differ between passes", pass.episodes);
  };
  const auto measure_start = Clock::now();
  double last_wall = 0.0;
  const std::size_t min_episodes = samples_needed(o.tail_percentile);
  while (throughput.size() < 2 ||
         seconds_since(measure_start) + last_wall <= budget ||
         (!o.traced && episode_s.size() < min_episodes &&
          seconds_since(measure_start) < 3 * budget)) {
    const Pass pass =
        train_pass(config, in, *pool, ckpt_dir, threads,
                   throughput.empty() ? &trained : nullptr);
    account(pass);
    last_wall = pass.wall_s;
    throughput.push_back(static_cast<double>(in.jobs) / pass.wall_s);
    episode_s.insert(episode_s.end(), pass.episode_s.begin(),
                     pass.episode_s.end());
  }

  // The user's last step: greedy validation on the held-out trace.
  const double avg_wait_h =
      dras::train::Trainer(*trained, config.total_nodes, in.validation)
          .validate()
          .validation_summary.avg_wait /
      3600.0;

  if (!o.traced) {
    const std::size_t n = episode_s.size();
    if (samples_beyond(n, o.tail_percentile) < 10)
      out.fail("too few episodes for the tail percentile", 0);
    out.set("setup_s", median(setup_s), "s",
            std::to_string(setup_s.size()) + " set-ups, median");
    out.set("throughput_per_s", median(throughput), "1/s",
            std::to_string(throughput.size()) + " passes of " +
                std::to_string(in.jobsets.size()) +
                " episodes, median; training jobs simulated per s");
    out.set("latency_ms", median(episode_s) * 1e3, "ms",
            std::to_string(n) + " rollout episodes, median");
    out.set("latency_tail_ms", percentile(episode_s, o.tail_percentile) * 1e3,
            "ms",
            "p" + std::to_string(o.tail_percentile).substr(0, 4) + " of " +
                std::to_string(n) + " episodes, " +
                std::to_string(samples_beyond(n, o.tail_percentile)) +
                " beyond");
    out.set("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM");
    out.info("avg_wait_h", std::to_string(avg_wait_h) + " h over " +
                               std::to_string(in.validation.size()) +
                               " held-out jobs, greedy Trainer::validate");
    std::filesystem::remove_all(ckpt_dir);
    return out;
  }

  // --- Traced pass: round boundaries from the checkpoint callback, slots
  // from EpisodeResult::wall_seconds; the program's own telemetry on. ---
  dras::obs::Registry::global().reset_values();
  dras::obs::set_enabled(true);
  const Pass traced = train_pass(config, in, *pool, ckpt_dir, threads);
  dras::obs::set_enabled(false);
  account(traced);
  const double ckpt_write_us_telemetry =
      hdr_count("ckpt.write_us") > 0
          ? hdr_sum_us("ckpt.write_us") /
                static_cast<double>(hdr_count("ckpt.write_us"))
          : 0.0;
  std::vector<double> round_s;
  std::vector<double> reduce_s;
  double busy = 0.0;
  double round_total = 0.0;
  for (std::size_t r = 0; r < traced.round_end_s.size(); ++r) {
    const double begin = r == 0 ? 0.0 : traced.round_end_s[r - 1];
    const double wall = traced.round_end_s[r] - begin;
    double slowest = 0.0;
    for (std::size_t k = r * kBatch;
         k < std::min((r + 1) * kBatch, traced.episode_s.size()); ++k) {
      slowest = std::max(slowest, traced.episode_s[k]);
      busy += traced.episode_s[k];
    }
    round_s.push_back(wall);
    reduce_s.push_back(wall - slowest);
    round_total += wall;
  }

  // --- Replay: one training episode on a clone of the trained agent,
  // single-threaded, timed by spans with the program's nn timers on inside
  // the agent's calls only.  Like a rollout slot, every clone below hands
  // its updates' gradients to a sink instead of stepping Adam. ---
  const dras::sim::Trace& replay_trace = in.jobsets.back().trace;
  dras::sim::Simulator simulator(config.total_nodes);
  dras::nn::GradientAccumulator gradients(
      trained->network().parameter_count());
  const auto replay_agent = trained->clone_agent();
  replay_agent->set_training(true);
  replay_agent->set_gradient_sink(&gradients);
  TimedPolicy replay(*replay_agent, "core.schedule");
  replay.recorder = &recorder;
  std::vector<double> queue_depth;
  std::vector<double> running_jobs;
  replay.before = [&](SchedulingContext& ctx) {
    queue_depth.push_back(static_cast<double>(ctx.queue().size()));
    running_jobs.push_back(
        static_cast<double>(ctx.cluster().running_count()));
    dras::obs::set_enabled(true);
  };
  replay.after = [](SchedulingContext&) { dras::obs::set_enabled(false); };
  dras::obs::Registry::global().reset_values();
  const std::int64_t replay_root = recorder.open("bench.replay");
  replay.parent = recorder.open("sim.run", replay_root);
  const auto replayed = simulator.run(replay_trace, replay);
  recorder.close(replay.parent);
  recorder.close(replay_root);
  dras::obs::set_enabled(false);
  out.attempted += 1;
  if (replayed.jobs.size() != replay_trace.size())
    out.fail("replayed episode left jobs unfinished", 1);
  const double nn_inside_us = hdr_sum_us("nn.forward_us") +
                              hdr_sum_us("nn.backward_us") +
                              hdr_sum_us("nn.batch_forward_us");
  const std::uint64_t forwards =
      hdr_count("nn.forward_us") + hdr_count("nn.batch_forward_us");
  const std::size_t decisions = replay_agent->episode_actions();

  // --- Probe replay: the same episode on another clone, with the encoder
  // and the DQL head probed on the live window through a separate copy,
  // so neither the timed replay nor the trajectory sees the probes. ---
  const auto probed_agent = trained->clone_agent();
  probed_agent->set_training(true);
  probed_agent->set_gradient_sink(&gradients);
  const auto probe_agent = trained->clone_agent();
  probe_agent->set_gradient_sink(&gradients);
  dras::core::StateEncoder encoder(config.total_nodes, config.time_scale);
  std::vector<double> encode_job_us;
  std::vector<double> encode_nodes_us;
  std::vector<double> select_us;
  std::vector<double> update_us;
  std::vector<double> candidates_per_decision;
  std::vector<dras::sim::NodeRow> rows;
  dras::util::Rng probe_rng(dras::util::derive_seed(o.seed, "probe"));
  std::size_t probe_decisions = 0;
  TimedPolicy probed(*probed_agent, "core.schedule");
  probed.before = [&](SchedulingContext& ctx) {
    const std::int64_t n0 = now_ns();
    ctx.cluster().encode_nodes(ctx.now(), rows);
    encode_nodes_us.push_back(static_cast<double>(now_ns() - n0) * 1e-3);
    const std::size_t window =
        std::min<std::size_t>(config.window, ctx.queue().size());
    if (window == 0) return;
    std::vector<std::vector<float>> candidates(window);
    for (std::size_t i = 0; i < window; ++i) {
      const std::int64_t t0 = now_ns();
      encoder.encode_job(ctx, *ctx.queue()[i], candidates[i]);
      encode_job_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
    candidates_per_decision.push_back(static_cast<double>(window));
    auto* dql = probe_agent->dql();
    const std::int64_t s0 = now_ns();
    const std::size_t action = dql->select_action(candidates, probe_rng, false);
    select_us.push_back(static_cast<double>(now_ns() - s0) * 1e-3);
    dql->record(std::move(candidates), action, 0.0);
    if (++probe_decisions % static_cast<std::size_t>(config.update_every) ==
        0) {
      const std::int64_t u0 = now_ns();
      dql->update();
      update_us.push_back(static_cast<double>(now_ns() - u0) * 1e-3);
    }
  };
  out.attempted += 1;
  if (simulator.run(replay_trace, probed).jobs.size() != replay_trace.size())
    out.fail("probed episode left jobs unfinished", 1);

  // --- nn on the workload's own network shape. ---
  const auto net_config = config.network_config();
  dras::util::Rng init_rng(dras::util::derive_seed(o.seed, "nn-probe"));
  dras::nn::Network net(net_config, init_rng);
  dras::nn::Adam adam(net.parameter_count(), config.adam);
  std::vector<float> input(net_config.input_size());
  for (float& v : input) v = static_cast<float>(init_rng.uniform(0.0, 1.0));
  std::vector<double> forward_us;
  std::vector<double> backward_us;
  std::vector<double> adam_us;
  const float grad_out[1] = {1.0f};
  float sink = 0.0f;
  for (int i = 0; i < 400; ++i) {
    const std::int64_t f0 = now_ns();
    sink += net.forward(input)[0];
    const std::int64_t f1 = now_ns();
    net.zero_gradients();
    const std::int64_t b0 = now_ns();
    net.backward(grad_out);
    const std::int64_t b1 = now_ns();
    adam.step(net.parameters(), net.gradients());
    const std::int64_t a1 = now_ns();
    forward_us.push_back(static_cast<double>(f1 - f0) * 1e-3);
    backward_us.push_back(static_cast<double>(b1 - b0) * 1e-3);
    adam_us.push_back(static_cast<double>(a1 - b1) * 1e-3);
  }
  if (!std::isfinite(sink)) out.fail("nn probe produced a non-finite output");

  // --- Checkpoint save of the trained state, timed singly. ---
  std::vector<double> save_ms;
  std::uintmax_t ckpt_bytes = 0;
  {
    dras::ckpt::CheckpointManagerOptions probe_options;
    probe_options.dir = o.scratch / "ckpt-probe";
    probe_options.keep_last = 2;
    dras::ckpt::CheckpointManager manager(probe_options);
    dras::ckpt::TrainingState state;
    state.agent = trained.get();
    for (std::size_t e = 1; e <= 9; ++e) {
      const auto s0 = Clock::now();
      const auto path = manager.save(state, e);
      save_ms.push_back(seconds_since(s0) * 1e3);
      ckpt_bytes = std::filesystem::file_size(path);
    }
  }

  const std::vector<Span> spans = recorder.spans();
  double curriculum_s = 0.0;
  double generate_s = 0.0;
  double replay_run_s = 0.0;
  double agent_s = 0.0;
  for (const Span& s : spans) {
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    if (s.name == "train.curriculum") curriculum_s += d;
    if (s.name == "workload.generate") generate_s += d;
    if (s.name == "sim.run") replay_run_s += d;
    if (s.name == "core.schedule") agent_s += d;
  }
  // The nn share of the agent's calls comes from the program's own nn
  // timers: a span inside the library is out of reach from here.
  const std::vector<Inner> inner = {{"core", "nn", nn_inside_us * 1e-6}};

  out.set("workload.generate_s", generate_s, "s",
          "real + held-out traces");
  out.set("train.curriculum_s", curriculum_s, "s", "build_curriculum");
  out.set("sim.run_s", replay_run_s, "s", "replayed episode");
  out.set("sim.avg_wait_h", avg_wait_h, "h",
          "held-out trace, greedy Trainer::validate");
  out.set("sim.loop_self_s", replay_run_s - agent_s, "s",
          "replay sim.run minus the agent's calls");
  out.set("sim.instances", static_cast<double>(replay.seconds.size()),
          "count", "replayed episode");
  out.set("sim.queue_depth_p50", percentile(queue_depth, 50), "jobs");
  out.set("sim.queue_depth_p99", percentile(queue_depth, 99), "jobs");
  out.set("sim.running_jobs_p50", percentile(running_jobs, 50), "jobs");
  out.set("sim.running_jobs_p99", percentile(running_jobs, 99), "jobs");
  out.set("sim.encode_nodes_us_p50", percentile(encode_nodes_us, 50), "us",
          std::to_string(encode_nodes_us.size()) + " probes");
  out.set("core.encode_job_us_p50", percentile(encode_job_us, 50), "us",
          std::to_string(encode_job_us.size()) + " window candidates");
  out.set("core.dql_select_us_p50", percentile(select_us, 50), "us",
          std::to_string(select_us.size()) + " probes");
  out.set("core.dql_select_us_p99", percentile(select_us, 99), "us",
          std::to_string(select_us.size()) + " probes");
  out.set("core.dql_update_us_p50", percentile(update_us, 50), "us",
          std::to_string(update_us.size()) + " updates");
  out.set("core.transition_bytes",
          mean(candidates_per_decision) *
              static_cast<double>(encoder.dql_input_size()) * 4.0,
          "B", "mean candidates x dql_input_size() x 4, computed");
  out.set("nn.forwards_per_decision",
          decisions > 0 ? static_cast<double>(forwards) /
                              static_cast<double>(decisions)
                        : 0.0,
          "count",
          std::to_string(forwards) + " forwards / " +
              std::to_string(decisions) + " agent selections");
  out.set("nn.forward_us_p50", percentile(forward_us, 50), "us",
          "400 calls");
  out.set("nn.backward_us_p50", percentile(backward_us, 50), "us",
          "400 calls");
  out.set("nn.adam_step_us_p50", percentile(adam_us, 50), "us",
          "400 calls");
  set_network_shape(out, net_config);
  out.set("rollout.round_s_p50", percentile(round_s, 50), "s",
          std::to_string(round_s.size()) + " rounds");
  out.set("rollout.reduce_s", percentile(reduce_s, 50), "s",
          "round wall - slowest slot, median; includes the checkpoint");
  out.set("rollout.worker_idle_share",
          round_total > 0
              ? 1.0 - busy / (static_cast<double>(kBatch) * round_total)
              : 0.0,
          "ratio", "1 - episode wall / (slots x round wall)");
  out.set("ckpt.save_ms_p50", percentile(save_ms, 50), "ms",
          "9 saves; program's ckpt.write_us mean " +
              std::to_string(ckpt_write_us_telemetry * 1e-3).substr(0, 6) +
              " ms");
  out.set("ckpt.bytes", static_cast<double>(ckpt_bytes), "B");
  out.set("obs.trace_overhead_share",
          1.0 - (static_cast<double>(in.jobs) / traced.wall_s) /
                    median(throughput),
          "ratio", "1 - traced / untraced throughput_per_s");
  out.set("exec.threads_peak", static_cast<double>(threads.peak()),
          "threads", std::to_string(o.workers) + " rollout workers + main");
  finish_traced(out, spans, inner);
  std::filesystem::remove_all(ckpt_dir);
  if (!o.spans_out.empty()) recorder.write_csv(o.spans_out.string());
  return out;
}

}  // namespace perfbench
