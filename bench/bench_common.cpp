#include "bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "ckpt/manager.h"
#include "exec/parallel_evaluator.h"
#include "exec/parallel_runner.h"
#include "util/args.h"
#include "util/format.h"
#include "util/rng.h"

namespace dras::benchx {

namespace {

/// Fingerprint the bench invocation: every flag except the output ones
/// and the parallelism knobs, whose values do not change results (see
/// the exec/rollout determinism contracts).  `--k=v` counts as `--k v`,
/// so both spellings of one experiment agree.
std::string bench_fingerprint(int argc, const char* const* argv) {
  static constexpr std::string_view kIgnoredValued[] = {
      "--run-dir",     "--jobs",      "--rollout-workers",
      "--metrics-out", "--trace-out", "--trace-format"};
  std::string canonical;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    std::string_view value;
    const std::size_t eq = arg.starts_with("--") ? arg.find('=')
                                                 : std::string_view::npos;
    if (eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    if (arg == "--profile") continue;
    if (std::ranges::find(kIgnoredValued, arg) != std::end(kIgnoredValued)) {
      if (eq == std::string_view::npos) ++i;  // skip the separate value
      continue;
    }
    canonical += arg;
    canonical += ';';
    if (eq != std::string_view::npos) {
      canonical += value;
      canonical += ';';
    }
  }
  return obs::config_fingerprint(canonical);
}

}  // namespace

ObsSession::ObsSession(int argc, const char* const* argv) {
  try {
    const util::Args args(argc, argv, {"profile", "warm-start-relaxed"});
    const long long jobs = args.get_int("jobs", 0);
    jobs_ = jobs <= 0 ? exec::default_concurrency()
                      : static_cast<std::size_t>(jobs);
    seeds_ =
        static_cast<std::size_t>(std::max(1LL, args.get_int("seeds", 1)));
    rollout_requested_ =
        args.has("rollout-workers") || args.has("rollout-batch");
    rollout_workers_ =
        static_cast<std::size_t>(args.get_int("rollout-workers", 1));
    rollout_batch_ =
        static_cast<std::size_t>(args.get_int("rollout-batch", 0));
    warm_start_ = args.get("warm-start", "");
    warm_start_relaxed_ = args.flag("warm-start-relaxed");
    save_warm_start_ = args.get("save-warm-start", "");

    obs::RunInfo info;
    info.tool = argc > 0 ? std::filesystem::path(argv[0]).filename().string()
                         : "bench";
    info.argv.assign(argv, argv + argc);
    info.config_fingerprint = bench_fingerprint(argc, argv);
    session_ = std::make_unique<obs::RunSession>(args, std::move(info));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    std::exit(2);
  }
}

std::unique_ptr<rollout::RolloutPool> ObsSession::make_rollout_pool()
    const {
  if (!rollout_requested_) return nullptr;
  rollout::RolloutOptions options;
  options.workers = rollout_workers_;
  options.batch = rollout_batch_;
  options.tracer = session_->tracer();
  return std::make_unique<rollout::RolloutPool>(options);
}

ObsSession::~ObsSession() { (void)session_->finish(0); }

Scenario Scenario::theta_mini(std::uint64_t seed) {
  return Scenario{core::theta_mini(), workload::theta_mini_workload(), seed};
}

Scenario Scenario::cori_mini(std::uint64_t seed) {
  return Scenario{core::cori_mini(), workload::cori_mini_workload(), seed};
}

sim::Trace Scenario::trace(std::size_t jobs, std::uint64_t trace_seed,
                           double load_scale) const {
  workload::GenerateOptions options;
  options.num_jobs = jobs;
  options.seed = trace_seed;
  options.load_scale = load_scale;
  return workload::generate_trace(model, options);
}

sim::Trace Scenario::real_trace(std::size_t jobs) const {
  return trace(jobs, workload::kRealTraceSeed);
}

MethodSet::MethodSet(const Scenario& scenario) {
  random_ = std::make_unique<sched::RandomPolicy>(
      util::derive_seed(scenario.seed, "random-policy"));
  optimization_ = std::make_unique<sched::KnapsackOpt>(scenario.reward());

  decima_ = std::make_unique<sched::DecimaPG>(scenario.preset.agent_config(
      core::AgentKind::PG, util::derive_seed(scenario.seed, "decima")));

  dras_pg_ = std::make_unique<core::DrasAgent>(scenario.preset.agent_config(
      core::AgentKind::PG, util::derive_seed(scenario.seed, "dras-pg")));
  dras_dql_ = std::make_unique<core::DrasAgent>(scenario.preset.agent_config(
      core::AgentKind::DQL, util::derive_seed(scenario.seed, "dras-dql")));
}

namespace {
std::vector<train::Jobset> build_bench_curriculum(
    const Scenario& scenario, std::size_t episodes,
    std::size_t jobs_per_episode, std::uint64_t curriculum_seed) {
  const auto real = scenario.real_trace(jobs_per_episode * 4);
  train::CurriculumOptions options;
  // Short three-phase curriculum scaled to the episode budget.
  options.sampled_sets = std::max<std::size_t>(1, episodes / 3);
  options.real_sets = std::max<std::size_t>(1, episodes / 3);
  options.synthetic_sets =
      std::max<std::size_t>(1, episodes - 2 * (episodes / 3));
  options.jobs_per_set = jobs_per_episode;
  options.seed = curriculum_seed != 0
                     ? curriculum_seed
                     : util::derive_seed(scenario.seed, "bench-curriculum");
  return train::build_curriculum(scenario.model, real, options);
}
}  // namespace

void train_dras_agent(core::DrasAgent& agent, const Scenario& scenario,
                      std::size_t episodes, std::size_t jobs_per_episode,
                      std::uint64_t curriculum_seed,
                      rollout::RolloutPool* rollout,
                      obs::RunRecorder* recorder,
                      const sim::FaultConfig* faults) {
  train::Curriculum curriculum(build_bench_curriculum(
      scenario, episodes, jobs_per_episode, curriculum_seed));
  train::TrainerOptions trainer_options;
  trainer_options.validate_each_episode = false;
  if (faults != nullptr) trainer_options.faults = *faults;
  train::Trainer trainer(agent, scenario.preset.nodes, {}, trainer_options);
  train::RunOptions run_options;
  run_options.rollout = rollout;
  run_options.run = recorder;
  (void)trainer.run(curriculum, run_options);
  agent.set_training(false);
}

std::optional<std::filesystem::path> load_warm_start(
    const std::filesystem::path& dir, core::DrasAgent& agent,
    bool relaxed) {
  const auto newest = ckpt::newest_checkpoint(dir / agent.name());
  if (!newest) return std::nullopt;
  ckpt::load_agent_from_checkpoint(*newest, agent, relaxed);
  return newest;
}

std::filesystem::path save_warm_start(const std::filesystem::path& dir,
                                      core::DrasAgent& agent,
                                      std::size_t episode) {
  ckpt::CheckpointManagerOptions options;
  options.dir = dir / agent.name();
  std::filesystem::create_directories(options.dir);
  ckpt::CheckpointManager manager(options);
  ckpt::TrainingState state;
  state.agent = &agent;
  state.telemetry = false;  // a warm start adopts parameters, not counters
  return manager.save(state, episode);
}

void MethodSet::train_agents(const Scenario& scenario, std::size_t episodes,
                             std::size_t jobs_per_episode) {
  train::Curriculum curriculum(
      build_bench_curriculum(scenario, episodes, jobs_per_episode, 0));
  train::TrainerOptions trainer_options;
  trainer_options.validate_each_episode = false;
  for (core::DrasAgent* agent : {dras_pg_.get(), dras_dql_.get()}) {
    train::Trainer trainer(*agent, scenario.preset.nodes, {},
                           trainer_options);
    curriculum.seek(0);
    (void)trainer.run(curriculum, {});
    agent->set_training(false);
  }
  // Decima-PG trains on the same jobsets.
  for (const auto& jobset : curriculum.jobsets()) {
    sim::Simulator simulator(scenario.preset.nodes);
    (void)simulator.run(jobset.trace, *decima_);
  }
  decima_->set_training(false);
}

std::vector<sim::Scheduler*> MethodSet::all() {
  return {&fcfs_,        &bin_packing_, random_.get(), optimization_.get(),
          decima_.get(), dras_pg_.get(), dras_dql_.get()};
}

std::vector<train::Evaluation> evaluate_roster(
    const std::vector<sim::Scheduler*>& roster, int total_nodes,
    const sim::Trace& trace, const core::RewardFunction* reward,
    std::size_t jobs) {
  train::EvalOptions options;
  options.reward = reward;
  return evaluate_roster(roster, total_nodes, trace, options, jobs);
}

std::vector<train::Evaluation> evaluate_roster(
    const std::vector<sim::Scheduler*>& roster, int total_nodes,
    const sim::Trace& trace, const train::EvalOptions& options,
    std::size_t jobs) {
  const sim::Trace* traces[] = {&trace};
  return exec::ParallelEvaluator(jobs).evaluate_grid(
      total_nodes, traces, std::span<sim::Scheduler* const>(roster),
      options);
}

std::vector<train::Evaluation> evaluate_all(MethodSet& methods,
                                            const Scenario& scenario,
                                            const sim::Trace& trace,
                                            std::size_t jobs) {
  const auto reward = scenario.reward();
  return evaluate_roster(methods.all(), scenario.preset.nodes, trace,
                         &reward, jobs);
}

void print_preamble(const std::string& experiment, const Scenario& scenario,
                    std::size_t trace_jobs) {
  std::cout << "# " << experiment << "\n";
  std::cout << util::format(
      "# scenario={} nodes={} window={} reward={} jobs={} seed={}\n",
      scenario.preset.name, scenario.preset.nodes, scenario.preset.window,
      core::to_string(scenario.preset.reward), trace_jobs, scenario.seed);
  std::cout << "# (scaled-down model per DESIGN.md; shapes, not absolute "
               "values, are the reproduction target)\n";
}

std::vector<SweepCell> seed_sweep_grid(
    const std::vector<Scenario>& scenarios, std::size_t seeds,
    std::uint64_t base_trace_seed) {
  std::vector<SweepCell> grid;
  grid.reserve(scenarios.size() * std::max<std::size_t>(seeds, 1));
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    for (std::size_t r = 0; r < std::max<std::size_t>(seeds, 1); ++r) {
      SweepCell cell;
      cell.scenario_index = s;
      cell.seed_index = r;
      cell.scenario = scenarios[s];
      if (r == 0) {
        cell.trace_seed = base_trace_seed;
      } else {
        // Derive both seeds from the scenario's own: repetitions of
        // different scenarios never share a stream even at equal r.
        cell.scenario.seed =
            exec::task_seed(scenarios[s].seed, "seed-sweep-train", r);
        cell.trace_seed =
            exec::task_seed(scenarios[s].seed ^ base_trace_seed,
                            "seed-sweep-trace", r);
      }
      grid.push_back(std::move(cell));
    }
  }
  return grid;
}

std::vector<MethodBands> evaluation_bands(
    const std::vector<std::vector<train::Evaluation>>& per_seed) {
  std::vector<MethodBands> bands;
  if (per_seed.empty()) return bands;
  const std::size_t methods = per_seed.front().size();
  const auto band_of = [&](const auto& metric_of) {
    MetricBand band;
    const double n = static_cast<double>(per_seed.size());
    for (const auto& evaluations : per_seed) band.mean += metric_of(evaluations);
    band.mean /= n;
    if (per_seed.size() > 1) {
      double ss = 0.0;
      for (const auto& evaluations : per_seed) {
        const double d = metric_of(evaluations) - band.mean;
        ss += d * d;
      }
      band.stddev = std::sqrt(ss / (n - 1.0));  // sample stddev
    }
    return band;
  };
  for (std::size_t m = 0; m < methods; ++m) {
    MethodBands method_bands;
    method_bands.method = per_seed.front()[m].method;
    method_bands.avg_wait = band_of(
        [m](const auto& e) { return e[m].summary.avg_wait; });
    method_bands.max_wait = band_of(
        [m](const auto& e) { return e[m].summary.max_wait; });
    method_bands.avg_slowdown = band_of(
        [m](const auto& e) { return e[m].summary.avg_slowdown; });
    method_bands.avg_response = band_of(
        [m](const auto& e) { return e[m].summary.avg_response; });
    method_bands.utilization = band_of(
        [m](const auto& e) { return e[m].summary.utilization; });
    bands.push_back(std::move(method_bands));
  }
  return bands;
}

}  // namespace dras::benchx
