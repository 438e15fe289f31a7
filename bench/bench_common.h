// Shared support for the figure/table reproduction benches.
//
// Every bench binary is self-contained: it builds its workloads from the
// statistical models (DESIGN.md §1), trains the learned agents on a short
// curriculum, evaluates every method on an identical test trace, and
// prints both a human-readable table and machine-readable CSV rows.
#pragma once

#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dras_agent.h"
#include "core/presets.h"
#include "obs/run_session.h"
#include "rollout/rollout_pool.h"
#include "sched/bin_packing.h"
#include "sched/decima_pg.h"
#include "sched/fcfs_easy.h"
#include "sched/knapsack_opt.h"
#include "sched/random_policy.h"
#include "train/curriculum.h"
#include "train/evaluator.h"
#include "train/trainer.h"
#include "workload/jobset.h"
#include "workload/models.h"
#include "workload/synthetic.h"

namespace dras::benchx {

/// One experiment scenario: a scaled system preset plus its matching
/// workload model (theta-mini by default; cori-mini for capacity runs).
struct Scenario {
  core::SystemPreset preset;
  workload::WorkloadModel model;
  std::uint64_t seed = 1;

  static Scenario theta_mini(std::uint64_t seed = 1);
  static Scenario cori_mini(std::uint64_t seed = 1);

  [[nodiscard]] core::RewardFunction reward() const {
    return core::RewardFunction(preset.reward);
  }
  /// Generate a trace from this scenario's model.
  [[nodiscard]] sim::Trace trace(std::size_t jobs, std::uint64_t seed,
                                 double load_scale = 1.0) const;
  /// The designated stand-in "real" trace (DESIGN.md §1).
  [[nodiscard]] sim::Trace real_trace(std::size_t jobs) const;
};

/// The full method roster of §IV-A.  Owns every scheduler.
class MethodSet {
 public:
  explicit MethodSet(const Scenario& scenario);

  /// Train DRAS-PG, DRAS-DQL and Decima-PG for `episodes` episodes each on
  /// sampled jobsets of `jobs_per_episode` jobs, then freeze all agents.
  void train_agents(const Scenario& scenario, std::size_t episodes,
                    std::size_t jobs_per_episode);

  /// All methods in the paper's presentation order.
  [[nodiscard]] std::vector<sim::Scheduler*> all();
  [[nodiscard]] core::DrasAgent& dras_pg() { return *dras_pg_; }
  [[nodiscard]] core::DrasAgent& dras_dql() { return *dras_dql_; }
  [[nodiscard]] sched::DecimaPG& decima() { return *decima_; }
  [[nodiscard]] sched::FcfsEasy& fcfs() { return fcfs_; }

 private:
  sched::FcfsEasy fcfs_;
  sched::BinPacking bin_packing_;
  std::unique_ptr<sched::RandomPolicy> random_;
  std::unique_ptr<sched::KnapsackOpt> optimization_;
  std::unique_ptr<sched::DecimaPG> decima_;
  std::unique_ptr<core::DrasAgent> dras_pg_;
  std::unique_ptr<core::DrasAgent> dras_dql_;
};

/// Train one DRAS agent on a short three-phase curriculum (§III-C) built
/// from the scenario's stand-in real trace, then freeze it.  Shared by
/// the ablation and fairness benches so every experiment trains the
/// same way.
void train_dras_agent(core::DrasAgent& agent, const Scenario& scenario,
                      std::size_t episodes, std::size_t jobs_per_episode);

/// Warm start: load the agent's parameters from the newest checkpoint
/// under `<dir>/<agent-name>`.  Returns the checkpoint used, or nullopt
/// when the directory holds none.  A checkpoint written with a different
/// agent configuration is rejected (util::SerializationError) — the
/// fingerprint guard, see ckpt::load_agent_from_checkpoint.  With
/// `relaxed` (--warm-start-relaxed) a same-topology checkpoint from a
/// different preset loads anyway, with the fingerprint diff logged.
std::optional<std::filesystem::path> load_warm_start(
    const std::filesystem::path& dir, core::DrasAgent& agent,
    bool relaxed = false);

/// Save an agent-only checkpoint under `<dir>/<agent-name>` for a later
/// --warm-start.  Returns the path written.
std::filesystem::path save_warm_start(const std::filesystem::path& dir,
                                      core::DrasAgent& agent,
                                      std::size_t episode);

/// Evaluate every method on the same trace; returns results in roster
/// order.  Reward accounting uses the scenario's reward function.  With
/// `jobs` > 1 the roster evaluates concurrently via
/// exec::ParallelEvaluator (each worker runs a private clone); the
/// determinism contract guarantees output identical to jobs = 1.
[[nodiscard]] std::vector<train::Evaluation> evaluate_all(
    MethodSet& methods, const Scenario& scenario, const sim::Trace& trace,
    std::size_t jobs = 1);

/// Evaluate an explicit policy roster on one trace, in roster order, up
/// to `jobs` at a time (see evaluate_all for the determinism contract).
[[nodiscard]] std::vector<train::Evaluation> evaluate_roster(
    const std::vector<sim::Scheduler*>& roster, int total_nodes,
    const sim::Trace& trace, const core::RewardFunction* reward,
    std::size_t jobs);

/// Same, with full evaluation options — the failure benches use this to
/// inject a sim::FaultConfig per fault-rate cell.
[[nodiscard]] std::vector<train::Evaluation> evaluate_roster(
    const std::vector<sim::Scheduler*>& roster, int total_nodes,
    const sim::Trace& trace, const train::EvalOptions& options,
    std::size_t jobs);

/// Print the standard bench preamble (config echo, per DESIGN.md §4).
void print_preamble(const std::string& experiment, const Scenario& scenario,
                    std::size_t trace_jobs);

/// One cell of a (scenario x seed) sweep: a scenario whose training seed
/// has been re-derived for `seed_index`, plus the matching test-trace
/// seed.  Cells are independent by construction — each draws its
/// curriculum and workload from streams derived via exec::task_seed — so
/// they can run concurrently under ParallelRunner with output identical
/// to a serial loop.
struct SweepCell {
  std::size_t scenario_index = 0;
  std::size_t seed_index = 0;
  Scenario scenario;
  std::uint64_t trace_seed = 0;
};

/// Build the (scenario x seed) grid, scenario-major.  seed_index 0 keeps
/// each scenario's original training seed and `base_trace_seed`
/// unchanged, so the first repetition of a sweep reproduces the
/// single-seed run bit-for-bit; further repetitions derive decorrelated
/// seed streams from the scenario seed.
[[nodiscard]] std::vector<SweepCell> seed_sweep_grid(
    const std::vector<Scenario>& scenarios, std::size_t seeds,
    std::uint64_t base_trace_seed);

/// Mean and sample standard deviation of one metric across seeds (the
/// error bar; stddev is 0 with a single seed).
struct MetricBand {
  double mean = 0.0;
  double stddev = 0.0;
};

/// Per-method §IV-E metric bands across the seed repetitions of one
/// scenario.
struct MethodBands {
  std::string method;
  MetricBand avg_wait, max_wait, avg_slowdown, avg_response, utilization;
};

/// Aggregate one scenario's per-seed evaluation vectors (roster order
/// must match across seeds — evaluate_all guarantees it) into mean ±
/// stddev bands per method.
[[nodiscard]] std::vector<MethodBands> evaluation_bands(
    const std::vector<std::vector<train::Evaluation>>& per_seed);

/// Shared telemetry + execution plumbing for the bench harnesses.  The
/// telemetry half is an obs::RunSession (the five shared flags
/// --trace-out, --trace-format, --metrics-out, --profile and --run-dir,
/// exactly as in dras_sim); this class adds the bench-only flags
/// `--jobs N`, `--seeds N`, `--rollout-workers N`, `--rollout-batch B`,
/// `--warm-start DIR`, `--warm-start-relaxed` and `--save-warm-start
/// DIR`.  The run-dir fingerprint covers every flag except the output
/// and parallelism ones, whose values do not change results.  A bad
/// flag value prints the error and exits 2.  The destructor finishes the
/// session (metrics dumps, trace, --profile table, run.json).
class ObsSession {
 public:
  ObsSession(int argc, const char* const* argv);
  ~ObsSession();
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// Run recorder from --run-dir, or nullptr.  Wire into
  /// train::RunOptions::run (and call set_final_score / set_stat) to
  /// fill the manifest; the destructor finishes it.
  [[nodiscard]] obs::RunRecorder* run_recorder() const noexcept {
    return session_->recorder();
  }
  /// Worker budget from --jobs N (N >= 1); --jobs 0 or absent = hardware
  /// concurrency.
  [[nodiscard]] std::size_t jobs() const noexcept { return jobs_; }

  /// Seed repetitions from --seeds N (default 1).  Benches that support
  /// sweeps run their (scenario x seed) grid over a ParallelRunner and
  /// report mean ± stddev error bars; --seeds 1 is the byte-identical
  /// single-run path.
  [[nodiscard]] std::size_t seeds() const noexcept { return seeds_; }

  /// Data-parallel rollout pool from --rollout-workers/--rollout-batch,
  /// or nullptr when neither flag was given (legacy serial training).
  [[nodiscard]] std::unique_ptr<rollout::RolloutPool> make_rollout_pool()
      const;

  /// Checkpoint directory from --warm-start DIR; empty when absent.
  /// Feed to load_warm_start() before training learned agents.
  [[nodiscard]] const std::filesystem::path& warm_start() const noexcept {
    return warm_start_;
  }

  /// --warm-start-relaxed: accept a same-topology checkpoint whose
  /// config fingerprint differs (cross-preset transfer); the diff is
  /// logged.  Pass to load_warm_start()'s `relaxed` parameter.
  [[nodiscard]] bool warm_start_relaxed() const noexcept {
    return warm_start_relaxed_;
  }

  /// Checkpoint directory from --save-warm-start DIR; empty when absent.
  /// Feed to save_warm_start() after training learned agents — a later
  /// run of the *same bench* consumes it via --warm-start (the config
  /// fingerprint rejects checkpoints from a different bench setup).
  [[nodiscard]] const std::filesystem::path& save_warm_start_dir()
      const noexcept {
    return save_warm_start_;
  }

 private:
  std::unique_ptr<obs::RunSession> session_;
  std::size_t jobs_ = 1;
  std::size_t seeds_ = 1;
  bool rollout_requested_ = false;
  std::size_t rollout_workers_ = 1;
  std::size_t rollout_batch_ = 0;
  std::filesystem::path warm_start_;
  bool warm_start_relaxed_ = false;
  std::filesystem::path save_warm_start_;
};

}  // namespace dras::benchx
