// dras_sim — command-line scheduling simulator.
//
// Run any scheduling policy over a workload (an SWF file or a synthetic
// model) and print the §IV-E metrics, optionally as CSV.
//
//   dras_sim --policy fcfs --model theta-mini --jobs 1000
//   dras_sim --policy dras-pg --train-episodes 20 --model cori-mini
//   dras_sim --policy sjf --swf trace.swf --nodes 4360
//   dras_sim --policy fcfs --model theta-mini --depth 4   # conservative
//
// Policies: fcfs, binpacking, random, optimization, decima-pg, sjf, ljf,
//           wfp3, f1, user-rr, drr, wfq, dras-pg, dras-dql
// Models:   theta, cori, theta-mini, cori-mini
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>

#include "ckpt/fault.h"
#include "ckpt/manager.h"
#include "core/dras_agent.h"
#include "core/presets.h"
#include "exec/async_writer.h"
#include "exec/parallel_evaluator.h"
#include "exec/parallel_runner.h"
#include "metrics/fairness.h"
#include "metrics/report.h"
#include "nn/serialize.h"
#include "obs/run_session.h"
#include "robust/health.h"
#include "robust/recovery.h"
#include "rollout/rollout_pool.h"
#include "sched/bin_packing.h"
#include "sched/decima_pg.h"
#include "sched/fair_share.h"
#include "sched/fcfs_easy.h"
#include "sched/knapsack_opt.h"
#include "sched/priority_sched.h"
#include "sched/random_policy.h"
#include "sim/fault.h"
#include "train/convergence.h"
#include "train/evaluator.h"
#include "train/trainer.h"
#include "util/args.h"
#include "util/format.h"
#include "util/logging.h"
#include "util/signal.h"
#include "workload/models.h"
#include "workload/swf.h"
#include "workload/synthetic.h"

namespace {

using dras::util::format;

int usage(const std::string& error = {}) {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage: dras_sim [options]\n"
      "  --policy P          fcfs | binpacking | random | optimization |\n"
      "                      decima-pg | sjf | ljf | wfp3 | f1 |\n"
      "                      user-rr | drr | wfq |\n"
      "                      dras-pg | dras-dql            (default fcfs)\n"
      "  --model M           theta | cori | theta-mini | cori-mini\n"
      "                                               (default theta-mini)\n"
      "  --swf FILE          replay an SWF trace instead of the model\n"
      "  --swf-strict        reject malformed SWF lines (file:line error)\n"
      "                      instead of skipping them with a warning\n"
      "  --nodes N           machine size (default: model/preset size)\n"
      "  --jobs N            synthetic trace length (default 1000)\n"
      "  --seed S            master seed (default 1)\n"
      "  --load L            arrival-rate multiplier (default 1.0)\n"
      "  --depth D           reservation depth, 1 = EASY (default 1)\n"
      "  --mtbf S            failure injection: per-node mean time between\n"
      "                      failures, seconds (default 0 = fault-free).\n"
      "                      Failures kill the running job on the struck\n"
      "                      node; --mtbf 0 is byte-identical to the\n"
      "                      fault-free simulator\n"
      "  --repair-time S     seconds a failed node stays down (default 1800)\n"
      "  --requeue-policy P  what happens to a killed job: requeue (back of\n"
      "                      the queue, original submit time) | resubmit\n"
      "                      (submit restamped at the kill) | drop (counted\n"
      "                      unfinished)               (default requeue)\n"
      "  --ckpt-interval S   application checkpoint every S compute-seconds\n"
      "                      (default 0 = off); a killed job restarts from\n"
      "                      its last completed checkpoint\n"
      "  --ckpt-cost S       checkpoint I/O cost, channel-seconds per\n"
      "                      allocated node (default 2)\n"
      "  --io-bandwidth X    shared checkpoint-channel speed multiplier\n"
      "                      (default 1); concurrent checkpoint writes\n"
      "                      queue on the channel and stretch runtime\n"
      "  --failure-features  append the failure-state rows (recent fault\n"
      "                      rate, nodes down, requeued backlog) to the\n"
      "                      DRAS agent's state encoding; changes the\n"
      "                      model/checkpoint fingerprint, so off by\n"
      "                      default\n"
      "  --users N           multi-tenant synthetic traces: tag jobs with\n"
      "                      N users under a Zipf popularity mix (default\n"
      "                      0 = anonymous, byte-identical legacy traces;\n"
      "                      the user draw rides a separate RNG stream so\n"
      "                      arrivals/sizes/runtimes never change)\n"
      "  --user-zipf S       Zipf exponent of the user mix (default 1.0;\n"
      "                      0 = uniform)\n"
      "  --projects N        project/allocation count (default: one per 4\n"
      "                      users)\n"
      "  --fairness-weight X add X * (1 - user_share) to the DRAS step\n"
      "                      reward — favours users holding a small\n"
      "                      decayed share of the machine (default 0,\n"
      "                      byte-identical off; changes the checkpoint\n"
      "                      fingerprint when set)\n"
      "  --fairness-features append the fair-share rows (candidate user\n"
      "                      shares, queue user diversity) to the DRAS\n"
      "                      state encoding; fingerprint discipline as\n"
      "                      --failure-features\n"
      "  --exec-jobs N       worker threads for the evaluation grid\n"
      "                      (0 = hardware concurrency; default 1; output\n"
      "                      is identical for every N; --jobs is taken by\n"
      "                      the trace length above)\n"
      "  --train-episodes E  episodes before evaluation for learned\n"
      "                      policies (default 10)\n"
      "  --rollout-workers N data-parallel rollout: collect training\n"
      "                      episodes on N concurrent agent clones with\n"
      "                      one reduced update per round (0 = hardware\n"
      "                      concurrency; default 1 = legacy serial loop).\n"
      "                      Pure throughput knob — final parameters are\n"
      "                      byte-identical for every N at a fixed batch\n"
      "  --rollout-batch B   episodes per rollout round, the unit of the\n"
      "                      batched update (default: the resolved worker\n"
      "                      count; 1 = legacy per-episode math)\n"
      "  --csv               machine-readable output\n"
      "  --verbose           progress logging\n"
      "  --trace-out FILE    write a telemetry event trace (simulator\n"
      "                      lifecycle + training) to FILE; open it in\n"
      "                      chrome://tracing or ui.perfetto.dev\n"
      "  --trace-format F    chrome (default) | jsonl\n"
      "  --metrics-out FILE  dump the metrics registry on exit\n"
      "                      (.csv -> CSV, anything else -> JSON)\n"
      "  --run-dir DIR       full observatory: write run.json (manifest),\n"
      "                      rounds.jsonl (per-round time series),\n"
      "                      trace.json (nested round/slot/NN spans) and\n"
      "                      metrics.json (registry dump with percentile\n"
      "                      tables) into DIR; analyze with dras_report\n"
      "  --profile           print the metrics registry to stderr on exit\n"
      "  --checkpoint-dir D  crash-safe training: write checksummed\n"
      "                      snapshots of the full trainer state into D\n"
      "  --checkpoint-every N  snapshot cadence in episodes (default 1)\n"
      "  --checkpoint-keep K   retain the newest K snapshots (default 3,\n"
      "                      0 = all)\n"
      "  --checkpoint-async  background checkpointing: serialize on the\n"
      "                      trainer thread (bytes identical to sync\n"
      "                      saves), hand fsync+rename+prune and the\n"
      "                      'latest' pointer update to a writer thread\n"
      "                      so training never blocks on the disk\n"
      "  --resume            restore the newest valid checkpoint from\n"
      "                      --checkpoint-dir before training; a resumed\n"
      "                      run finishes bit-identical to an\n"
      "                      uninterrupted one\n"
      "  --save-model FILE   write the trained agent's network (atomic)\n"
      "  --abort-after N     kill the process (exit 137, no cleanup)\n"
      "                      right after the checkpoint for episode >= N\n"
      "                      is written; crash-drill hook used by CI\n"
      "  --guard             self-healing training: check per-episode\n"
      "                      health invariants (finite loss/reward/params,\n"
      "                      norm ceilings, epsilon bounds); a tripped\n"
      "                      invariant rolls back to the newest snapshot\n"
      "                      with LR backoff + a perturbed RNG stream.\n"
      "                      Needs --checkpoint-dir; implied by the\n"
      "                      --guard-*/--max-rollbacks/--inject-* flags\n"
      "  --guard-loss X      |loss| ceiling (default 1e9; 0 = off)\n"
      "  --guard-grad-norm X gradient-norm ceiling (default off)\n"
      "  --guard-param-norm X parameter-norm ceiling (default 1e9; 0 = off)\n"
      "  --guard-adaptive    derive the loss/grad-norm ceilings from the\n"
      "                      run's own history (rolling median + k*MAD)\n"
      "                      instead of fixed values; an explicit\n"
      "                      --guard-loss/--guard-grad-norm still wins\n"
      "  --rollback-scope S  what a divergence rollback restores: full\n"
      "                      (agent + trainer + curriculum + telemetry,\n"
      "                      the default) | params (agent slice only;\n"
      "                      episode accounting keeps its live state —\n"
      "                      forward progress under expected divergences,\n"
      "                      e.g. training with heavy fault injection)\n"
      "  --max-rollbacks N   divergence retry budget before giving up\n"
      "                      with exit code 86 + a diagnostics dump\n"
      "                      (default 3)\n"
      "  --lr-backoff F      per-rollback learning-rate multiplier\n"
      "                      (default 0.5)\n"
      "  --lr-recover-after N  undo one LR backoff step after N\n"
      "                      consecutive healthy episodes (geometric\n"
      "                      recovery toward lr_scale 1.0; default 0 =\n"
      "                      backed-off LR stays for the rest of the run)\n"
      "  --diagnostics-out FILE  where the give-up dump goes (default\n"
      "                      <checkpoint-dir>/divergence-diagnostics.json)\n"
      "  --inject-numeric-fault K  divergence drill: corrupt training at\n"
      "                      --inject-at with K = nan-grads | loss-spike |\n"
      "                      param-blowup, then prove recovery\n"
      "  --inject-at N       episode index the drill corrupts (default 1)\n";
  return error.empty() ? 0 : 2;
}

struct Setup {
  dras::core::SystemPreset preset;
  dras::workload::WorkloadModel model;
};

Setup pick_model(const std::string& name) {
  if (name == "theta")
    return {dras::core::theta(), dras::workload::theta_workload()};
  if (name == "cori")
    return {dras::core::cori(), dras::workload::cori_workload()};
  if (name == "theta-mini")
    return {dras::core::theta_mini(), dras::workload::theta_mini_workload()};
  if (name == "cori-mini")
    return {dras::core::cori_mini(), dras::workload::cori_mini_workload()};
  throw std::invalid_argument(format("unknown model '{}'", name));
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const dras::util::Args args(
        argc, argv,
        {"csv", "verbose", "help", "profile", "resume", "swf-strict",
         "guard", "checkpoint-async", "guard-adaptive",
         "failure-features", "fairness-features"});
    if (args.flag("help")) return usage();
    const bool csv_output = args.flag("csv");
    if (args.flag("verbose"))
      dras::util::set_log_level(dras::util::LogLevel::Info);

    auto setup = pick_model(args.get("model", "theta-mini"));
    // Multi-tenant mode: tag synthetic jobs (main trace AND training
    // episodes) with a Zipf user mix.  The user draw rides a separate
    // derived RNG stream, so --users 0 (the default) is byte-identical.
    if (args.has("users"))
      setup.model = setup.model.with_users(
          static_cast<int>(args.get_int("users", 0)),
          args.get_double("user-zipf", 1.0),
          static_cast<int>(args.get_int("projects", 0)));
    const auto policy_name = args.get("policy", "fcfs");
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const int depth = static_cast<int>(args.get_int("depth", 1));
    const long long exec_jobs_raw = args.get_int("exec-jobs", 1);
    const std::size_t exec_jobs =
        exec_jobs_raw <= 0 ? dras::exec::default_concurrency()
                           : static_cast<std::size_t>(exec_jobs_raw);

    // Failure scenario (sim/fault.h).  All-defaults leaves every code
    // path byte-identical to the fault-free simulator; the seed is
    // derived from the master seed so --mtbf runs are reproducible
    // without a separate flag.
    dras::sim::FaultConfig fault_config;
    fault_config.mtbf = args.get_double("mtbf", 0.0);
    fault_config.repair_time = args.get_double("repair-time", 1800.0);
    if (args.has("requeue-policy"))
      fault_config.requeue = dras::sim::parse_requeue_policy(
          args.get("requeue-policy", "requeue"));
    fault_config.ckpt_interval = args.get_double("ckpt-interval", 0.0);
    fault_config.ckpt_seconds_per_node = args.get_double("ckpt-cost", 2.0);
    fault_config.io_bandwidth = args.get_double("io-bandwidth", 1.0);
    fault_config.seed = dras::util::derive_seed(seed, "sim-fault");
    const bool faults_enabled = fault_config.enabled();
    // Cross-episode fault accounting; serialized into checkpoints
    // ("FALT") only when the scenario is active, so fault-free
    // checkpoint bytes stay identical to historical ones.
    dras::sim::FaultScenario fault_scenario;
    fault_scenario.config = fault_config;

    // Workload.
    dras::sim::Trace trace;
    int nodes = setup.preset.nodes;
    if (args.has("swf")) {
      if (args.flag("swf-strict")) {
        dras::workload::SwfParseOptions swf_options;
        swf_options.strict = true;
        trace = dras::workload::parse_swf_file(args.get("swf", ""),
                                               swf_options)
                    .trace;
      } else {
        trace = dras::workload::read_swf_file(args.get("swf", ""));
      }
      if (trace.empty()) return usage("SWF file contains no usable jobs");
      int max_size = 0;
      for (const auto& job : trace) max_size = std::max(max_size, job.size);
      nodes = static_cast<int>(args.get_int("nodes", std::max(max_size, 1)));
    } else {
      dras::workload::GenerateOptions gen;
      gen.num_jobs = static_cast<std::size_t>(args.get_int("jobs", 1000));
      gen.seed = seed;
      gen.load_scale = args.get_double("load", 1.0);
      trace = dras::workload::generate_trace(setup.model, gen);
      nodes = static_cast<int>(args.get_int("nodes", setup.preset.nodes));
    }

    // Policy.
    const dras::core::RewardFunction reward(setup.preset.reward);
    std::unique_ptr<dras::sim::Scheduler> owned;
    dras::core::DrasAgent* trained_agent = nullptr;
    const auto train_episodes =
        static_cast<std::size_t>(args.get_int("train-episodes", 10));

    const std::string checkpoint_dir = args.get("checkpoint-dir", "");
    const auto checkpoint_every =
        static_cast<std::size_t>(args.get_int("checkpoint-every", 1));
    const auto checkpoint_keep =
        static_cast<std::size_t>(args.get_int("checkpoint-keep", 3));
    const bool resume = args.flag("resume");
    const bool checkpoint_async = args.flag("checkpoint-async");
    // Outlives the manager created in train_agent; its destructor drains
    // the queue, so every issued snapshot is durable before exit.
    std::unique_ptr<dras::exec::AsyncWriter> checkpoint_writer;
    if (checkpoint_async && checkpoint_dir.empty())
      return usage("--checkpoint-async needs --checkpoint-dir");
    const long long abort_after = args.get_int("abort-after", 0);
    const std::string save_model = args.get("save-model", "");
    if (resume && checkpoint_dir.empty())
      return usage("--resume needs --checkpoint-dir");

    // Self-healing guardrails: any guard/drill flag implies --guard.
    const bool guarded = args.flag("guard") || args.has("guard-loss") ||
                         args.has("guard-grad-norm") ||
                         args.has("guard-param-norm") ||
                         args.flag("guard-adaptive") ||
                         args.has("rollback-scope") ||
                         args.has("max-rollbacks") ||
                         args.has("lr-backoff") ||
                         args.has("inject-numeric-fault");
    if (guarded && checkpoint_dir.empty())
      return usage("--guard needs --checkpoint-dir (rollback targets)");
    dras::robust::HealthLimits health_limits;
    if (args.has("guard-loss"))
      health_limits.max_loss = args.get_double("guard-loss", 0.0);
    if (args.has("guard-grad-norm"))
      health_limits.max_grad_norm = args.get_double("guard-grad-norm", 0.0);
    if (args.has("guard-param-norm"))
      health_limits.max_param_norm =
          args.get_double("guard-param-norm", 0.0);
    health_limits.adaptive = args.flag("guard-adaptive");
    const auto rollback_scope = dras::robust::parse_rollback_scope(
        args.get("rollback-scope", "full"));
    const auto max_rollbacks =
        static_cast<std::size_t>(args.get_int("max-rollbacks", 3));
    const double lr_backoff = args.get_double("lr-backoff", 0.5);
    const auto lr_recover_after =
        static_cast<std::size_t>(args.get_int("lr-recover-after", 0));
    const std::string diagnostics_out = args.get("diagnostics-out", "");
    std::optional<dras::ckpt::NumericFault> inject_fault;
    if (args.has("inject-numeric-fault")) {
      const std::string fault_name = args.get("inject-numeric-fault", "");
      inject_fault = dras::ckpt::parse_numeric_fault(fault_name);
      if (!inject_fault)
        return usage(format(
            "unknown numeric fault '{}' (nan-grads | loss-spike | "
            "param-blowup)",
            fault_name));
    }
    const auto inject_at =
        static_cast<std::size_t>(args.get_int("inject-at", 1));

    // Fingerprint the *result-relevant* configuration: everything that
    // changes the trained parameters or the evaluated workload.  Worker
    // counts are deliberately excluded — results are byte-identical
    // across --rollout-workers/--exec-jobs, so runs differing only in
    // parallelism stay comparable in dras_report.  Built only for
    // --run-dir: reading --load etc. here would hide them from the
    // unknown-option check on runs that never use them.
    std::string canonical;
    if (args.has("run-dir")) {
      canonical = format(
          "policy={};model={};swf={};nodes={};jobs={};seed={};load={};"
          "depth={};train_episodes={};rollout_batch={}",
          policy_name, args.get("model", "theta-mini"), args.get("swf", ""),
          nodes, trace.size(), seed, args.get_double("load", 1.0), depth,
          train_episodes, args.get_int("rollout-batch", 0));
      if (faults_enabled) {
        // Appended only when fault injection is on, so fault-free runs
        // keep their historical fingerprints and stay comparable across
        // this change.
        canonical += format(
            ";mtbf={};repair={};requeue={};ckpt_interval={};ckpt_cost={};"
            "io_bw={};failure_features={}",
            fault_config.mtbf, fault_config.repair_time,
            dras::sim::to_string(fault_config.requeue),
            fault_config.ckpt_interval, fault_config.ckpt_seconds_per_node,
            fault_config.io_bandwidth,
            args.flag("failure-features") ? 1 : 0);
      }
      if (args.has("users") || args.flag("fairness-features") ||
          args.get_double("fairness-weight", 0.0) != 0.0) {
        // Same discipline as the fault block: appended only when the
        // multi-tenant machinery is on, so anonymous runs keep their
        // historical fingerprints.
        canonical += format(
            ";users={};user_zipf={};projects={};fairness_weight={};"
            "fairness_features={}",
            setup.model.user_count, setup.model.user_zipf_exponent,
            setup.model.project_count,
            args.get_double("fairness-weight", 0.0),
            args.flag("fairness-features") ? 1 : 0);
      }
    }
    // Telemetry: the session's tracer becomes the process default so
    // every simulator — including the ones inside training episodes —
    // feeds it.
    dras::obs::RunSession session(
        args, {"dras_sim", {argv, argv + argc}, seed,
               dras::obs::config_fingerprint(canonical)});
    session.note("policy", policy_name);
    session.note("model", args.has("swf") ? args.get("swf", "")
                                          : args.get("model", "theta-mini"));
    // ^C / SIGTERM set a flag the training loop polls at episode
    // boundaries; training flushes a final checkpoint and we exit with
    // the shell convention code instead of losing the run.  Declared
    // after the session so it is destroyed first (see RunSession).
    dras::util::InterruptGuard interrupt_guard;

    const auto train_agent = [&](dras::core::DrasAgent& agent) {
      // Jobsets are regenerated from per-episode derived seeds, so they
      // are identical on every start and a resumed run only moves the
      // curriculum cursor forward.
      std::vector<dras::train::Jobset> jobsets;
      jobsets.reserve(train_episodes);
      for (std::size_t e = 0; e < train_episodes; ++e) {
        dras::workload::GenerateOptions gen;
        gen.num_jobs = 400;
        gen.seed = dras::util::derive_seed(seed, format("train-{}", e));
        jobsets.push_back(dras::train::Jobset{
            format("train-{}", e), dras::train::JobsetPhase::Synthetic,
            dras::workload::generate_trace(setup.model, gen)});
      }
      dras::train::Curriculum curriculum(std::move(jobsets));

      dras::train::TrainerOptions options;
      options.validate_each_episode = false;
      options.faults = fault_config;
      dras::train::Trainer trainer(agent, nodes, {}, options);

      dras::train::RunOptions run_options;
      run_options.stop = &dras::util::InterruptGuard::flag();
      run_options.run = session.recorder();
      run_options.fault_scenario =
          faults_enabled ? &fault_scenario : nullptr;
      std::unique_ptr<dras::rollout::RolloutPool> rollout;
      if (args.has("rollout-workers") || args.has("rollout-batch")) {
        dras::rollout::RolloutOptions rollout_options;
        rollout_options.workers =
            static_cast<std::size_t>(args.get_int("rollout-workers", 1));
        rollout_options.batch =
            static_cast<std::size_t>(args.get_int("rollout-batch", 0));
        rollout_options.faults = fault_config;
        rollout =
            std::make_unique<dras::rollout::RolloutPool>(rollout_options);
        run_options.rollout = rollout.get();
      }
      std::unique_ptr<dras::ckpt::CheckpointManager> manager;
      std::unique_ptr<dras::robust::HealthMonitor> health;
      std::unique_ptr<dras::robust::RecoveryPolicy> recovery;
      if (!checkpoint_dir.empty()) {
        dras::ckpt::CheckpointManagerOptions manager_options;
        manager_options.dir = checkpoint_dir;
        manager_options.every = checkpoint_every;
        manager_options.keep_last = checkpoint_keep;
        if (checkpoint_async) {
          checkpoint_writer = std::make_unique<dras::exec::AsyncWriter>();
          manager_options.writer = checkpoint_writer.get();
        }
        manager = std::make_unique<dras::ckpt::CheckpointManager>(
            manager_options);
        run_options.checkpoints = manager.get();
        if (guarded) {
          health =
              std::make_unique<dras::robust::HealthMonitor>(health_limits);
          dras::robust::RecoveryOptions recovery_options;
          recovery_options.max_rollbacks = max_rollbacks;
          recovery_options.lr_backoff = lr_backoff;
          recovery_options.lr_recover_after = lr_recover_after;
          recovery_options.scope = rollback_scope;
          recovery_options.diagnostics_path =
              diagnostics_out.empty()
                  ? std::filesystem::path(checkpoint_dir) /
                        "divergence-diagnostics.json"
                  : std::filesystem::path(diagnostics_out);
          recovery = std::make_unique<dras::robust::RecoveryPolicy>(
              recovery_options, *manager);
          run_options.health = health.get();
          run_options.recovery = recovery.get();
        }
        if (inject_fault) {
          // One-shot sabotage: fire exactly once even when the rollback
          // re-runs the corrupted episode — that is the recovery drill.
          run_options.sabotage =
              [fault = *inject_fault, inject_at, fired = false](
                  dras::core::DrasAgent& drilled,
                  dras::train::EpisodeResult& result) mutable {
                if (fired || result.episode != inject_at) return;
                fired = true;
                dras::util::log_warn(
                    "drill: injecting numeric fault {} at episode {}",
                    dras::ckpt::to_string(fault), result.episode);
                dras::robust::apply_numeric_fault(fault, drilled, result);
              };
        }
        if (resume) {
          dras::ckpt::TrainingState state;
          state.agent = &agent;
          state.trainer = &trainer;
          state.curriculum = &curriculum;
          state.recovery =
              recovery != nullptr ? &recovery->state() : nullptr;
          state.faults = faults_enabled ? &fault_scenario : nullptr;
          const auto restored = manager->restore_latest(state);
          if (restored) {
            // LR backoff + RNG nonce live outside the agent sections;
            // re-apply them so a resumed recovery keeps its discipline.
            if (recovery != nullptr)
              dras::robust::RecoveryPolicy::apply(recovery->state(), agent);
            dras::util::log_info(
                "resumed from {} (episode {} of {})", restored->string(),
                trainer.episodes_done(), curriculum.size());
          } else {
            dras::util::log_info(
                "no checkpoint in {}; starting from scratch",
                checkpoint_dir);
          }
        }
        if (abort_after > 0) {
          run_options.on_checkpoint =
              [abort_after, &checkpoint_writer](
                  std::size_t episode, const std::filesystem::path& path) {
                if (episode < static_cast<std::size_t>(abort_after)) return;
                // The drill proves the just-written checkpoint alone
                // suffices; with --checkpoint-async that write may still
                // be queued, so make it durable before "crashing".
                if (checkpoint_writer) checkpoint_writer->wait_idle();
                std::cerr << format(
                    "abort-after: simulating crash after {} ({} episodes)\n",
                    path.string(), episode);
                // SIGKILL-equivalent: no destructors, no flushes — only
                // the just-written checkpoint survives, which is exactly
                // what the crash drill must prove sufficient.
                std::_Exit(137);
              };
        }
      }
      try {
        (void)trainer.run(curriculum, run_options);
      } catch (const dras::robust::DivergenceError&) {
        // Keep the telemetry that explains the give-up (robust.*).
        (void)session.finish(dras::robust::kDivergenceExitCode);
        throw;
      }
      agent.set_training(false);
    };

    if (policy_name == "fcfs") {
      owned = std::make_unique<dras::sched::FcfsEasy>();
    } else if (policy_name == "binpacking") {
      owned = std::make_unique<dras::sched::BinPacking>();
    } else if (policy_name == "random") {
      owned = std::make_unique<dras::sched::RandomPolicy>(seed);
    } else if (policy_name == "optimization") {
      owned = std::make_unique<dras::sched::KnapsackOpt>(reward);
    } else if (policy_name == "sjf") {
      owned = std::make_unique<dras::sched::PriorityScheduler>(
          dras::sched::make_sjf());
    } else if (policy_name == "ljf") {
      owned = std::make_unique<dras::sched::PriorityScheduler>(
          dras::sched::make_ljf());
    } else if (policy_name == "wfp3") {
      owned = std::make_unique<dras::sched::PriorityScheduler>(
          dras::sched::make_wfp3());
    } else if (policy_name == "f1") {
      owned = std::make_unique<dras::sched::PriorityScheduler>(
          dras::sched::make_f1());
    } else if (policy_name == "user-rr") {
      owned = std::make_unique<dras::sched::UserRoundRobin>();
    } else if (policy_name == "drr") {
      owned = std::make_unique<dras::sched::DeficitRoundRobin>();
    } else if (policy_name == "wfq") {
      owned = std::make_unique<dras::sched::WeightedFairQueuing>();
    } else if (policy_name == "decima-pg") {
      auto cfg = setup.preset.agent_config(dras::core::AgentKind::PG, seed);
      cfg.total_nodes = nodes;
      auto decima = std::make_unique<dras::sched::DecimaPG>(cfg);
      for (std::size_t e = 0; e < train_episodes; ++e) {
        dras::workload::GenerateOptions gen;
        gen.num_jobs = 400;
        gen.seed = dras::util::derive_seed(seed, format("train-{}", e));
        dras::sim::Simulator sim(nodes);
        if (faults_enabled) {
          // Same per-episode fault-stream derivation as the Trainer so
          // decima training faces the failure process DRAS trains under.
          auto episode_faults = fault_config;
          episode_faults.seed =
              dras::exec::task_seed(fault_config.seed, "fault", e);
          sim.set_fault_config(std::move(episode_faults));
        }
        (void)sim.run(dras::workload::generate_trace(setup.model, gen),
                      *decima);
      }
      decima->set_training(false);
      owned = std::move(decima);
    } else if (policy_name == "dras-pg" || policy_name == "dras-dql") {
      auto cfg = setup.preset.agent_config(
          policy_name == "dras-pg" ? dras::core::AgentKind::PG
                                   : dras::core::AgentKind::DQL,
          seed);
      cfg.total_nodes = nodes;
      cfg.failure_features = args.flag("failure-features");
      cfg.fairness_features = args.flag("fairness-features");
      cfg.reward_weights.fairness = args.get_double("fairness-weight", 0.0);
      auto agent = std::make_unique<dras::core::DrasAgent>(cfg);
      train_agent(*agent);
      trained_agent = agent.get();
      owned = std::move(agent);
    } else {
      return usage(format("unknown policy '{}'", policy_name));
    }

    if (const auto unread = args.unused(); !unread.empty())
      return usage(format("unknown option --{}", unread.front()));

    if (dras::util::InterruptGuard::interrupted()) {
      std::cerr << "interrupted; training state checkpointed, skipping "
                   "evaluation\n";
      const int code = 128 + dras::util::InterruptGuard::signal_received();
      (void)session.finish(code);
      return code;
    }

    if (!save_model.empty()) {
      if (trained_agent == nullptr)
        return usage("--save-model needs a dras-pg or dras-dql policy");
      dras::nn::save_network_file(save_model, trained_agent->network());
    }

    // Run through the parallel evaluator.  dras_sim evaluates a single
    // (trace, policy) cell, so any --exec-jobs value takes the serial
    // path and the output is identical for every N.
    dras::train::EvalOptions eval_options;
    eval_options.reward = &reward;
    eval_options.reservation_depth = depth;
    eval_options.faults = fault_config;
    const dras::sim::Trace* traces[] = {&trace};
    dras::sim::Scheduler* policies[] = {owned.get()};
    const auto evaluations = dras::exec::ParallelEvaluator(exec_jobs)
                                 .evaluate_grid(nodes, traces, policies,
                                                eval_options);
    const auto& evaluation = evaluations.front();
    const auto& result = evaluation.result;
    const auto& summary = evaluation.summary;
    const double total_reward = evaluation.total_reward;

    // Multi-tenant accounting: computed whenever any completed job
    // carries a user id (synthetic --users mix or SWF user fields).
    // Anonymous runs skip the whole block, so their bytes never change.
    const auto fairness = dras::metrics::fairness_summary(result.jobs);
    const bool multi_tenant =
        fairness.users > 1 ||
        (fairness.users == 1 &&
         fairness.per_user.front().user_id != dras::sim::kUnknownUser);

    // Telemetry epilogue: dump metrics, finalize the trace and manifest.
    if (multi_tenant) {
      session.set_stat("fairness_jain", fairness.jain_service);
      session.set_stat("fairness_jain_slowdown", fairness.jain_slowdown);
      session.set_stat("fairness_users", static_cast<double>(fairness.users));
      session.set_stat("max_user_slowdown", fairness.max_user_slowdown);
    }
    session.set_final_score(total_reward);
    if (!session.finish(0)) return 2;

    if (csv_output) {
      std::cout << "policy,nodes,depth,jobs,unfinished,avg_wait_s,max_wait_s,"
                   "p90_wait_s,avg_slowdown,avg_response_s,utilization,"
                   "total_reward\n";
      std::cout << format("{},{},{},{},{},{:.1f},{:.1f},{:.1f},{:.3f},{:.1f},"
                          "{:.4f},{:.3f}\n",
                          owned->name(), nodes, depth, summary.jobs,
                          result.unfinished_jobs, summary.avg_wait,
                          summary.max_wait, summary.p90_wait,
                          summary.avg_slowdown, summary.avg_response,
                          summary.utilization, total_reward);
    } else {
      std::vector<std::vector<std::string>> rows = {
          {"policy", std::string(owned->name())},
          {"machine", format("{} nodes, reservation depth {}", nodes, depth)},
          {"jobs completed", format("{}", summary.jobs)},
          {"jobs unfinished", format("{}", result.unfinished_jobs)},
          {"avg wait", dras::metrics::format_duration(summary.avg_wait)},
          {"p90 wait", dras::metrics::format_duration(summary.p90_wait)},
          {"max wait", dras::metrics::format_duration(summary.max_wait)},
          {"avg slowdown", format("{:.2f}", summary.avg_slowdown)},
          {"avg response",
           dras::metrics::format_duration(summary.avg_response)},
          {"utilization", format("{:.1f}%", 100.0 * summary.utilization)},
          {"total reward", format("{:.2f}", total_reward)}};
      if (multi_tenant) {
        rows.push_back({"users", format("{}", fairness.users)});
        rows.push_back(
            {"jain (service)", format("{:.4f}", fairness.jain_service)});
        rows.push_back(
            {"jain (slowdown)", format("{:.4f}", fairness.jain_slowdown)});
        rows.push_back({"max user slowdown",
                        format("{:.2f}", fairness.max_user_slowdown)});
      }
      dras::metrics::print_table(std::cout, {"metric", "value"}, rows);
      if (multi_tenant) {
        std::vector<std::vector<std::string>> per_user;
        per_user.reserve(fairness.per_user.size());
        for (const auto& stat : fairness.per_user)
          per_user.push_back(
              {stat.user_id == dras::sim::kUnknownUser
                   ? std::string("(unknown)")
                   : format("user {}", stat.user_id),
               format("{} jobs, avg wait {}, avg slowdown {:.2f}, "
                      "{:.0f} node-s",
                      stat.jobs,
                      dras::metrics::format_duration(stat.avg_wait),
                      stat.avg_slowdown, stat.node_seconds)});
        dras::metrics::print_table(std::cout, {"user", "service"}, per_user);
      }
    }
    return 0;
  } catch (const dras::robust::DivergenceError& e) {
    std::cerr << format("error: {}\n", e.what());
    if (!e.diagnostics().empty())
      std::cerr << format("diagnostics dump: {}\n",
                          e.diagnostics().string());
    return dras::robust::kDivergenceExitCode;
  } catch (const std::exception& e) {
    return usage(e.what());
  }
}
