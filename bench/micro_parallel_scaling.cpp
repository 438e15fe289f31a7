// Micro-benchmark: parallel evaluation + rollout-training scaling.
//
// Part 1 evaluates a fixed (8 traces x 1 policy) grid with the exec
// subsystem at --jobs 1/2/4/8 and reports wall time and speedup per
// worker count.  Part 2 trains a small DRAS-PG agent through the
// data-parallel rollout engine at --rollout-workers 1/2/4/8 with a fixed
// round batch of 4, so every worker count computes identical math.
// Before timing, every parallel result is checked against the serial
// baseline — cell-by-cell for the evaluation grid, parameter-for-
// parameter for the trained networks; any divergence is a determinism
// bug and the bench exits non-zero.  Emits one JSON line per
// configuration alongside the human-readable tables, matching the other
// micro benches' output style.
//
// Telemetry stays enabled throughout so the exec/rollout HDR histograms
// fill in: each configuration also reports the p50/p99 per-task wall
// time (evaluation cells from eval.task_wall_s, rollout slots from
// rollout.slot_wall_s), making tail latency per worker count visible
// next to the aggregate speedup.  Part 3 measures the batched network
// forward (nn::Network::forward_batch, the kernel under the batched PG
// and DQL paths and the serving path) against a serial forward loop, with
// the same bit-identity check per batched row.
#include <chrono>
#include <cstring>
#include <iostream>
#include <vector>

#include "core/dras_agent.h"
#include "core/presets.h"
#include "exec/parallel_evaluator.h"
#include "metrics/report.h"
#include "nn/network.h"
#include "obs/metrics.h"
#include "rollout/rollout_pool.h"
#include "sched/fcfs_easy.h"
#include "train/curriculum.h"
#include "train/trainer.h"
#include "util/format.h"
#include "util/rng.h"
#include "workload/models.h"
#include "workload/synthetic.h"

namespace {

using dras::util::format;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool same_evaluation(const dras::train::Evaluation& a,
                     const dras::train::Evaluation& b) {
  if (a.method != b.method || a.total_reward != b.total_reward ||
      a.summary.jobs != b.summary.jobs ||
      a.summary.avg_wait != b.summary.avg_wait ||
      a.summary.max_wait != b.summary.max_wait ||
      a.summary.utilization != b.summary.utilization ||
      a.result.unfinished_jobs != b.result.unfinished_jobs ||
      a.result.jobs.size() != b.result.jobs.size())
    return false;
  for (std::size_t i = 0; i < a.result.jobs.size(); ++i) {
    const auto& ja = a.result.jobs[i];
    const auto& jb = b.result.jobs[i];
    if (ja.id != jb.id || ja.start != jb.start || ja.end != jb.end ||
        ja.mode != jb.mode)
      return false;
  }
  return true;
}

}  // namespace

int main() {
  constexpr std::size_t kGrid = 8;
  constexpr int kRepetitions = 3;
  // Per-task wall-time percentiles come from the registry's HDR
  // histograms; reset between worker counts so each row reports only
  // its own tasks.
  dras::obs::set_enabled(true);
  auto& eval_task_hdr =
      dras::obs::Registry::global().hdr("eval.task_wall_s");
  auto& rollout_slot_hdr =
      dras::obs::Registry::global().hdr("rollout.slot_wall_s");
  const auto model = dras::workload::theta_mini_workload();
  const int nodes = model.system_nodes;

  // Eight independent traces; one cheap deterministic policy per cell.
  std::vector<dras::sim::Trace> traces;
  for (std::size_t t = 0; t < kGrid; ++t) {
    dras::workload::GenerateOptions options;
    options.num_jobs = 1500;
    options.seed = dras::util::derive_seed(42, format("scaling-{}", t));
    traces.push_back(dras::workload::generate_trace(model, options));
  }
  std::vector<const dras::sim::Trace*> trace_ptrs;
  for (const auto& trace : traces) trace_ptrs.push_back(&trace);
  dras::sched::FcfsEasy fcfs;
  std::vector<dras::sim::Scheduler*> policies = {&fcfs};

  const auto run_grid = [&](std::size_t jobs) {
    return dras::exec::ParallelEvaluator(jobs).evaluate_grid(
        nodes, trace_ptrs, policies);
  };

  std::cout << format("parallel evaluation scaling: {} cells, {} nodes, "
                      "best of {} repetitions\n\n",
                      kGrid, nodes, kRepetitions);

  const auto baseline = run_grid(1);  // warm-up + identity reference

  bool all_identical = true;
  double serial_best = 0.0;
  std::vector<std::vector<std::string>> table;
  for (const std::size_t jobs : {1u, 2u, 4u, 8u}) {
    double best = 0.0;
    bool identical = true;
    eval_task_hdr.reset();
    for (int rep = 0; rep < kRepetitions; ++rep) {
      const double start = now_seconds();
      const auto evaluations = run_grid(jobs);
      const double elapsed = now_seconds() - start;
      if (rep == 0 || elapsed < best) best = elapsed;
      if (evaluations.size() != baseline.size()) {
        identical = false;
      } else {
        for (std::size_t cell = 0; cell < evaluations.size(); ++cell)
          identical &= same_evaluation(evaluations[cell], baseline[cell]);
      }
    }
    if (jobs == 1) serial_best = best;
    const double speedup = best > 0.0 ? serial_best / best : 0.0;
    const double task_p50_ms = eval_task_hdr.percentile(50.0) * 1e3;
    const double task_p99_ms = eval_task_hdr.percentile(99.0) * 1e3;
    all_identical &= identical;
    table.push_back({format("{}", jobs), format("{:.3f}", best),
                     format("{:.2f}x", speedup),
                     format("{:.2f}", task_p50_ms),
                     format("{:.2f}", task_p99_ms),
                     identical ? "yes" : "NO"});
    std::cout << format(
        "{{\"name\":\"parallel_eval_grid/jobs:{}\",\"grid\":{},\"jobs\":{},"
        "\"best_seconds\":{:.6f},\"speedup\":{:.3f},\"task_p50_ms\":{:.3f},"
        "\"task_p99_ms\":{:.3f},\"identical\":{}}}\n",
        jobs, kGrid, jobs, best, speedup, task_p50_ms, task_p99_ms,
        identical ? "true" : "false");
  }

  std::cout << "\n";
  dras::metrics::print_table(
      std::cout,
      {"jobs", "best seconds", "speedup", "p50 task ms", "p99 task ms",
       "identical"},
      table);

  // --- Part 2: rollout-training scaling. ---
  constexpr std::size_t kTrainEpisodes = 8;
  constexpr std::size_t kRolloutBatch = 4;
  const auto preset = dras::core::theta_mini();
  std::vector<dras::train::Jobset> jobsets;
  for (std::size_t e = 0; e < kTrainEpisodes; ++e) {
    dras::workload::GenerateOptions options;
    options.num_jobs = 200;
    options.seed = dras::util::derive_seed(7, format("rollout-train-{}", e));
    jobsets.push_back(dras::train::Jobset{
        format("rollout-train-{}", e), dras::train::JobsetPhase::Synthetic,
        dras::workload::generate_trace(model, options)});
  }

  // Train from scratch through the rollout engine; returns the final
  // parameters.  `workers` is a pure throughput knob — the batch (the
  // math knob) stays fixed at kRolloutBatch.
  const auto train_rollout = [&](std::size_t workers) {
    dras::core::DrasAgent agent(preset.agent_config(
        dras::core::AgentKind::PG,
        dras::util::derive_seed(7, "rollout-scaling")));
    dras::rollout::RolloutOptions rollout_options;
    rollout_options.workers = workers;
    rollout_options.batch = kRolloutBatch;
    dras::rollout::RolloutPool pool(rollout_options);
    dras::train::Curriculum curriculum(jobsets);
    dras::train::TrainerOptions trainer_options;
    trainer_options.validate_each_episode = false;
    dras::train::Trainer trainer(agent, preset.nodes, {}, trainer_options);
    dras::train::RunOptions run_options;
    run_options.rollout = &pool;
    (void)trainer.run(curriculum, run_options);
    const auto params = agent.network().parameters();
    return std::vector<float>(params.begin(), params.end());
  };

  std::cout << format(
      "\nrollout training scaling: {} episodes, batch {}, best of {} "
      "repetitions\n\n",
      kTrainEpisodes, kRolloutBatch, kRepetitions);

  const auto params_baseline = train_rollout(1);
  bool all_params_identical = true;
  double train_serial_best = 0.0;
  std::vector<std::vector<std::string>> train_table;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    double best = 0.0;
    bool identical = true;
    rollout_slot_hdr.reset();
    for (int rep = 0; rep < kRepetitions; ++rep) {
      const double start = now_seconds();
      const auto params = train_rollout(workers);
      const double elapsed = now_seconds() - start;
      if (rep == 0 || elapsed < best) best = elapsed;
      identical &= params.size() == params_baseline.size() &&
                   std::memcmp(params.data(), params_baseline.data(),
                               params.size() * sizeof(float)) == 0;
    }
    if (workers == 1) train_serial_best = best;
    const double speedup = best > 0.0 ? train_serial_best / best : 0.0;
    const double slot_p50_ms = rollout_slot_hdr.percentile(50.0) * 1e3;
    const double slot_p99_ms = rollout_slot_hdr.percentile(99.0) * 1e3;
    all_params_identical &= identical;
    train_table.push_back({format("{}", workers), format("{:.3f}", best),
                           format("{:.2f}x", speedup),
                           format("{:.2f}", slot_p50_ms),
                           format("{:.2f}", slot_p99_ms),
                           identical ? "yes" : "NO"});
    std::cout << format(
        "{{\"name\":\"rollout_training/workers:{}\",\"episodes\":{},"
        "\"batch\":{},\"workers\":{},\"best_seconds\":{:.6f},"
        "\"speedup\":{:.3f},\"slot_p50_ms\":{:.3f},\"slot_p99_ms\":{:.3f},"
        "\"identical\":{}}}\n",
        workers, kTrainEpisodes, kRolloutBatch, workers, best, speedup,
        slot_p50_ms, slot_p99_ms, identical ? "true" : "false");
  }

  std::cout << "\n";
  dras::metrics::print_table(
      std::cout,
      {"workers", "best seconds", "speedup", "p50 slot ms", "p99 slot ms",
       "identical"},
      train_table);

  // --- Part 3: batched network forward. ---
  // The PG update, the DQL decision and update, and the serving path all
  // route multi-sample windows through nn::Network::forward_batch
  // (gemm_batch) instead of a serial forward loop.  Measure the speedup
  // per batch size and verify the batched outputs stay bit-identical to
  // per-sample forward() — the guarantee the batched PG and DQL updates
  // ride on.  Batches 2, 5 and 10 end in a partial lane block, the sizes
  // a DQL window (at most W = 10 candidates) produces.
  std::cout << format("\nbatched forward scaling: best of {} repetitions\n\n",
                      kRepetitions);
  dras::nn::NetworkConfig net_cfg;
  net_cfg.input_rows = 1024;
  net_cfg.fc1 = 256;
  net_cfg.fc2 = 128;
  net_cfg.outputs = 32;
  dras::util::Rng net_rng(321);
  dras::nn::Network net(net_cfg, net_rng);

  bool all_rows_identical = true;
  double per_sample_best_per_row = 0.0;
  std::vector<std::vector<std::string>> fwd_table;
  for (const std::size_t batch : {1u, 2u, 4u, 5u, 10u, 16u, 64u}) {
    std::vector<float> inputs(batch * net_cfg.input_size());
    for (float& v : inputs)
      v = static_cast<float>(net_rng.uniform(-1.0, 1.0));
    std::vector<float> outputs(batch * net_cfg.outputs);
    const int iterations = static_cast<int>(256 / batch);

    // Identity first: every batched row equals the per-sample forward.
    net.forward_batch(inputs, batch, outputs);
    bool identical = true;
    for (std::size_t b = 0; b < batch; ++b) {
      const auto row = std::span<const float>(inputs).subspan(
          b * net_cfg.input_size(), net_cfg.input_size());
      const auto expected = net.forward(row);
      identical &= std::memcmp(outputs.data() + b * net_cfg.outputs,
                               expected.data(),
                               net_cfg.outputs * sizeof(float)) == 0;
    }
    all_rows_identical &= identical;

    double serial_best_s = 0.0, batched_best_s = 0.0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      double start = now_seconds();
      for (int it = 0; it < iterations; ++it)
        for (std::size_t b = 0; b < batch; ++b)
          (void)net.forward(std::span<const float>(inputs).subspan(
              b * net_cfg.input_size(), net_cfg.input_size()));
      const double serial_s = now_seconds() - start;
      start = now_seconds();
      for (int it = 0; it < iterations; ++it)
        net.forward_batch(inputs, batch, outputs);
      const double batched_s = now_seconds() - start;
      if (rep == 0 || serial_s < serial_best_s) serial_best_s = serial_s;
      if (rep == 0 || batched_s < batched_best_s) batched_best_s = batched_s;
    }
    const double rows = static_cast<double>(iterations) *
                        static_cast<double>(batch);
    const double serial_us = serial_best_s / rows * 1e6;
    const double batched_us = batched_best_s / rows * 1e6;
    if (batch == 1) per_sample_best_per_row = batched_us;
    const double speedup =
        batched_us > 0.0 ? serial_us / batched_us : 0.0;
    fwd_table.push_back({format("{}", batch), format("{:.2f}", serial_us),
                         format("{:.2f}", batched_us),
                         format("{:.2f}x", speedup),
                         identical ? "yes" : "NO"});
    std::cout << format(
        "{{\"name\":\"forward_batch/batch:{}\",\"batch\":{},"
        "\"serial_us_per_row\":{:.3f},\"batched_us_per_row\":{:.3f},"
        "\"speedup\":{:.3f},\"identical\":{}}}\n",
        batch, batch, serial_us, batched_us, speedup,
        identical ? "true" : "false");
  }
  (void)per_sample_best_per_row;

  std::cout << "\n";
  dras::metrics::print_table(
      std::cout,
      {"batch", "serial µs/row", "batched µs/row", "speedup", "identical"},
      fwd_table);

  if (!all_identical) {
    std::cerr << "\nFAIL: parallel results diverged from the serial "
                 "baseline\n";
    return 1;
  }
  if (!all_params_identical) {
    std::cerr << "\nFAIL: rollout-trained parameters diverged from the "
                 "single-worker baseline\n";
    return 1;
  }
  if (!all_rows_identical) {
    std::cerr << "\nFAIL: batched forward rows diverged from per-sample "
                 "forward()\n";
    return 1;
  }
  std::cout << "\nall parallel results bit-identical to --jobs 1; all "
               "rollout-trained parameters bit-identical to workers=1; all "
               "batched forward rows bit-identical to forward()\n";
  return 0;
}
