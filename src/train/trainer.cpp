#include "train/trainer.h"

#include <chrono>
#include <cmath>

#include "ckpt/manager.h"
#include "exec/parallel_runner.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/run_manifest.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "robust/health.h"
#include "robust/recovery.h"
#include "rollout/rollout_pool.h"
#include "sim/simulator.h"
#include "train/convergence.h"
#include "util/binio.h"
#include "util/format.h"
#include "util/logging.h"

namespace dras::train {

namespace {

struct TrainMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& episodes = reg.counter("train.episodes");
  obs::Counter& snapshots = reg.counter("train.snapshots");
  obs::Counter& validations = reg.counter("train.validations");
  // Wall-time distributions are hdr histograms: p50/p90/p99/p999 with
  // ~0.4% relative error, mergeable across rollout shards.
  obs::HdrHistogram& episode_wall_s = reg.hdr("train.episode_wall_s");
  obs::HdrHistogram& validation_wall_s = reg.hdr("train.validation_wall_s");
  obs::HdrHistogram& round_wall_s = reg.hdr("train.round_wall_s");
  // |loss|: policy-gradient losses go negative, which hdr would clamp
  // away; the magnitude is what HealthMonitor's ceilings gate.  The
  // signed loss stays in rounds.jsonl and the episode trace args.
  obs::HdrHistogram& abs_loss = reg.hdr("train.abs_loss");
  obs::Counter& divergence_events = reg.counter("robust.divergence_events");

  static TrainMetrics& get() {
    static TrainMetrics metrics;
    return metrics;
  }
};

}  // namespace

Trainer::Trainer(core::DrasAgent& agent, int total_nodes,
                 sim::Trace validation, TrainerOptions options)
    : agent_(agent),
      total_nodes_(total_nodes),
      validation_(std::move(validation)),
      options_(std::move(options)) {}

sim::FaultStats simulate_episode(sim::Scheduler& scheduler, int total_nodes,
                                 const sim::Trace& trace,
                                 const sim::FaultConfig& faults,
                                 std::size_t episode) {
  sim::Simulator simulator(total_nodes);
  if (faults.enabled()) {
    sim::FaultConfig episode_faults = faults;
    episode_faults.seed = exec::task_seed(faults.seed, "fault", episode);
    simulator.set_fault_config(episode_faults);
  }
  return simulator.run(trace, scheduler).faults;
}

EpisodeResult train_episode(core::DrasAgent& agent, int total_nodes,
                            const Jobset& jobset,
                            const sim::FaultConfig& faults,
                            std::size_t episode) {
  EpisodeResult result;
  result.episode = episode;
  result.jobset = jobset.name;
  result.phase = jobset.phase;
  agent.set_training(true);
  result.faults =
      simulate_episode(agent, total_nodes, jobset.trace, faults, episode);
  result.training_reward = agent.episode_reward();
  result.epsilon = agent.epsilon();
  return result;
}

EpisodeResult Trainer::validate() {
  obs::EventTracer* tracer = obs::default_tracer();
  const auto wall_start = std::chrono::steady_clock::now();
  const double trace_start =
      tracer != nullptr ? tracer->wall_seconds() : 0.0;

  EpisodeResult result;
  result.episode = episodes_done_;
  const bool was_training = agent_.training();
  agent_.set_training(false);
  sim::Simulator simulator(total_nodes_);
  const sim::SimulationResult run = simulator.run(validation_, agent_);
  result.validation_reward = agent_.episode_reward();
  result.validation_summary = metrics::summarize(run);
  agent_.set_training(was_training);

  result.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
  TrainMetrics& m = TrainMetrics::get();
  m.validations.add();
  m.validation_wall_s.observe(result.wall_seconds);
  if (tracer != nullptr) {
    tracer->complete(
        "validate", trace_start, tracer->wall_seconds() - trace_start,
        {obs::targ("episode", static_cast<std::uint64_t>(episodes_done_)),
         obs::targ("validation_reward", result.validation_reward),
         obs::targ("jobs", static_cast<std::uint64_t>(validation_.size()))},
        obs::kTrainPid);
  }
  return result;
}

EpisodeResult Trainer::run_episode(const Jobset& jobset) {
  obs::EventTracer* tracer = obs::default_tracer();
  const auto wall_start = std::chrono::steady_clock::now();
  const double trace_start =
      tracer != nullptr ? tracer->wall_seconds() : 0.0;

  EpisodeResult result = train_episode(agent_, total_nodes_, jobset,
                                       options_.faults, episodes_done_);
  result.loss = agent_.last_update_loss();
  result.grad_norm = agent_.last_update_grad_norm();

  if (options_.validate_each_episode && !validation_.empty()) {
    const EpisodeResult validation = validate();
    result.validation_reward = validation.validation_reward;
    result.validation_summary = validation.validation_summary;
  }

  if (options_.snapshot_dir) {
    std::filesystem::create_directories(*options_.snapshot_dir);
    const auto path =
        *options_.snapshot_dir /
        util::format("{}-episode-{}.bin", agent_.name(), episodes_done_);
    nn::save_network_file(path, agent_.network());
    TrainMetrics::get().snapshots.add();
    if (tracer != nullptr) {
      tracer->instant("snapshot", tracer->wall_seconds(),
                      {obs::targ("path", path.string()),
                       obs::targ(
                           "episode",
                           static_cast<std::uint64_t>(episodes_done_))},
                      obs::kTrainPid);
    }
  }

  result.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
  TrainMetrics& m = TrainMetrics::get();
  m.episodes.add();
  m.episode_wall_s.observe(result.wall_seconds);
  m.abs_loss.observe(std::abs(result.loss));
  if (tracer != nullptr) {
    tracer->complete(
        util::format("episode {}", episodes_done_), trace_start,
        tracer->wall_seconds() - trace_start,
        {obs::targ("jobset", jobset.name),
         obs::targ("training_reward", result.training_reward),
         obs::targ("validation_reward", result.validation_reward),
         obs::targ("loss", result.loss),
         obs::targ("grad_norm", result.grad_norm),
         obs::targ("epsilon", result.epsilon)},
        obs::kTrainPid);
  }

  util::log_info("episode {} [{}] train reward {:.3f} validation {:.3f}",
                 episodes_done_, jobset.name, result.training_reward,
                 result.validation_reward);
  ++episodes_done_;
  return result;
}

std::vector<EpisodeResult> Trainer::run(Curriculum& curriculum,
                                        const RunOptions& run_options) {
  if (run_options.recovery != nullptr) {
    if (run_options.health == nullptr)
      throw std::invalid_argument(
          "RunOptions.recovery needs RunOptions.health to detect the "
          "divergences it rolls back from");
    if (run_options.checkpoints == nullptr)
      throw std::invalid_argument(
          "RunOptions.recovery needs RunOptions.checkpoints to supply "
          "rollback targets");
  }
  const auto stopped = [&run_options] {
    return run_options.stop != nullptr &&
           run_options.stop->load(std::memory_order_relaxed);
  };
  const auto make_state = [this, &run_options, &curriculum] {
    ckpt::TrainingState state;
    state.agent = &agent_;
    state.trainer = this;
    state.curriculum = &curriculum;
    state.monitor = run_options.monitor;
    state.recovery = run_options.recovery != nullptr
                         ? &run_options.recovery->state()
                         : nullptr;
    state.faults = run_options.fault_scenario;
    return state;
  };
  const auto save_checkpoint = [this, &run_options, &make_state] {
    const std::filesystem::path path =
        run_options.checkpoints->save(make_state(), episodes_done_);
    if (run_options.on_checkpoint)
      run_options.on_checkpoint(episodes_done_, path);
  };

  // A rollback needs somewhere to roll back *to*: guarantee a baseline
  // snapshot before the first guarded episode runs.
  if (run_options.recovery != nullptr &&
      run_options.checkpoints->list().empty()) {
    save_checkpoint();
  }

  obs::EventTracer* tracer = obs::default_tracer();
  const std::size_t start_episode = episodes_done_;
  // Episodes per round: 1 = the legacy per-episode loop; a rollout pool
  // with batch() > 1 switches to batched parallel collection.  Rounds
  // are atomic — checkpoints, health checks and rollback happen only at
  // round boundaries, so every snapshot is a round boundary and a
  // restored run re-derives identical rounds from the cursor.
  const std::size_t round_size =
      run_options.rollout != nullptr
          ? std::max<std::size_t>(run_options.rollout->batch(), 1)
          : 1;
  std::vector<EpisodeResult> results;
  results.reserve(curriculum.size() - curriculum.position());
  bool interrupted = false;
  std::uint64_t rounds_committed = 0;
  while (!curriculum.done()) {
    if (stopped()) {
      interrupted = true;
      break;
    }
    const auto round_start = std::chrono::steady_clock::now();
    const std::size_t first_episode = episodes_done_;
    // The round span covers collection, validation, guardrails and the
    // boundary checkpoint — the full critical path of one round.  Slot
    // spans opened by the rollout pool parent themselves here via
    // obs::Span::current().
    obs::Span round_span(
        "round",
        {obs::targ("first_episode",
                   static_cast<std::uint64_t>(first_episode))});
    std::vector<EpisodeResult> batch;
    if (round_size > 1) {
      const std::size_t remaining =
          curriculum.size() - curriculum.position();
      const std::span<const Jobset> slots = curriculum.jobsets().subspan(
          curriculum.position(), std::min(round_size, remaining));
      rollout::RoundResult round = run_options.rollout->collect(
          agent_, total_nodes_, slots, episodes_done_, options_.faults);
      episodes_done_ += round.episodes.size();
      batch = std::move(round.episodes);
      if (options_.validate_each_episode && !validation_.empty()) {
        // Every slot shares the post-round parameters: validate the
        // frozen agent once and stamp the round with it.
        const EpisodeResult validation = validate();
        for (EpisodeResult& result : batch) {
          result.validation_reward = validation.validation_reward;
          result.validation_summary = validation.validation_summary;
        }
      }
      TrainMetrics& m = TrainMetrics::get();
      for (const EpisodeResult& result : batch) {
        m.episodes.add();
        m.episode_wall_s.observe(result.wall_seconds);
        m.abs_loss.observe(std::abs(result.loss));
        util::log_info(
            "episode {} [{}] train reward {:.3f} validation {:.3f}",
            result.episode, result.jobset, result.training_reward,
            result.validation_reward);
      }
    } else {
      batch.push_back(run_episode(curriculum.current()));
    }
    // Guardrails, per episode result in slot order.  The first tripped
    // invariant rolls the whole round back (the batched update is one
    // unit) and retries from the restored cursor.
    bool rolled_back = false;
    for (EpisodeResult& result : batch) {
      if (run_options.sabotage) run_options.sabotage(agent_, result);
      if (run_options.health == nullptr) continue;
      const robust::HealthReport report =
          run_options.health->check(agent_, result);
      if (report.ok()) continue;
      if (tracer != nullptr) {
        tracer->instant(
            "divergence", tracer->wall_seconds(),
            {obs::targ("fault", to_string(report.fault)),
             obs::targ("episode",
                       static_cast<std::uint64_t>(result.episode))},
            obs::kTrainPid);
      }
      util::log_warn("health invariant tripped: {}", report.detail);
      if (run_options.recovery == nullptr) {
        TrainMetrics::get().divergence_events.add();
        throw robust::DivergenceError(util::format(
            "training diverged with no recovery policy wired: {}",
            report.detail));
      }
      const auto restored = run_options.recovery->recover(
          report, make_state(), run_options.health);
      // Counted only after the rollback: a successful restore rewinds
      // the telemetry registry ("OBSC" section) to the snapshot, so an
      // increment made before recover() would be silently erased.
      TrainMetrics::get().divergence_events.add();
      if (!restored)
        throw robust::DivergenceError(
            util::format("training diverged and recovery gave up: {}",
                         report.detail),
            run_options.recovery->options().diagnostics_path);
      // Persist the advanced rollback state (compounded LR backoff,
      // fresh nonce) immediately: a crash — or a repeat divergence —
      // before the next cadence save would otherwise restore the
      // pre-rollback snapshot and resume with the stale discipline.
      save_checkpoint();
      // The restore rewound agent/trainer/curriculum/monitor; drop the
      // results past the restored boundary so the vector matches what
      // this call has (now) durably completed.
      const std::size_t done = episodes_done_ > start_episode
                                   ? episodes_done_ - start_episode
                                   : 0;
      if (results.size() > done) results.resize(done);
      rolled_back = true;
      break;
    }
    if (rolled_back) continue;  // retry from the restored cursor
    // Round aggregates, captured before the results are moved out.
    obs::RoundRecord round_record;
    round_record.round = rounds_committed;
    round_record.first_episode = first_episode;
    round_record.episodes = batch.size();
    for (const EpisodeResult& result : batch) {
      round_record.mean_loss += result.loss;
      round_record.mean_training_reward += result.training_reward;
      round_record.validation_reward = result.validation_reward;
      round_record.epsilon = result.epsilon;
    }
    if (!batch.empty()) {
      round_record.mean_loss /= static_cast<double>(batch.size());
      round_record.mean_training_reward /=
          static_cast<double>(batch.size());
    }
    for (EpisodeResult& result : batch) {
      curriculum.advance();
      // Fault statistics commit with the round: a rolled-back round's
      // failures never land here, and the checkpoint restore above
      // rewinds the scenario's "FALT" section to match.
      if (run_options.fault_scenario != nullptr)
        run_options.fault_scenario->stats.merge(result.faults);
      if (run_options.monitor != nullptr)
        run_options.monitor->record(result.validation_reward);
      // A healthy episode feeds the LR recovery streak (no-op unless a
      // rollback left lr_scale < 1 and recovery is configured for it).
      if (run_options.recovery != nullptr)
        run_options.recovery->note_healthy(agent_);
      results.push_back(std::move(result));
    }
    if (run_options.checkpoints != nullptr &&
        run_options.checkpoints->should_save(episodes_done_)) {
      save_checkpoint();
    }
    ++rounds_committed;
    round_record.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      round_start)
            .count();
    if (run_options.recovery != nullptr) {
      const ckpt::RecoveryState& recovery_state =
          run_options.recovery->state();
      round_record.lr_scale = recovery_state.lr_scale;
      round_record.rollbacks = recovery_state.rollbacks;
    }
    TrainMetrics::get().round_wall_s.observe(round_record.wall_seconds);
    round_span.arg(obs::targ("loss", round_record.mean_loss));
    round_span.arg(
        obs::targ("episodes",
                  static_cast<std::uint64_t>(round_record.episodes)));
    if (run_options.run != nullptr)
      run_options.run->record_round(round_record);
  }
  if (interrupted)
    util::log_warn("training stopped after {} episodes; flushing checkpoint",
                   episodes_done_);
  // Final flush, unless the cadence already saved this exact boundary.
  if (run_options.checkpoints != nullptr &&
      run_options.checkpoints->last_saved_episode() != episodes_done_) {
    save_checkpoint();
  }
  return results;
}

void Trainer::save_state(util::BinaryWriter& out) const {
  out.section("TRNR", 1);
  out.u64(episodes_done_);
}

void Trainer::load_state(util::BinaryReader& in) {
  in.section("TRNR", 1);
  episodes_done_ = in.u64();
}

}  // namespace dras::train
