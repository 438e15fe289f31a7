// Episodic trainer (paper §III-C).
//
// "We train the neural network in episodes ... For each episode, the
//  environment is first set to its initial state (all nodes idle).  An
//  episode terminates when all jobs in the jobset have been scheduled.
//  We monitor the progress of the training by taking a snapshot of the
//  model after each episode.  The next episode uses a new jobset to
//  refine the previous model."
//
// After each episode the trainer optionally evaluates the frozen agent on
// a validation trace (training disabled, greedy actions); the resulting
// total-reward sequence is the Fig. 4 / Fig. 5 learning curve.
#pragma once

#include <atomic>
#include <filesystem>
#include <functional>
#include <optional>
#include <vector>

#include "core/dras_agent.h"
#include "metrics/stats.h"
#include "sim/fault.h"
#include "train/curriculum.h"

namespace dras::obs {
class RunRecorder;
}  // namespace dras::obs

namespace dras::ckpt {
class CheckpointManager;
}  // namespace dras::ckpt

namespace dras::robust {
class HealthMonitor;
class RecoveryPolicy;
}  // namespace dras::robust

namespace dras::rollout {
class RolloutPool;
}  // namespace dras::rollout

namespace dras::train {

class ConvergenceMonitor;

struct EpisodeResult {
  std::size_t episode = 0;
  std::string jobset;
  JobsetPhase phase = JobsetPhase::Sampled;
  double training_reward = 0.0;    ///< Reward collected during the episode.
  double validation_reward = 0.0;  ///< Greedy reward on the validation set.
  metrics::Summary validation_summary;
  // --- Training telemetry ---
  double loss = 0.0;          ///< Policy loss of the last update.
  double grad_norm = 0.0;     ///< Gradient L2 norm of the last update.
  double epsilon = 0.0;       ///< DQL exploration rate (0 for PG).
  double wall_seconds = 0.0;  ///< Wall-clock cost of the training episode.
  /// Failure/requeue accounting of the training episode's simulation
  /// (all zero when TrainerOptions::faults is disabled).
  sim::FaultStats faults;
};

struct TrainerOptions {
  bool validate_each_episode = true;
  /// When set, a model snapshot is written per episode as
  /// "<dir>/<agent>-episode-<k>.bin".
  std::optional<std::filesystem::path> snapshot_dir;
  /// Failure scenario injected into every *training* episode's simulator
  /// (sim/fault.h) — the run's one fault config: Trainer::run hands it to
  /// the rollout pool with every round.  Each episode derives its failure
  /// stream in simulate_episode(), so fault runs stay byte-identical at
  /// any worker count.  Validation always runs fault-free (the learning
  /// curve measures scheduling quality, not luck with failures).
  /// Disabled by default.
  sim::FaultConfig faults;
};

/// Crash-safety knobs for Trainer::run(Curriculum&, ...).  All pointers
/// are non-owning and may be null (feature off).
struct RunOptions {
  /// When set, a full training snapshot (agent + trainer + curriculum
  /// cursor + convergence window + telemetry counters) is written at the
  /// episode boundaries the manager's cadence selects, and once more
  /// when the loop ends or is stopped.
  ckpt::CheckpointManager* checkpoints = nullptr;
  /// Fed each episode's validation reward; included in checkpoints.
  ConvergenceMonitor* monitor = nullptr;
  /// Polled at every episode boundary; when it reads true the loop
  /// flushes a final checkpoint and returns early with the episodes run
  /// so far (wire util::InterruptGuard::flag() here for SIGINT/SIGTERM).
  const std::atomic<bool>* stop = nullptr;
  /// Called after each checkpoint write with (episodes_done, path) —
  /// the fault-injection hook the crash-resume tests kill the process
  /// from.
  std::function<void(std::size_t, const std::filesystem::path&)>
      on_checkpoint;

  // --- Self-healing (src/robust) ---

  /// When set, every episode's telemetry + the live network are checked
  /// against the monitor's invariants at the episode boundary.  A
  /// tripped invariant triggers `recovery` (below), or throws
  /// robust::DivergenceError when no recovery policy is wired.  With
  /// healthy training the guarded run is byte-identical to an unguarded
  /// one (the checks only read).
  robust::HealthMonitor* health = nullptr;
  /// Divergence response: roll back to the newest snapshot, back off
  /// the LR, perturb the episode RNG stream, retry within budget.
  /// Requires `health` and `checkpoints`; a baseline snapshot is
  /// written on entry when the checkpoint directory holds none, so the
  /// very first episodes have a rollback target.  Throws
  /// robust::DivergenceError when the policy gives up.
  robust::RecoveryPolicy* recovery = nullptr;
  /// Drill hook run right after each episode, before the health check —
  /// `dras_sim --inject-numeric-fault` and tests/robust corrupt the
  /// live state here (see robust::apply_numeric_fault).
  std::function<void(core::DrasAgent&, EpisodeResult&)> sabotage;

  // --- Data-parallel rollout (src/rollout) ---

  /// When set with batch() > 1, the loop consumes the curriculum in
  /// rounds of batch() episodes collected on clones in parallel, with
  /// one reduced update per round.  Rounds are atomic: checkpoints,
  /// health checks, sabotage and rollback all happen at round
  /// boundaries (per-slot results are checked in slot order; the first
  /// tripped invariant rolls the whole round back).  Validation runs
  /// once per round on the post-update parameters and is stamped into
  /// every slot's result.  A pool with batch() <= 1 routes through the
  /// legacy per-episode path, byte-identical to no pool at all.
  rollout::RolloutPool* rollout = nullptr;

  // --- Run manifests (src/obs) ---

  /// When set, every committed round is appended to the recorder's
  /// rounds.jsonl time series (loss, reward, epsilon, LR scale,
  /// rollbacks, round wall time).  Purely observational: recording
  /// reads results after the round commits and changes no trained
  /// parameter (see the rollout determinism contract).
  obs::RunRecorder* run = nullptr;

  // --- Failure accounting (sim/fault.h) ---

  /// When set, each committed round's fault statistics (node failures,
  /// kills, requeues, wasted node-seconds) are merged into
  /// scenario->stats, and the scenario rides in checkpoints as the
  /// "FALT" section — so crash-resume keeps cumulative waste accounting
  /// exact and a rolled-back round's failures are un-counted along with
  /// its update.  Non-owning.
  sim::FaultScenario* fault_scenario = nullptr;
};

/// Simulate one training episode: a fresh simulator for `total_nodes`
/// runs `scheduler` over `trace`, and the run's failure accounting comes
/// back.  When `faults` is enabled, episode `episode` (the global index)
/// fails nodes from its own stream, exec::task_seed(faults.seed, "fault",
/// episode), so the serial loop, every rollout slot and Decima-PG's
/// training see identical failures for the same episode at any worker
/// count.
sim::FaultStats simulate_episode(sim::Scheduler& scheduler, int total_nodes,
                                 const sim::Trace& trace,
                                 const sim::FaultConfig& faults,
                                 std::size_t episode);

/// Train `agent` for one episode on `jobset` (simulate_episode) and fill
/// the result fields every training path shares: episode, jobset, phase,
/// training_reward, epsilon and faults.  Loss, grad norm and wall time
/// are the caller's: the serial loop reads the agent's head, a rollout
/// slot its gradient accumulator.
EpisodeResult train_episode(core::DrasAgent& agent, int total_nodes,
                            const Jobset& jobset,
                            const sim::FaultConfig& faults,
                            std::size_t episode);

class Trainer {
 public:
  /// `validation` may be empty when options.validate_each_episode is off.
  Trainer(core::DrasAgent& agent, int total_nodes, sim::Trace validation,
          TrainerOptions options = {});

  /// Train one episode on `jobset`, then (optionally) validate & snapshot.
  EpisodeResult run_episode(const Jobset& jobset);

  /// Crash-safe curriculum run: consumes `curriculum` from its cursor,
  /// checkpointing and honouring the stop flag per `run_options`.  To
  /// resume a killed run, restore agent/trainer/curriculum through
  /// ckpt::CheckpointManager::restore_latest() first — the cursor then
  /// starts past the completed episodes and the results vector covers
  /// only the episodes this call ran.  Determinism contract: interrupt
  /// at any episode boundary + restore + rerun produces byte-identical
  /// final parameters to an uninterrupted run (see tests/ckpt).
  std::vector<EpisodeResult> run(Curriculum& curriculum,
                                 const RunOptions& run_options);

  [[nodiscard]] std::size_t episodes_done() const noexcept {
    return episodes_done_;
  }

  /// Checkpoint hooks ("TRNR" section): the episode counter.
  void save_state(util::BinaryWriter& out) const;
  void load_state(util::BinaryReader& in);

  /// Greedy evaluation on the validation trace (no learning, no
  /// exploration).  The agent's training flag is restored afterwards.
  /// Records its wall time and emits a "validate" event on
  /// obs::default_tracer().
  [[nodiscard]] EpisodeResult validate();

 private:
  core::DrasAgent& agent_;
  int total_nodes_;
  sim::Trace validation_;
  TrainerOptions options_;
  std::size_t episodes_done_ = 0;
};

}  // namespace dras::train
