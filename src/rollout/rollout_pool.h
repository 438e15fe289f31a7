// Data-parallel rollout engine: synchronous multi-worker episode
// collection with deterministic gradient reduction.
//
// One *round* rolls out B episodes (B = RolloutOptions::batch) on B
// private clones of the training agent, all starting from the same
// round-start parameters, then applies ONE batched optimiser update to
// the original — the synchronous data-parallel pattern DD-PPO applies
// to HPC scheduling.  Mechanics per slot i of a round starting at
// global episode index E:
//
//   1. clone_agent() — a deep copy, so the episode is a pure function
//      of (round-start parameters, jobset trace, slot stream, fault
//      stream);
//   2. the clone's episode stream is exec::task_seed(nonce, "rollout",
//      E + i) where `nonce` is the agent's recovery nonce — stable
//      across worker counts, fresh after every divergence rollback;
//   3. the clone is armed with a per-slot nn::GradientAccumulator: its
//      policy updates compute batch-mean gradients exactly as the
//      legacy loop would, but deposit them instead of stepping;
//   4. every metric the episode emits lands in a per-slot
//      obs::MetricShard instead of the shared registry;
//   5. the episode runs through train::train_episode, the serial
//      trainer's own episode runner, under the fault config the caller
//      passes to collect() — Trainer::run passes TrainerOptions::faults,
//      the run's one fault config — so slot i fails nodes exactly as
//      serial episode E + i would.
//
// At the round boundary, on the calling thread, strictly in ascending
// slot order (the reduction-order contract — float addition is not
// associative, so the order must be pinned to the task index, never to
// completion order): merge each slot's telemetry shard, gradient
// accumulator, PG-baseline delta and instance count, then apply the
// single reduced update.  Consequences proven by tests/rollout:
//
//   * post-update parameters are byte-identical for any worker count
//     at a fixed batch;
//   * workers = 1 with batch = 1 routes through the legacy per-episode
//     trainer path, byte-identical to a run with no pool at all;
//   * rounds are atomic with respect to checkpoints and health checks
//     (the trainer only saves/checks at round boundaries), so
//     divergence rollback and crash-resume work unchanged.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "sim/fault.h"
#include "train/trainer.h"

namespace dras::exec {
class ThreadPool;
}  // namespace dras::exec

namespace dras::rollout {

struct RolloutOptions {
  /// Concurrent rollout threads; 0 = hardware concurrency.  A pure
  /// throughput knob: it never changes a single result bit.
  std::size_t workers = 1;
  /// Episodes per round — the unit of the batched update and the only
  /// knob that affects the math.  0 = same as the resolved worker
  /// count; reproducible runs across machines should pin it explicitly
  /// when workers is 0.  1 routes through the legacy per-episode path.
  std::size_t batch = 0;
};

/// What one round produced: per-slot episode results (slot order) plus
/// the reduced update that was applied.
struct RoundResult {
  std::vector<train::EpisodeResult> episodes;
  std::size_t updates = 0;    ///< Deferred clone updates reduced into one step.
  std::size_t instances = 0;  ///< Scheduling instances the clones consumed.
  double mean_loss = 0.0;     ///< Mean loss across the deferred updates.
  double grad_norm = 0.0;     ///< L2 norm of the applied reduced gradient.
};

class RolloutPool {
 public:
  explicit RolloutPool(RolloutOptions options = {});
  ~RolloutPool();

  RolloutPool(const RolloutPool&) = delete;
  RolloutPool& operator=(const RolloutPool&) = delete;

  [[nodiscard]] std::size_t workers() const noexcept { return workers_; }
  [[nodiscard]] std::size_t batch() const noexcept { return batch_; }

  /// Roll out `slots` (episode indices first_episode, first_episode+1,
  /// ...) on clones of `agent` under `faults` and apply one reduced
  /// update to it.  Results come back in slot order regardless of
  /// scheduling; validation fields are left zero for the caller to
  /// stamp.  Round events go to obs::default_tracer().  `agent` must
  /// outlive the call and is mutated only on the calling thread, after
  /// every slot finished.
  RoundResult collect(core::DrasAgent& agent, int total_nodes,
                      std::span<const train::Jobset> slots,
                      std::size_t first_episode,
                      const sim::FaultConfig& faults);

 private:
  std::size_t workers_;
  std::size_t batch_;
  /// Lazily created on the first parallel round; reused across rounds.
  std::unique_ptr<exec::ThreadPool> pool_;
};

}  // namespace dras::rollout
