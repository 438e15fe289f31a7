// Decima-PG baseline (paper §IV-A): the modified Decima agent — graph
// neural network dropped, DRAS's state representation adopted — i.e. a
// flat policy-gradient scheduler *without* the hierarchical two-level
// structure.  It selects jobs for immediate execution only: no resource
// reservation and no backfilling, which is precisely why it starves
// large jobs (Fig. 7).
//
// Action space: a W-slot window over the *runnable* jobs (those that fit
// the free nodes) in arrival order; the scheduling instance ends when no
// job is runnable.
#pragma once

#include <memory>

#include "core/dras_agent.h"
#include "core/pg_policy.h"
#include "core/reward.h"
#include "core/state_encoder.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace dras::sched {

class DecimaPG final : public sim::Scheduler {
 public:
  /// Built from a DRAS-PG agent configuration — the same state encoding,
  /// network shape, reward and update cadence, without the hierarchy.
  /// Throws std::invalid_argument unless config.kind is AgentKind::PG.
  explicit DecimaPG(const core::DrasConfig& config);

  [[nodiscard]] std::string_view name() const override { return "Decima-PG"; }
  void begin_episode() override;
  void end_episode() override;
  void schedule(sim::SchedulingContext& ctx) override;
  /// Deep copy: network parameters, optimiser moments, RNG position,
  /// update cadence (instances_seen_) and training flag all carry over.
  [[nodiscard]] std::unique_ptr<sim::Scheduler> clone() const override;

  void set_training(bool enabled) noexcept { training_ = enabled; }
  [[nodiscard]] bool training() const noexcept { return training_; }
  [[nodiscard]] double episode_reward() const noexcept {
    return episode_reward_;
  }
  [[nodiscard]] core::PGPolicy& policy() noexcept { return policy_; }

 private:
  core::DrasConfig config_;
  core::RewardFunction reward_;
  core::StateEncoder encoder_;
  // Held by value, so the implicit copy constructor is the deep copy
  // clone() returns.
  core::PGPolicy policy_;
  util::Rng rng_;
  bool training_ = true;
  double episode_reward_ = 0.0;
  std::size_t instances_seen_ = 0;
  std::vector<float> encode_scratch_;
};

}  // namespace dras::sched
