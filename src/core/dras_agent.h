// The DRAS scheduling agent (paper §III).
//
// DrasAgent implements the hierarchical two-level decision procedure of
// §III-B on top of either the PG or the DQL policy head:
//
//   level 1: repeatedly select a job from the W-slot window at the front
//            of the wait queue; start it if it fits.  The first selected
//            job that does not fit is *reserved* at its earliest start,
//            which hands control to level 2.
//   level 2: fill the window with backfill candidates (jobs that fit the
//            holes before the reserved start) and select one at a time
//            until no candidate remains.
//
// Every selection produces a reward (Eq. 1 or Eq. 2) evaluated on the
// post-action state; every `update_every` scheduling instances the policy
// performs one parameter update and clears its memory (§III-C).  With
// training disabled the agent acts greedily and collects no experience —
// that is the evaluation mode used for validation reward curves.  Keeping
// training enabled during testing gives the continual adaptation of §V-D.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/dql_policy.h"
#include "core/pg_policy.h"
#include "core/reward.h"
#include "core/state_encoder.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace dras::util {
class BinaryWriter;
class BinaryReader;
}  // namespace dras::util

namespace dras::core {

enum class AgentKind { PG, DQL };

[[nodiscard]] std::string_view to_string(AgentKind kind) noexcept;

struct DrasConfig {
  AgentKind kind = AgentKind::PG;
  int total_nodes = 0;
  std::size_t window = 50;      ///< W (§III-B; Table III output width).
  std::size_t fc1 = 0;          ///< Hidden layer widths (Table III).
  std::size_t fc2 = 0;
  double time_scale = 86400.0;  ///< Encoder normalisation (max walltime).
  RewardKind reward_kind = RewardKind::Capability;
  RewardWeights reward_weights;
  int update_every = 10;        ///< Scheduling instances per update (§III-C).
  nn::AdamConfig adam;          ///< lr 1e-3 (paper §IV-D).
  double gamma = 0.99;          ///< DQL bootstrap discount.
  double epsilon_init = 1.0;    ///< DQL exploration (§III-B).
  double epsilon_decay = 0.995;
  double epsilon_min = 0.01;
  std::uint64_t seed = 1;
  /// Append failure/recovery features to the state vector (recent fault
  /// rate, fraction of nodes down, requeued-work backlog; sim/fault.h).
  /// Adds two input rows to the network.  Off by default so fault-free
  /// agents keep their historical topology and checkpoint fingerprint.
  bool failure_features = false;
  /// Append fair-share features to the state vector (candidate user
  /// shares, queue user diversity; src/fair).  Adds two input rows.
  /// Off by default, same fingerprint discipline as failure_features.
  /// The fairness *reward* term is reward_weights.fairness.
  bool fairness_features = false;

  [[nodiscard]] nn::NetworkConfig network_config() const;
};

class DrasAgent final : public sim::Scheduler {
 public:
  explicit DrasAgent(const DrasConfig& config);

  [[nodiscard]] std::string_view name() const override { return name_; }
  void begin_episode() override;
  void end_episode() override;
  void schedule(sim::SchedulingContext& ctx) override;
  /// Deep copy of the agent: network parameters, optimiser moments,
  /// exploration schedule (DQL epsilon), PG baseline statistics, pending
  /// experience, RNG position, update cadence (instances_seen_) and the
  /// training flag all carry over, so the clone behaves bit-identically to
  /// the original from this point on — including under continual
  /// adaptation (training enabled during evaluation, §V-D).
  [[nodiscard]] std::unique_ptr<DrasAgent> clone_agent() const;
  [[nodiscard]] std::unique_ptr<sim::Scheduler> clone() const override;

  /// Enable/disable learning.  Disabled = greedy evaluation, no updates.
  void set_training(bool enabled) noexcept { training_ = enabled; }
  [[nodiscard]] bool training() const noexcept { return training_; }

  /// Sum of step rewards collected during the current/last episode
  /// (the quantity plotted in Fig. 5).
  [[nodiscard]] double episode_reward() const noexcept {
    return episode_reward_;
  }
  [[nodiscard]] std::size_t episode_actions() const noexcept {
    return episode_actions_;
  }

  // --- Training telemetry (kind-agnostic views over the policy head) ---
  /// Loss of the most recent parameter update (0 before the first).
  [[nodiscard]] double last_update_loss() const noexcept {
    return head().last_loss();
  }
  /// Gradient L2 norm of the most recent parameter update.
  [[nodiscard]] double last_update_grad_norm() const noexcept {
    return head().last_grad_norm();
  }
  /// Parameter updates performed so far.
  [[nodiscard]] std::size_t updates_done() const noexcept {
    return head().updates_done();
  }
  /// Current exploration rate; 0 for PG (which explores by sampling).
  [[nodiscard]] double epsilon() const noexcept {
    return dql_ ? dql_->epsilon() : 0.0;
  }

  /// Checkpoint hooks ("AGNT" section): configuration fingerprint, the
  /// active policy head (parameters, Adam moments, ε schedule, baselines,
  /// pending experience), the action-sampling RNG position, training
  /// flag, episode accounting and staged experience.  load_state()
  /// throws util::SerializationError when the checkpoint was written by
  /// an agent with a different configuration (kind, topology, seed or
  /// hyper-parameters) — restoring it would silently change the run.
  /// With `relaxed` a fingerprint mismatch is logged (stored vs local
  /// hash plus the local structural summary) and the load proceeds —
  /// cross-preset transfer for same-topology agents; the parameter
  /// shape checks below still reject a genuinely different topology,
  /// and a kind mismatch (PG vs DQL) always throws.
  void save_state(util::BinaryWriter& out) const;
  void load_state(util::BinaryReader& in, bool relaxed = false);

  [[nodiscard]] const DrasConfig& config() const noexcept { return config_; }
  [[nodiscard]] nn::Network& network() noexcept { return head().network(); }
  [[nodiscard]] const nn::Network& network() const noexcept {
    return head().network();
  }
  /// The active policy head's Adam optimiser (LR backoff lives here).
  [[nodiscard]] nn::Adam& optimizer() noexcept { return head().optimizer(); }
  [[nodiscard]] const nn::Adam& optimizer() const noexcept {
    return head().optimizer();
  }
  /// Non-null exactly when kind == PG / DQL respectively.
  [[nodiscard]] PGPolicy* pg() noexcept { return pg_ ? &*pg_ : nullptr; }
  [[nodiscard]] DQLPolicy* dql() noexcept { return dql_ ? &*dql_ : nullptr; }

  /// Divergence-recovery stream perturbation.  Nonce 0 (the default)
  /// reproduces the historical action-sampling stream exactly; a
  /// non-zero nonce derives a fresh deterministic stream per value, so a
  /// rolled-back episode does not replay the exact trajectory that
  /// diverged.  Takes effect at the next begin_episode().
  void set_rng_nonce(std::uint64_t nonce) noexcept { rng_nonce_ = nonce; }
  [[nodiscard]] std::uint64_t rng_nonce() const noexcept {
    return rng_nonce_;
  }

  /// The most recent window-slot selections (newest last, bounded
  /// depth) — the "last actions" block of the divergence diagnostics
  /// dump.  Survives episode boundaries; not checkpointed.
  [[nodiscard]] std::vector<std::uint32_t> recent_actions() const;

  // --- Data-parallel rollout hooks (src/rollout) ---

  /// Divert policy updates into `sink` (PolicyHead::set_gradient_sink):
  /// the rollout pool arms each clone with a per-slot accumulator so its
  /// episode leaves the parameters untouched.  Null restores normal
  /// in-place optimisation.  Not owned, never serialized or cloned as
  /// an armed pointer (the original is always unarmed when cloned).
  void set_gradient_sink(nn::GradientAccumulator* sink) noexcept {
    head().set_gradient_sink(sink);
  }

  /// One optimiser step with the round's reduced mean gradient standing
  /// in for `update_count` deferred clone updates
  /// (PolicyHead::apply_reduced_update).  No-op when update_count is 0.
  void apply_reduced_update(std::span<const float> gradient,
                            double mean_loss, std::size_t update_count) {
    head().apply_reduced_update(gradient, mean_loss, update_count);
  }

  /// Scheduling instances consumed so far (the `update_every` cadence
  /// phase, which carries across episodes and is checkpointed).
  [[nodiscard]] std::size_t instances_seen() const noexcept {
    return instances_seen_;
  }
  /// Advance the cadence phase by the instances a round's clones
  /// consumed, so a later serial episode flushes on the same schedule a
  /// legacy run would have.
  void advance_instances(std::size_t delta) noexcept {
    instances_seen_ += delta;
  }

  /// Adopt a finished clone's episode telemetry (episode reward/action
  /// count and the recent-actions diagnostics ring).  Called per slot in
  /// task-index order, so after a round the original reports the last
  /// slot's episode — mirroring what the legacy loop's final episode
  /// would have left behind.
  void adopt_episode_telemetry(const DrasAgent& clone) {
    episode_reward_ = clone.episode_reward_;
    episode_actions_ = clone.episode_actions_;
    recent_actions_ = clone.recent_actions_;
    recent_actions_head_ = clone.recent_actions_head_;
  }

 private:
  /// Select a job index within `window`; stages the experience so that
  /// `commit_reward` can attach the post-action reward.
  [[nodiscard]] std::size_t select(const sim::SchedulingContext& ctx,
                                   std::span<const sim::Job* const> window);
  void commit_reward(double reward);
  /// Drop a staged experience whose action turned out to be illegal.
  void discard_staged() noexcept { staged_ = false; }
  void maybe_update();
  /// The active policy head: everything both kinds share goes through it.
  [[nodiscard]] PolicyHead& head() noexcept {
    return pg_ ? static_cast<PolicyHead&>(*pg_) : *dql_;
  }
  [[nodiscard]] const PolicyHead& head() const noexcept {
    return pg_ ? static_cast<const PolicyHead&>(*pg_) : *dql_;
  }

  DrasConfig config_;
  std::string name_;
  RewardFunction reward_;
  StateEncoder encoder_;
  // Held by value, so the implicit copy constructor is a deep copy of
  // the whole agent (clone_agent).
  std::optional<PGPolicy> pg_;
  std::optional<DQLPolicy> dql_;
  util::Rng rng_;
  bool training_ = true;

  // Staged experience between select() and commit_reward().
  std::vector<float> staged_state_;                 // PG
  std::vector<std::vector<float>> staged_candidates_;  // DQL
  std::size_t staged_valid_ = 0;
  std::size_t staged_action_ = 0;
  bool staged_ = false;

  double episode_reward_ = 0.0;
  std::size_t episode_actions_ = 0;
  std::size_t instances_seen_ = 0;
  std::vector<float> encode_scratch_;

  std::uint64_t rng_nonce_ = 0;
  static constexpr std::size_t kRecentActionDepth = 32;
  std::vector<std::uint32_t> recent_actions_;  // ring, oldest at head_
  std::size_t recent_actions_head_ = 0;
};

}  // namespace dras::core
