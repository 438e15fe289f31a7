// DRAS-PG: policy-gradient head over the shared five-layer network
// (paper §III-B, Eq. 3).
//
// The network maps the encoded window state to W logits; a masked softmax
// turns the first `valid` logits into a distribution over the jobs present
// in the window, and the action is drawn stochastically from it.  Updates
// are episodic REINFORCE with a per-step baseline:
//
//   θ ← θ + α Σ_k ∇θ log πθ(s_k, a_k) ( Σ_{k'>=k} r_{k'} − b_k )
//
// where b_k is the running mean over all past updates of the cumulative
// reward from step k onward.
#pragma once

#include <cstdint>
#include <vector>

#include "core/policy_head.h"
#include "util/rng.h"

namespace dras::core {

struct PGConfig {
  nn::NetworkConfig net;  ///< outputs = window slots W.
  nn::AdamConfig adam;    ///< lr defaults to the paper's 1e-3.
};

class PGPolicy final : public PolicyHead {
 public:
  PGPolicy(const PGConfig& config, std::uint64_t seed);

  /// Stochastic draw from the masked softmax over the first `valid`
  /// actions (training-time behaviour).
  [[nodiscard]] std::size_t sample_action(std::span<const float> state,
                                          std::size_t valid, util::Rng& rng);

  /// Deterministic greedy_index() action (evaluation-time behaviour).
  [[nodiscard]] std::size_t greedy_action(std::span<const float> state,
                                          std::size_t valid);

  /// The greedy rule: softmax_masked over the logit row, then the index
  /// of the first maximum among the first `valid` probabilities.  Shared
  /// by greedy_action and the batched serving head.  `probs` is scratch,
  /// resized to the row's length.
  [[nodiscard]] static std::size_t greedy_index(std::span<const float> logits,
                                                std::size_t valid,
                                                std::vector<float>& probs);

  /// Action probabilities for the given state (masked softmax).
  void action_probabilities(std::span<const float> state, std::size_t valid,
                            std::vector<float>& probs);

  /// Append one experience step to the on-policy memory.
  void record(std::vector<float> state, std::size_t valid, std::size_t action,
              double reward);

  /// Eq. 3 update over the recorded steps; clears the memory afterwards
  /// ("updates its parameters based on the collected observations and then
  /// clears the memory", §III-C).  No-op when the memory is empty.  The
  /// loss is the mean REINFORCE surrogate −log π·A.
  void update() override;

  [[nodiscard]] std::size_t pending_steps() const noexcept {
    return memory_.size();
  }

  /// Drop recorded experience without updating (e.g. when switching from
  /// training to evaluation mid-run).
  void discard_memory() { memory_.clear(); }

  /// Copy of the running baseline statistics, taken at a round boundary
  /// so merge_baseline_delta() can fold in what each clone learned.
  struct BaselineSnapshot {
    std::vector<double> sum;
    std::vector<std::size_t> count;
  };
  [[nodiscard]] BaselineSnapshot baseline_snapshot() const {
    return BaselineSnapshot{baseline_sum_, baseline_count_};
  }
  /// Fold the baseline changes `updated` made relative to `base` into
  /// this policy.  Callers own the reduction-order contract: merge
  /// clones in ascending task index so the double sums are bit-stable
  /// for any worker count.
  void merge_baseline_delta(const BaselineSnapshot& base,
                            const PGPolicy& updated);

  /// Checkpoint hooks ("PGPO" section): network parameters, optimiser
  /// moments, baseline statistics, update telemetry and any pending
  /// on-policy memory.  A restored policy continues bit-identically.
  void save_state(util::BinaryWriter& out) const override;
  void load_state(util::BinaryReader& in) override;

 private:
  struct Step {
    std::vector<float> state;
    std::size_t valid = 0;
    std::size_t action = 0;
    double reward = 0.0;
  };

  /// The network's logits for `state`; throws std::invalid_argument
  /// unless 0 < valid <= W.
  std::span<const float> forward_checked(std::span<const float> state,
                                         std::size_t valid);

  PGConfig config_;
  std::vector<Step> memory_;
  // Running baseline statistics per step index k.
  std::vector<double> baseline_sum_;
  std::vector<std::size_t> baseline_count_;
  std::vector<float> probs_scratch_;
  // update() scratch: the batched forward's packed states and logits
  // (states and parameters are fixed across an update, so all K
  // forwards run as one forward_batch_retained call).
  std::vector<float> batch_states_, batch_logits_;
};

}  // namespace dras::core
