// DRAS-DQL: deep-Q head over the shared five-layer network
// (paper §III-B, Eq. 4).
//
// The network scores one job at a time: the input is a single job block
// plus the node rows, the output a scalar Q.  A window of W jobs is scored
// with one batched forward of the same network (Network::forward_batch,
// each row bit-identical to a forward pass of that job alone); the agent
// normally takes the argmax, or a uniformly random job with probability ε
// (ε starts at 1.0 and decays by ×0.995 per update).  Learning is
// semi-gradient TD:
//
//   θ ← θ − α Σ_k ∇θ Q(s_k,a_k) ( Q(s_k,a_k) − [r_k + γ·max_a Q(s_{k+1},a)] )
//
// max_a Q(s_{k+1},a) is usually known before the update runs: a greedy
// selection scored that very window under the parameters the update still
// holds, since θ only moves when an update closes.  The update reuses that
// value; only a window picked by exploration, or one whose parameters were
// written after it was scored, is scored again.
//
// The paper's Eq. 4 omits γ; we expose it (default 0.99) and note the
// deviation in EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/policy_head.h"
#include "util/rng.h"

namespace dras::core {

struct DQLConfig {
  nn::NetworkConfig net;  ///< outputs must be 1.
  nn::AdamConfig adam;
  double gamma = 0.99;
  double epsilon_init = 1.0;
  double epsilon_decay = 0.995;  ///< multiplicative, per update (§III-B).
  double epsilon_min = 0.01;
};

class DQLPolicy final : public PolicyHead {
 public:
  DQLPolicy(const DQLConfig& config, std::uint64_t seed);

  /// Q-value of a single encoded (job, nodes) state.
  [[nodiscard]] double q_value(std::span<const float> state);

  /// ε-greedy selection among candidate states (one encoding per job in
  /// the window).  With `explore` false the choice is greedy_index() of
  /// the window's Q-values, and the window's max Q is kept for record();
  /// an exploring pick runs no forward and keeps nothing.
  [[nodiscard]] std::size_t select_action(
      const std::vector<std::vector<float>>& candidates, util::Rng& rng,
      bool explore);

  /// The greedy rule: index of the first maximum of `q`, each Q widened to
  /// double and compared with strict >.  Shared by select_action and the
  /// batched serving head.  `q` must not be empty.
  [[nodiscard]] static std::size_t greedy_index(std::span<const float> q);

  /// Append one transition.  `candidates` are the encodings the selection
  /// chose among; the next recorded transition supplies s_{k+1}.  When
  /// they are bit for bit the window select_action last scored, the
  /// transition carries that window's max Q and its parameter generation.
  void record(std::vector<std::vector<float>> candidates, std::size_t action,
              double reward);

  /// Eq. 4 semi-gradient update over the recorded transitions; clears the
  /// memory and decays ε.  No-op when the memory is empty.  The loss is
  /// the mean TD loss ½(Q − target)².  A next-state window takes the max
  /// Q it carries from its selection when the network's
  /// parameter_generation() still equals the one it was scored under, and
  /// is otherwise scored by one batched forward (an exploring pick, a
  /// record of some other window, a restored transition, parameters
  /// changed since).  The chosen states' forwards run in retained batches
  /// of at most 16 whose samples are staged for backward in transition
  /// order.  All of it is bit-identical to one forward/backward per
  /// transition.
  void update() override;

  /// ε decays once per update consumed — in place, deferred into a
  /// gradient sink (it steers the clone's own later exploration) or
  /// stood in for by apply_reduced_update — not per optimiser step.
  [[nodiscard]] double epsilon() const noexcept { return epsilon_; }
  [[nodiscard]] std::size_t pending_steps() const noexcept {
    return memory_.size();
  }

  void discard_memory() { memory_.clear(); }

  /// Checkpoint hooks ("DQLP" section): network parameters, optimiser
  /// moments, the ε schedule position, update telemetry and any pending
  /// transitions.  A restored policy continues bit-identically; its
  /// transitions carry no selection-time Q, so update() scores them.
  void save_state(util::BinaryWriter& out) const override;
  void load_state(util::BinaryReader& in) override;

 private:
  /// A window's max Q, valid while the network's parameter_generation()
  /// equals `generation` (0: none).  Transient, never serialized.
  struct ScoredMax {
    double max_q = 0.0;
    std::uint64_t generation = 0;
  };
  struct Transition {
    std::vector<std::vector<float>> candidates;
    std::size_t action = 0;
    double reward = 0.0;
    ScoredMax scored = {};  ///< from the selection that scored them.
  };

  void on_update_consumed() override;

  /// Are `candidates` bit for bit the window select_action last scored?
  [[nodiscard]] bool is_scored_window(
      const std::vector<std::vector<float>>& candidates) const;

  /// Copy `state` into row `i` of batch_inputs_, growing it as needed.
  void load_row(std::size_t i, const std::vector<float>& state);
  /// Q of the first `n` rows of batch_inputs_ via one batched forward
  /// (retained for stage_batch_sample when `retain`).  Views batch_q_.
  std::span<const float> score_rows(std::size_t n, bool retain);

  DQLConfig config_;
  std::vector<Transition> memory_;
  double epsilon_;
  // Batched-forward scratch, grown on demand to one window or one TD
  // chunk; transient, never serialized.
  std::vector<float> batch_inputs_;
  std::vector<float> batch_q_;
  // The window select_action last scored: the first scored_rows_ rows of
  // batch_inputs_ (0: none) and their max Q.
  std::size_t scored_rows_ = 0;
  ScoredMax scored_;
};

}  // namespace dras::core
