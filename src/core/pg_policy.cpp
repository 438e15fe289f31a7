#include "core/pg_policy.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "nn/ops.h"
#include "util/binio.h"

namespace dras::core {

PGPolicy::PGPolicy(const PGConfig& config, std::uint64_t seed)
    : PolicyHead(config.net, config.adam, seed, "pg-init"), config_(config) {
  probs_scratch_.resize(config_.net.outputs);
}

std::span<const float> PGPolicy::forward_checked(
    std::span<const float> state, std::size_t valid) {
  if (valid == 0 || valid > config_.net.outputs)
    throw std::invalid_argument("invalid action count");
  return network().forward(state);
}

void PGPolicy::action_probabilities(std::span<const float> state,
                                    std::size_t valid,
                                    std::vector<float>& probs) {
  const auto row = forward_checked(state, valid);
  probs.resize(row.size());
  nn::softmax_masked(row, probs, valid);
}

std::size_t PGPolicy::sample_action(std::span<const float> state,
                                    std::size_t valid, util::Rng& rng) {
  action_probabilities(state, valid, probs_scratch_);
  std::vector<double> weights(probs_scratch_.begin(),
                              probs_scratch_.begin() +
                                  static_cast<std::ptrdiff_t>(valid));
  const std::size_t pick = rng.weighted_index(weights.data(), valid);
  return pick < valid ? pick : 0;
}

std::size_t PGPolicy::greedy_action(std::span<const float> state,
                                    std::size_t valid) {
  return greedy_index(forward_checked(state, valid), valid, probs_scratch_);
}

std::size_t PGPolicy::greedy_index(std::span<const float> logits,
                                   std::size_t valid,
                                   std::vector<float>& probs) {
  probs.resize(logits.size());
  nn::softmax_masked(logits, probs, valid);
  return static_cast<std::size_t>(
      std::max_element(probs.begin(),
                       probs.begin() + static_cast<std::ptrdiff_t>(valid)) -
      probs.begin());
}

void PGPolicy::record(std::vector<float> state, std::size_t valid,
                      std::size_t action, double reward) {
  assert(action < valid && valid <= config_.net.outputs);
  memory_.push_back(Step{std::move(state), valid, action, reward});
}

void PGPolicy::update() {
  if (memory_.empty()) return;
  const std::size_t k_total = memory_.size();
  const obs::Span span = update_span(k_total);

  // Returns-to-go: G_k = sum_{k' >= k} r_{k'} (Eq. 3, undiscounted).
  std::vector<double> returns(k_total);
  double acc = 0.0;
  for (std::size_t k = k_total; k-- > 0;) {
    acc += memory_[k].reward;
    returns[k] = acc;
  }

  if (baseline_sum_.size() < k_total) {
    baseline_sum_.resize(k_total, 0.0);
    baseline_count_.resize(k_total, 0);
  }

  // All K window evaluations run as one batched forward: the recorded
  // states and the parameters are both fixed for the whole sweep, so
  // forward_batch_retained() replaces K forward() calls (bit-identical
  // per sample — see nn::gemm_batch) and stage_batch_sample() below
  // rehydrates each sample's activations for its backward pass.
  const std::size_t input_size = config_.net.input_size();
  const std::size_t outputs = config_.net.outputs;
  batch_states_.resize(k_total * input_size);
  for (std::size_t k = 0; k < k_total; ++k) {
    const Step& step = memory_[k];
    assert(step.state.size() == input_size);
    std::copy(step.state.begin(), step.state.end(),
              batch_states_.begin() +
                  static_cast<std::ptrdiff_t>(k * input_size));
  }
  batch_logits_.resize(k_total * outputs);
  nn::Network& net = network();
  net.forward_batch_retained(batch_states_, k_total, batch_logits_);

  net.zero_gradients();
  std::vector<float> grad_logits(config_.net.outputs);
  double loss_acc = 0.0;
  for (std::size_t k = 0; k < k_total; ++k) {
    const Step& step = memory_[k];
    const double baseline = baseline_count_[k] > 0
                                ? baseline_sum_[k] /
                                      static_cast<double>(baseline_count_[k])
                                : 0.0;
    const double advantage = returns[k] - baseline;
    // Update the running baseline with this batch's return (after use, so
    // b_k averages over *past* parameter updates only).
    baseline_sum_[k] += returns[k];
    ++baseline_count_[k];

    // Gradient of −log π(a|s)·A at the logits: (softmax − onehot_a)·A.
    const std::span<const float> logits(batch_logits_.data() + k * outputs,
                                        outputs);
    nn::softmax_masked(logits, probs_scratch_, step.valid);
    const double p_action =
        std::max(static_cast<double>(probs_scratch_[step.action]), 1e-12);
    loss_acc += -std::log(p_action) * advantage;
    const auto adv = static_cast<float>(advantage);
    for (std::size_t i = 0; i < grad_logits.size(); ++i)
      grad_logits[i] = probs_scratch_[i] * adv;
    grad_logits[step.action] -= adv;
    net.stage_batch_sample(k);
    net.backward(grad_logits);
  }
  close_update(k_total, loss_acc);
  memory_.clear();
}

void PGPolicy::merge_baseline_delta(const BaselineSnapshot& base,
                                    const PGPolicy& updated) {
  const std::size_t k_total = updated.baseline_sum_.size();
  if (baseline_sum_.size() < k_total) {
    baseline_sum_.resize(k_total, 0.0);
    baseline_count_.resize(k_total, 0);
  }
  for (std::size_t k = 0; k < k_total; ++k) {
    const double base_sum = k < base.sum.size() ? base.sum[k] : 0.0;
    const std::size_t base_count = k < base.count.size() ? base.count[k] : 0;
    baseline_sum_[k] += updated.baseline_sum_[k] - base_sum;
    baseline_count_[k] += updated.baseline_count_[k] - base_count;
  }
}

void PGPolicy::save_state(util::BinaryWriter& out) const {
  out.section("PGPO", 1);
  network().save_state(out);
  optimizer().save_state(out);
  out.f64_span(baseline_sum_);
  std::vector<std::uint64_t> counts(baseline_count_.begin(),
                                    baseline_count_.end());
  out.u64_span(counts);
  save_telemetry(out);
  out.u64(memory_.size());
  for (const Step& step : memory_) {
    out.f32_span(step.state);
    out.u64(step.valid);
    out.u64(step.action);
    out.f64(step.reward);
  }
}

void PGPolicy::load_state(util::BinaryReader& in) {
  in.section("PGPO", 1);
  network().load_state(in);
  optimizer().load_state(in);
  baseline_sum_ = in.f64_vector();
  const auto counts = in.u64_vector();
  if (counts.size() != baseline_sum_.size())
    throw util::SerializationError(
        "PG baseline sum/count length mismatch in checkpoint");
  baseline_count_.assign(counts.begin(), counts.end());
  load_telemetry(in);
  memory_.clear();
  const std::uint64_t steps = in.u64();
  memory_.reserve(steps);
  for (std::uint64_t k = 0; k < steps; ++k) {
    Step step;
    step.state = in.f32_vector();
    step.valid = in.u64();
    step.action = in.u64();
    step.reward = in.f64();
    if (step.valid == 0 || step.valid > config_.net.outputs ||
        step.action >= step.valid)
      throw util::SerializationError(
          "PG memory step carries an out-of-range action in checkpoint");
    memory_.push_back(std::move(step));
  }
}

}  // namespace dras::core
