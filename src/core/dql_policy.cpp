#include "core/dql_policy.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/span.h"
#include "util/binio.h"

namespace dras::core {

namespace {
/// Wall time of one policy update (TD pass + Adam step, or gradient
/// deposit in deferred mode).  Shared name with PGPolicy: a run trains
/// one policy kind, and the span/metric describes "the NN update".
obs::HdrHistogram& update_us_hdr() {
  static obs::HdrHistogram& hdr = obs::Registry::global().hdr("nn.update_us");
  return hdr;
}
}  // namespace

DQLPolicy::DQLPolicy(const DQLConfig& config, std::uint64_t seed)
    : config_(config),
      network_([&] {
        if (config.net.outputs != 1)
          throw std::invalid_argument("DQL network must have one output");
        util::Rng init_rng(util::derive_seed(seed, "dql-init"));
        return nn::Network(config.net, init_rng);
      }()),
      optimizer_(network_.parameter_count(), config.adam),
      epsilon_(config.epsilon_init) {}

double DQLPolicy::q_value(std::span<const float> state) {
  return static_cast<double>(network_.forward(state)[0]);
}

std::size_t DQLPolicy::greedy_index(std::span<const float> q) {
  assert(!q.empty());
  std::size_t best = 0;
  double best_q = static_cast<double>(q[0]);
  for (std::size_t i = 1; i < q.size(); ++i) {
    const double qi = static_cast<double>(q[i]);
    if (qi > best_q) {
      best_q = qi;
      best = i;
    }
  }
  return best;
}

void DQLPolicy::load_row(std::size_t i, const std::vector<float>& state) {
  const std::size_t in = config_.net.input_size();
  if (state.size() != in)
    throw std::invalid_argument("network input has the wrong length");
  if (batch_inputs_.size() < (i + 1) * in) batch_inputs_.resize((i + 1) * in);
  std::copy(state.begin(), state.end(),
            batch_inputs_.begin() + static_cast<std::ptrdiff_t>(i * in));
}

std::span<const float> DQLPolicy::score_rows(std::size_t n, bool retain) {
  const auto inputs = std::span<const float>(batch_inputs_)
                          .first(n * config_.net.input_size());
  batch_q_.resize(n);
  if (retain)
    network_.forward_batch_retained(inputs, n, batch_q_);
  else
    network_.forward_batch(inputs, n, batch_q_);
  return batch_q_;
}

std::size_t DQLPolicy::select_action(
    const std::vector<std::vector<float>>& candidates, util::Rng& rng,
    bool explore) {
  if (candidates.empty())
    throw std::invalid_argument("no candidates to select among");
  if (explore && rng.bernoulli(epsilon_))
    return rng.uniform_index(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i)
    load_row(i, candidates[i]);
  return greedy_index(score_rows(candidates.size(), /*retain=*/false));
}

void DQLPolicy::record(std::vector<std::vector<float>> candidates,
                       std::size_t action, double reward) {
  assert(action < candidates.size());
  memory_.push_back(Transition{std::move(candidates), action, reward});
}

void DQLPolicy::update() {
  if (memory_.empty()) return;
  const std::size_t steps = memory_.size();
  obs::Span update_span(
      "nn.update", {obs::targ("steps", static_cast<std::uint64_t>(steps))},
      &update_us_hdr());

  // Bootstrap targets first (they query the network with current θ), one
  // batched forward per next-state window.
  std::vector<double> targets(steps);
  for (std::size_t k = 0; k < steps; ++k) {
    double target = memory_[k].reward;
    if (k + 1 < steps) {
      const auto& next = memory_[k + 1].candidates;
      for (std::size_t i = 0; i < next.size(); ++i) load_row(i, next[i]);
      const auto q = score_rows(next.size(), /*retain=*/false);
      double best = static_cast<double>(q[0]);
      for (std::size_t i = 1; i < q.size(); ++i)
        best = std::max(best, static_cast<double>(q[i]));
      target += config_.gamma * best;
    }
    targets[k] = target;
  }

  // TD gradients: the chosen states' forwards run in retained batches of
  // at most kTdChunk (so scratch never scales with the memory), and each
  // sample is staged for its backward in transition order.
  constexpr std::size_t kTdChunk = 16;
  network_.zero_gradients();
  float td_error_grad[1];
  double loss_acc = 0.0;
  for (std::size_t k0 = 0; k0 < steps; k0 += kTdChunk) {
    const std::size_t n = std::min(kTdChunk, steps - k0);
    for (std::size_t j = 0; j < n; ++j) {
      const Transition& tr = memory_[k0 + j];
      load_row(j, tr.candidates[tr.action]);
    }
    const auto q = score_rows(n, /*retain=*/true);
    for (std::size_t j = 0; j < n; ++j) {
      // Semi-gradient of ½(Q − target)² w.r.t. θ: (Q − target)·∇Q.
      const double td_error = static_cast<double>(q[j]) - targets[k0 + j];
      loss_acc += 0.5 * td_error * td_error;
      td_error_grad[0] = static_cast<float>(td_error);
      network_.stage_batch_sample(j);
      network_.backward(std::span<const float>(td_error_grad, 1));
    }
  }
  const auto scale = 1.0f / static_cast<float>(steps);
  for (float& g : network_.gradients()) g *= scale;
  double grad_sq = 0.0;
  for (const float g : network_.gradients())
    grad_sq += static_cast<double>(g) * static_cast<double>(g);
  last_loss_ = loss_acc / static_cast<double>(steps);
  last_grad_norm_ = std::sqrt(grad_sq);
  if (sink_ != nullptr) {
    // Deferred mode (data-parallel rollout): deposit the batch-mean
    // gradient for the round's reduction; parameters stay frozen at
    // their round-start values.  ε still decays — the schedule is per
    // update consumed, and it steers the clone's own exploration.
    sink_->add(network_.gradients(), last_loss_);
  } else {
    optimizer_.step(network_.parameters(), network_.gradients());
  }
  network_.zero_gradients();
  memory_.clear();

  epsilon_ = std::max(config_.epsilon_min, epsilon_ * config_.epsilon_decay);
  ++updates_;
}

void DQLPolicy::apply_reduced_update(std::span<const float> gradient,
                                     double mean_loss,
                                     std::size_t update_count) {
  if (update_count == 0) return;
  const auto grads = network_.gradients();
  if (gradient.size() != grads.size())
    throw std::invalid_argument(
        "DQLPolicy::apply_reduced_update: gradient length mismatch");
  std::copy(gradient.begin(), gradient.end(), grads.begin());
  double grad_sq = 0.0;
  for (const float g : grads)
    grad_sq += static_cast<double>(g) * static_cast<double>(g);
  last_loss_ = mean_loss;
  last_grad_norm_ = std::sqrt(grad_sq);
  optimizer_.step(network_.parameters(), grads);
  network_.zero_gradients();
  for (std::size_t k = 0; k < update_count; ++k)
    epsilon_ =
        std::max(config_.epsilon_min, epsilon_ * config_.epsilon_decay);
  updates_ += update_count;
}

void DQLPolicy::save_state(util::BinaryWriter& out) const {
  out.section("DQLP", 1);
  network_.save_state(out);
  optimizer_.save_state(out);
  out.f64(epsilon_);
  out.u64(updates_);
  out.f64(last_loss_);
  out.f64(last_grad_norm_);
  out.u64(memory_.size());
  for (const Transition& tr : memory_) {
    out.u64(tr.candidates.size());
    for (const auto& candidate : tr.candidates) out.f32_span(candidate);
    out.u64(tr.action);
    out.f64(tr.reward);
  }
}

void DQLPolicy::load_state(util::BinaryReader& in) {
  in.section("DQLP", 1);
  network_.load_state(in);
  optimizer_.load_state(in);
  epsilon_ = in.f64();
  if (!(epsilon_ >= 0.0 && epsilon_ <= 1.0))
    throw util::SerializationError(
        "DQL epsilon outside [0, 1] in checkpoint");
  updates_ = in.u64();
  last_loss_ = in.f64();
  last_grad_norm_ = in.f64();
  memory_.clear();
  const std::uint64_t transitions = in.u64();
  memory_.reserve(transitions);
  for (std::uint64_t k = 0; k < transitions; ++k) {
    Transition tr;
    const std::uint64_t candidates = in.u64();
    tr.candidates.reserve(candidates);
    for (std::uint64_t c = 0; c < candidates; ++c)
      tr.candidates.push_back(in.f32_vector());
    tr.action = in.u64();
    tr.reward = in.f64();
    if (tr.candidates.empty() || tr.action >= tr.candidates.size())
      throw util::SerializationError(
          "DQL transition carries an out-of-range action in checkpoint");
    memory_.push_back(std::move(tr));
  }
}

}  // namespace dras::core
