#include "core/dql_policy.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "util/binio.h"

namespace dras::core {

namespace {
const nn::NetworkConfig& single_output(const nn::NetworkConfig& net) {
  if (net.outputs != 1)
    throw std::invalid_argument("DQL network must have one output");
  return net;
}

/// The bootstrap's max_a Q over one window, each Q widened to double.
double max_q(std::span<const float> q) {
  double best = static_cast<double>(q[0]);
  for (std::size_t i = 1; i < q.size(); ++i)
    best = std::max(best, static_cast<double>(q[i]));
  return best;
}
}  // namespace

DQLPolicy::DQLPolicy(const DQLConfig& config, std::uint64_t seed)
    : PolicyHead(single_output(config.net), config.adam, seed, "dql-init"),
      config_(config),
      epsilon_(config.epsilon_init) {}

double DQLPolicy::q_value(std::span<const float> state) {
  return static_cast<double>(network().forward(state)[0]);
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
    network().forward_batch_retained(inputs, n, batch_q_);
  else
    network().forward_batch(inputs, n, batch_q_);
  return batch_q_;
}

std::size_t DQLPolicy::select_action(
    const std::vector<std::vector<float>>& candidates, util::Rng& rng,
    bool explore) {
  if (candidates.empty())
    throw std::invalid_argument("no candidates to select among");
  scored_rows_ = 0;
  if (explore && rng.bernoulli(epsilon_))
    return rng.uniform_index(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i)
    load_row(i, candidates[i]);
  const auto q = score_rows(candidates.size(), /*retain=*/false);
  scored_rows_ = candidates.size();
  scored_ = {max_q(q), network().parameter_generation()};
  return greedy_index(q);
}

bool DQLPolicy::is_scored_window(
    const std::vector<std::vector<float>>& candidates) const {
  if (scored_rows_ == 0 || candidates.size() != scored_rows_) return false;
  const std::size_t in = config_.net.input_size();
  for (std::size_t i = 0; i < candidates.size(); ++i)
    if (candidates[i].size() != in ||
        std::memcmp(candidates[i].data(), batch_inputs_.data() + i * in,
                    in * sizeof(float)) != 0)
      return false;
  return true;
}

void DQLPolicy::record(std::vector<std::vector<float>> candidates,
                       std::size_t action, double reward) {
  assert(action < candidates.size());
  Transition tr{std::move(candidates), action, reward};
  if (is_scored_window(tr.candidates)) tr.scored = scored_;
  memory_.push_back(std::move(tr));
}

void DQLPolicy::update() {
  if (memory_.empty()) return;
  const std::size_t steps = memory_.size();
  const obs::Span span = update_span(steps);

  // Bootstrap targets first (they query the network with current θ).  A
  // next-state window keeps the max its selection scored while θ is
  // unchanged since: that forward_batch saw the same rows, row count and
  // parameters as a new one would, so the bits agree.  Any other window
  // is scored here by one batched forward.
  scored_rows_ = 0;  // the rows below overwrite the scored window
  const std::uint64_t generation = network().parameter_generation();
  std::vector<double> targets(steps);
  for (std::size_t k = 0; k < steps; ++k) {
    double target = memory_[k].reward;
    if (k + 1 < steps) {
      const Transition& next = memory_[k + 1];
      double best = next.scored.max_q;
      if (next.scored.generation != generation) {
        for (std::size_t i = 0; i < next.candidates.size(); ++i)
          load_row(i, next.candidates[i]);
        best = max_q(score_rows(next.candidates.size(), /*retain=*/false));
      }
      target += config_.gamma * best;
    }
    targets[k] = target;
  }

  // TD gradients: the chosen states' forwards run in retained batches of
  // at most kTdChunk (so scratch never scales with the memory), and each
  // sample is staged for its backward in transition order.
  constexpr std::size_t kTdChunk = 16;
  nn::Network& net = network();
  net.zero_gradients();
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
      net.stage_batch_sample(j);
      net.backward(std::span<const float>(td_error_grad, 1));
    }
  }
  close_update(steps, loss_acc);
  memory_.clear();
}

void DQLPolicy::on_update_consumed() {
  epsilon_ = std::max(config_.epsilon_min, epsilon_ * config_.epsilon_decay);
}

void DQLPolicy::save_state(util::BinaryWriter& out) const {
  out.section("DQLP", 1);
  network().save_state(out);
  optimizer().save_state(out);
  out.f64(epsilon_);
  save_telemetry(out);
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
  network().load_state(in);
  optimizer().load_state(in);
  epsilon_ = in.f64();
  if (!(epsilon_ >= 0.0 && epsilon_ <= 1.0))
    throw util::SerializationError(
        "DQL epsilon outside [0, 1] in checkpoint");
  load_telemetry(in);
  scored_rows_ = 0;
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
