#include "core/policy_head.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"
#include "util/binio.h"
#include "util/rng.h"

namespace dras::core {

namespace {
/// Wall time of one policy update (the head's pass plus the Adam step,
/// or the gradient deposit in deferred mode).  A run trains one head
/// kind, so both share the name: it describes "the NN update".
obs::HdrHistogram& update_us_hdr() {
  static obs::HdrHistogram& hdr = obs::Registry::global().hdr("nn.update_us");
  return hdr;
}
}  // namespace

PolicyHead::PolicyHead(const nn::NetworkConfig& net,
                       const nn::AdamConfig& adam, std::uint64_t seed,
                       std::string_view init_stream)
    : network_([&] {
        util::Rng init_rng(util::derive_seed(seed, init_stream));
        return nn::Network(net, init_rng);
      }()),
      optimizer_(network_.parameter_count(), adam) {}

obs::Span PolicyHead::update_span(std::size_t steps) {
  return obs::Span("nn.update",
                   {obs::targ("steps", static_cast<std::uint64_t>(steps))},
                   &update_us_hdr());
}

void PolicyHead::close_update(std::size_t steps, double loss_sum) {
  // The batch mean (Eq. 3/4 sum over the memory) keeps the step size
  // independent of how many steps the memory held.
  const auto scale = 1.0f / static_cast<float>(steps);
  last_loss_ = loss_sum / static_cast<double>(steps);
  if (sink_ != nullptr) {
    // Deferred mode (data-parallel rollout): scale, deposit and zero the
    // gradient in one pass for the round's reduction; parameters stay
    // frozen at their round-start values.  No norm is taken: the round
    // reports its reduced gradient's norm instead.
    sink_->deposit(network_.gradients(), scale, last_loss_);
  } else {
    for (float& g : network_.gradients()) g *= scale;
    last_grad_norm_ = network_.gradient_norm();
    optimizer_.step(network_.parameters(), network_.gradients());
    network_.zero_gradients();
  }
  consume_updates(1);
}

void PolicyHead::apply_reduced_update(std::span<const float> gradient,
                                      double mean_loss,
                                      std::size_t update_count) {
  if (update_count == 0) return;
  const auto grads = network_.gradients();
  if (gradient.size() != grads.size())
    throw std::invalid_argument(
        "PolicyHead::apply_reduced_update: gradient length mismatch");
  std::copy(gradient.begin(), gradient.end(), grads.begin());
  last_loss_ = mean_loss;
  last_grad_norm_ = network_.gradient_norm();
  optimizer_.step(network_.parameters(), grads);
  network_.zero_gradients();
  consume_updates(update_count);
}

void PolicyHead::consume_updates(std::size_t count) {
  for (std::size_t k = 0; k < count; ++k) on_update_consumed();
  updates_ += count;
}

void PolicyHead::save_telemetry(util::BinaryWriter& out) const {
  out.u64(updates_);
  out.f64(last_loss_);
  out.f64(last_grad_norm_);
}

void PolicyHead::load_telemetry(util::BinaryReader& in) {
  updates_ = in.u64();
  last_loss_ = in.f64();
  last_grad_norm_ = in.f64();
}

}  // namespace dras::core
