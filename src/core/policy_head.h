// The part both DRAS policy heads share (paper §III-B).
//
// DRAS-PG (Eq. 3) and DRAS-DQL (Eq. 4) differ only in their experience
// memory and their loss.  PolicyHead owns the rest: the network, its Adam
// optimiser and the gradient sink; the update telemetry; the close of an
// update (average the summed per-sample gradients, take their L2 norm and
// step the optimiser, or with a sink armed average and deposit them in
// one pass and leave the parameters frozen); and the reduced step that
// stands in for a round of deferred updates.  on_update_consumed() runs
// once per update consumed on any of those paths, so a schedule tied to
// updates (DQL's ε decay) advances the same way on each.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "nn/adam.h"
#include "nn/grad_accumulator.h"
#include "nn/network.h"
#include "obs/span.h"

namespace dras::util {
class BinaryWriter;
class BinaryReader;
}  // namespace dras::util

namespace dras::core {

class PolicyHead {
 public:
  /// The head's learning rule over its recorded experience; clears the
  /// memory.  No-op when the memory is empty.
  virtual void update() = 0;

  /// Checkpoint hooks (the head's own section: network, Adam moments,
  /// head state, update telemetry, pending experience).  A restored head
  /// continues bit-identically.
  virtual void save_state(util::BinaryWriter& out) const = 0;
  virtual void load_state(util::BinaryReader& in) = 0;

  [[nodiscard]] std::size_t updates_done() const noexcept { return updates_; }
  /// Mean loss of the last update; 0 before the first.  Telemetry only.
  [[nodiscard]] double last_loss() const noexcept { return last_loss_; }
  /// L2 norm of the batch-averaged gradient applied by the last
  /// optimiser step (an in-place update or apply_reduced_update).  A
  /// deferred update leaves it unchanged: its sink's reduced_norm()
  /// reports the round.
  [[nodiscard]] double last_grad_norm() const noexcept {
    return last_grad_norm_;
  }
  [[nodiscard]] nn::Network& network() noexcept { return network_; }
  [[nodiscard]] const nn::Network& network() const noexcept {
    return network_;
  }
  [[nodiscard]] nn::Adam& optimizer() noexcept { return optimizer_; }
  [[nodiscard]] const nn::Adam& optimizer() const noexcept {
    return optimizer_;
  }

  // --- Data-parallel rollout hooks (src/rollout) ---

  /// Divert updates into `sink`: update() computes the batch-mean
  /// gradient and loss as usual and deposits the gradient instead of
  /// stepping the optimiser, so the parameters stay frozen at their
  /// round-start values.  The update count, last_loss() and the
  /// per-update hook advance as usual; last_grad_norm() does not.  Null
  /// restores normal stepping.  Not owned; must outlive the diverted
  /// updates; never serialized.
  void set_gradient_sink(nn::GradientAccumulator* sink) noexcept {
    sink_ = sink;
  }

  /// One optimiser step with an externally reduced mean gradient
  /// standing in for `update_count` deferred updates: telemetry and the
  /// per-update hook advance as if each had been consumed here.  No-op
  /// when update_count is 0.
  void apply_reduced_update(std::span<const float> gradient,
                            double mean_loss, std::size_t update_count);

 protected:
  /// Network Xavier-initialised from the `init_stream` of `seed`.
  PolicyHead(const nn::NetworkConfig& net, const nn::AdamConfig& adam,
             std::uint64_t seed, std::string_view init_stream);

  /// The "nn.update" span over one update, timed into nn.update_us.
  [[nodiscard]] static obs::Span update_span(std::size_t steps);

  /// Close an update whose `steps` per-sample gradients the network holds
  /// summed, `loss_sum` being their summed loss: average, take the norm
  /// and step, or deposit; zero the gradients; count the update.
  void close_update(std::size_t steps, double loss_sum);

  /// Runs once per update consumed (close_update, apply_reduced_update).
  virtual void on_update_consumed() {}

  /// The update telemetry fields, in checkpoint order.
  void save_telemetry(util::BinaryWriter& out) const;
  void load_telemetry(util::BinaryReader& in);

 private:
  void consume_updates(std::size_t count);

  nn::Network network_;
  nn::Adam optimizer_;
  std::size_t updates_ = 0;
  double last_loss_ = 0.0;
  double last_grad_norm_ = 0.0;
  nn::GradientAccumulator* sink_ = nullptr;  // transient, never serialized
};

}  // namespace dras::core
