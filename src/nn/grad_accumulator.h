// Deterministic gradient accumulation for data-parallel rollouts
// (src/rollout).
//
// Each rollout clone deposits the batch-mean gradient of every policy
// update it would have applied into its own GradientAccumulator instead
// of stepping its optimiser.  At the end of a round the per-clone
// accumulators are merged *in task-index order* and reduced to a single
// mean gradient, which drives one optimiser step on the original agent.
//
// The reduction-order contract: floating-point addition is not
// associative, so bit-identical results across worker counts require
// that every float is added in the same order no matter how tasks were
// scheduled.  Two rules deliver that:
//   1. within a clone, gradients are summed in the order its updates
//      happened (a deterministic function of the clone's seed + trace);
//   2. across clones, merge(slot 0), merge(slot 1), ... — always
//      ascending task index, never completion order.
// Sums are carried in double precision so the final float rounding step
// happens exactly once, at reduce().
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace dras::nn {

class GradientAccumulator {
 public:
  GradientAccumulator() = default;
  /// Accumulator for gradients of `parameter_count` floats.
  explicit GradientAccumulator(std::size_t parameter_count)
      : sums_(parameter_count, 0.0) {}

  [[nodiscard]] std::size_t parameter_count() const noexcept {
    return sums_.size();
  }
  /// Updates deposited (deposit) or absorbed (merge) so far.
  [[nodiscard]] std::size_t updates() const noexcept { return updates_; }
  [[nodiscard]] bool empty() const noexcept { return updates_ == 0; }
  /// Mean of the deposited per-update losses; 0 when empty.
  [[nodiscard]] double mean_loss() const noexcept {
    return updates_ == 0 ? 0.0
                         : loss_sum_ / static_cast<double>(updates_);
  }
  [[nodiscard]] std::span<const double> sums() const noexcept {
    return sums_;
  }

  /// Deposit one update's gradient times `scale` (the batch mean's
  /// 1/steps) and its loss, zeroing `gradient` in the same pass.  Entry i
  /// adds double(gradient[i] * scale), the float product a separate
  /// scaling pass would store, so the sums are those of scaling first and
  /// depositing after, bit for bit.  Throws std::invalid_argument on
  /// length mismatch, before touching anything.
  void deposit(std::span<float> gradient, float scale, double loss);

  /// Absorb another accumulator's sums and update count.  Callers own
  /// the ordering contract: merge in ascending task index, always.
  void merge(const GradientAccumulator& other);

  /// Mean gradient over every deposited update, rounded to float once.
  /// `out` must hold parameter_count() floats; no-op when empty().
  void reduce(std::span<float> out) const;

  /// L2 norm of the mean gradient (the value reduce() would emit,
  /// accumulated in double precision).  0 when empty.
  [[nodiscard]] double reduced_norm() const noexcept;

  /// Forget everything; keeps the parameter count.
  void reset() noexcept;

 private:
  std::vector<double> sums_;
  std::size_t updates_ = 0;
  double loss_sum_ = 0.0;
};

}  // namespace dras::nn
