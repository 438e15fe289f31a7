#include "nn/grad_accumulator.h"

#include <cmath>
#include <stdexcept>

#include "util/format.h"

namespace dras::nn {

void GradientAccumulator::deposit(std::span<float> gradient, float scale,
                                  double loss) {
  if (gradient.size() != sums_.size())
    throw std::invalid_argument(util::format(
        "GradientAccumulator::deposit: gradient has {} entries, "
        "accumulator holds {}",
        gradient.size(), sums_.size()));
  for (std::size_t i = 0; i < sums_.size(); ++i) {
    const float g = gradient[i] * scale;
    sums_[i] += static_cast<double>(g);
    gradient[i] = 0.0f;
  }
  loss_sum_ += loss;
  ++updates_;
}

void GradientAccumulator::merge(const GradientAccumulator& other) {
  if (other.sums_.size() != sums_.size())
    throw std::invalid_argument(util::format(
        "GradientAccumulator::merge: other holds {} entries, this holds "
        "{}",
        other.sums_.size(), sums_.size()));
  for (std::size_t i = 0; i < sums_.size(); ++i) sums_[i] += other.sums_[i];
  loss_sum_ += other.loss_sum_;
  updates_ += other.updates_;
}

void GradientAccumulator::reduce(std::span<float> out) const {
  if (out.size() != sums_.size())
    throw std::invalid_argument(util::format(
        "GradientAccumulator::reduce: output has {} entries, accumulator "
        "holds {}",
        out.size(), sums_.size()));
  if (updates_ == 0) return;
  const double inv = 1.0 / static_cast<double>(updates_);
  for (std::size_t i = 0; i < sums_.size(); ++i)
    out[i] = static_cast<float>(sums_[i] * inv);
}

double GradientAccumulator::reduced_norm() const noexcept {
  if (updates_ == 0) return 0.0;
  const double inv = 1.0 / static_cast<double>(updates_);
  double norm_sq = 0.0;
  for (const double sum : sums_) {
    const auto g = static_cast<double>(static_cast<float>(sum * inv));
    norm_sq += g * g;
  }
  return std::sqrt(norm_sq);
}

void GradientAccumulator::reset() noexcept {
  for (double& sum : sums_) sum = 0.0;
  loss_sum_ = 0.0;
  updates_ = 0;
}

}  // namespace dras::nn
