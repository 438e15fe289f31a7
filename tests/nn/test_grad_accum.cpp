// GradientAccumulator: the deterministic reduction primitive behind the
// data-parallel rollout engine (src/rollout).
#include "nn/grad_accumulator.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace dras::nn {
namespace {

/// Deposit a copy of `gradient` unscaled (deposit() zeroes its input).
void deposit(GradientAccumulator& acc, std::vector<float> gradient,
             double loss) {
  acc.deposit(gradient, 1.0f, loss);
}

TEST(GradAccumTest, StartsEmpty) {
  GradientAccumulator acc(3);
  EXPECT_EQ(acc.parameter_count(), 3u);
  EXPECT_TRUE(acc.empty());
  EXPECT_EQ(acc.updates(), 0u);
  EXPECT_EQ(acc.mean_loss(), 0.0);
  EXPECT_EQ(acc.reduced_norm(), 0.0);
}

TEST(GradAccumTest, ReduceAveragesDeposits) {
  GradientAccumulator acc(2);
  deposit(acc, {1.0f, -2.0f}, 0.5);
  deposit(acc, {3.0f, 4.0f}, 1.5);
  EXPECT_EQ(acc.updates(), 2u);
  EXPECT_DOUBLE_EQ(acc.mean_loss(), 1.0);

  std::vector<float> out(2, 0.0f);
  acc.reduce(out);
  EXPECT_FLOAT_EQ(out[0], 2.0f);
  EXPECT_FLOAT_EQ(out[1], 1.0f);
  EXPECT_NEAR(acc.reduced_norm(), std::sqrt(4.0 + 1.0), 1e-12);
}

// The one-pass deposit must hold exactly what scaling every entry in
// float first and then adding it to a double sum holds, and leave the
// gradient zeroed for the next update.
TEST(GradAccumTest, DepositEqualsScaleThenAddReference) {
  constexpr std::size_t kCount = 1037;
  util::Rng rng(31);
  GradientAccumulator acc(kCount);
  std::vector<double> expected(kCount, 0.0);
  for (const std::size_t steps : {1u, 3u, 7u, 16u}) {
    const float scale = 1.0f / static_cast<float>(steps);
    std::vector<float> gradient(kCount);
    for (float& g : gradient) g = static_cast<float>(rng.uniform(-3.0, 3.0));
    for (std::size_t i = 0; i < kCount; ++i) {
      float scaled = gradient[i];
      scaled *= scale;
      expected[i] += static_cast<double>(scaled);
    }
    acc.deposit(gradient, scale, 0.25 * static_cast<double>(steps));
    for (const float g : gradient)
      ASSERT_EQ(std::bit_cast<std::uint32_t>(g), 0u);
  }
  EXPECT_EQ(acc.updates(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean_loss(), 0.25 * (1 + 3 + 7 + 16) / 4.0);
  const auto sums = acc.sums();
  for (std::size_t i = 0; i < kCount; ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(sums[i]),
              std::bit_cast<std::uint64_t>(expected[i]))
        << "entry " << i;
}

TEST(GradAccumTest, ReduceOnEmptyIsNoOp) {
  GradientAccumulator acc(2);
  std::vector<float> out{7.0f, 9.0f};
  acc.reduce(out);
  EXPECT_FLOAT_EQ(out[0], 7.0f);
  EXPECT_FLOAT_EQ(out[1], 9.0f);
}

TEST(GradAccumTest, LengthMismatchThrows) {
  GradientAccumulator acc(2);
  std::vector<float> short_gradient{1.0f};
  EXPECT_THROW(acc.deposit(short_gradient, 1.0f, 0.0), std::invalid_argument);
  EXPECT_EQ(short_gradient[0], 1.0f);  // untouched on mismatch
  EXPECT_TRUE(acc.empty());
  std::vector<float> out(3, 0.0f);
  EXPECT_THROW(acc.reduce(out), std::invalid_argument);
  GradientAccumulator other(3);
  EXPECT_THROW(acc.merge(other), std::invalid_argument);
}

TEST(GradAccumTest, MergeMatchesDirectDeposits) {
  // Two accumulators merged in a fixed order produce exactly the state
  // one accumulator would hold after the same deposits — the property
  // the rollout reduction relies on.
  GradientAccumulator direct(2);
  GradientAccumulator a(2);
  GradientAccumulator b(2);
  const std::vector<std::vector<float>> grads = {
      {0.1f, -0.2f}, {0.3f, 0.4f}, {-0.5f, 0.6f}};
  deposit(direct, grads[0], 1.0);
  deposit(direct, grads[1], 2.0);
  deposit(direct, grads[2], 3.0);
  deposit(a, grads[0], 1.0);
  deposit(a, grads[1], 2.0);
  deposit(b, grads[2], 3.0);
  a.merge(b);

  EXPECT_EQ(a.updates(), direct.updates());
  EXPECT_DOUBLE_EQ(a.mean_loss(), direct.mean_loss());
  std::vector<float> out_direct(2, 0.0f), out_merged(2, 0.0f);
  direct.reduce(out_direct);
  a.reduce(out_merged);
  EXPECT_EQ(out_direct, out_merged);  // bitwise: same double sums
  EXPECT_DOUBLE_EQ(a.reduced_norm(), direct.reduced_norm());
}

TEST(GradAccumTest, ResetClears) {
  GradientAccumulator acc(1);
  deposit(acc, {5.0f}, 2.0);
  acc.reset();
  EXPECT_TRUE(acc.empty());
  EXPECT_EQ(acc.mean_loss(), 0.0);
  std::vector<float> out{3.0f};
  acc.reduce(out);
  EXPECT_FLOAT_EQ(out[0], 3.0f);
}

}  // namespace
}  // namespace dras::nn
