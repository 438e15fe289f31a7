#include "nn/ops.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "util/rng.h"

namespace dras::nn {
namespace {

TEST(Gemv, MatchesHandComputedProduct) {
  // W = [[1, 2, 3], [4, 5, 6]], x = [1, 1, 2].
  const std::vector<float> w = {1, 2, 3, 4, 5, 6};
  const std::vector<float> x = {1, 1, 2};
  std::vector<float> y(2);
  gemv(w, x, y, 2, 3);
  EXPECT_FLOAT_EQ(y[0], 9.0f);
  EXPECT_FLOAT_EQ(y[1], 21.0f);
}

TEST(Gemv, IdentityPreservesInput) {
  const std::vector<float> w = {1, 0, 0, 0, 1, 0, 0, 0, 1};
  const std::vector<float> x = {3.5f, -2.0f, 7.0f};
  std::vector<float> y(3);
  gemv(w, x, y, 3, 3);
  EXPECT_EQ(std::vector<float>(y.begin(), y.end()), x);
}

TEST(GemvTransposeAcc, AccumulatesTransposeProduct) {
  const std::vector<float> w = {1, 2, 3, 4, 5, 6};  // 2x3
  const std::vector<float> gy = {1, 10};
  std::vector<float> gx = {100, 100, 100};
  gemv_transpose_acc(w, gy, gx, 2, 3);
  EXPECT_FLOAT_EQ(gx[0], 100 + 1 * 1 + 4 * 10);
  EXPECT_FLOAT_EQ(gx[1], 100 + 2 * 1 + 5 * 10);
  EXPECT_FLOAT_EQ(gx[2], 100 + 3 * 1 + 6 * 10);
}

TEST(OuterAcc, AccumulatesOuterProduct) {
  const std::vector<float> gy = {2, -1};
  const std::vector<float> x = {1, 3};
  std::vector<float> gw(4, 0.5f);
  outer_acc(gy, x, gw, 2, 2);
  EXPECT_FLOAT_EQ(gw[0], 0.5f + 2 * 1);
  EXPECT_FLOAT_EQ(gw[1], 0.5f + 2 * 3);
  EXPECT_FLOAT_EQ(gw[2], 0.5f - 1 * 1);
  EXPECT_FLOAT_EQ(gw[3], 0.5f - 1 * 3);
}

TEST(GemvRoundTrip, TransposeIsAdjoint) {
  // <W x, y> == <x, W^T y> for random matrices (adjoint property).
  util::Rng rng(99);
  const std::size_t rows = 7, cols = 11;
  std::vector<float> w(rows * cols), x(cols), y(rows);
  for (auto& v : w) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : y) v = static_cast<float>(rng.uniform(-1, 1));

  std::vector<float> wx(rows);
  gemv(w, x, wx, rows, cols);
  std::vector<float> wty(cols, 0.0f);
  gemv_transpose_acc(w, y, wty, rows, cols);

  EXPECT_NEAR(dot(wx, y), dot(x, wty), 1e-4);
}

TEST(LeakyRelu, PositivePassThroughNegativeScaled) {
  std::vector<float> x = {-2.0f, 0.0f, 3.0f};
  leaky_relu(x, 0.1f);
  EXPECT_FLOAT_EQ(x[0], -0.2f);
  EXPECT_FLOAT_EQ(x[1], 0.0f);
  EXPECT_FLOAT_EQ(x[2], 3.0f);
}

TEST(LeakyReluBackward, GradientMatchesSlope) {
  const std::vector<float> pre = {-1.0f, 2.0f};
  const std::vector<float> grad_out = {10.0f, 10.0f};
  std::vector<float> grad_in(2);
  leaky_relu_backward(pre, grad_out, grad_in, 0.01f);
  EXPECT_FLOAT_EQ(grad_in[0], 0.1f);
  EXPECT_FLOAT_EQ(grad_in[1], 10.0f);
}

TEST(SoftmaxMasked, SumsToOneOverValidEntries) {
  const std::vector<float> logits = {1.0f, 2.0f, 3.0f, 100.0f};
  std::vector<float> probs(4);
  softmax_masked(logits, probs, 3);
  EXPECT_FLOAT_EQ(probs[3], 0.0f);  // masked despite huge logit
  EXPECT_NEAR(probs[0] + probs[1] + probs[2], 1.0f, 1e-6);
  EXPECT_LT(probs[0], probs[1]);
  EXPECT_LT(probs[1], probs[2]);
}

TEST(SoftmaxMasked, NumericallyStableForLargeLogits) {
  const std::vector<float> logits = {1000.0f, 1000.0f};
  std::vector<float> probs(2);
  softmax_masked(logits, probs, 2);
  EXPECT_NEAR(probs[0], 0.5f, 1e-6);
  EXPECT_NEAR(probs[1], 0.5f, 1e-6);
}

TEST(SoftmaxMasked, SingleValidEntryGetsAllMass) {
  const std::vector<float> logits = {-5.0f, 9.0f};
  std::vector<float> probs(2);
  softmax_masked(logits, probs, 1);
  EXPECT_FLOAT_EQ(probs[0], 1.0f);
  EXPECT_FLOAT_EQ(probs[1], 0.0f);
}

TEST(SoftmaxMasked, ShiftInvariance) {
  const std::vector<float> a = {1.0f, 2.0f, 0.5f};
  const std::vector<float> b = {11.0f, 12.0f, 10.5f};
  std::vector<float> pa(3), pb(3);
  softmax_masked(a, pa, 3);
  softmax_masked(b, pb, 3);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(pa[i], pb[i], 1e-6);
}

TEST(Dot, BasicProduct) {
  const std::vector<float> a = {1, 2, 3};
  const std::vector<float> b = {4, -5, 6};
  EXPECT_FLOAT_EQ(dot(a, b), 4 - 10 + 18);
}

TEST(SpanStats, SummarisesFiniteBuffer) {
  const std::vector<float> v = {3.0f, -4.0f, 0.0f};
  const SpanStats stats = span_stats(v);
  EXPECT_EQ(stats.count, 3u);
  EXPECT_EQ(stats.non_finite, 0u);
  EXPECT_TRUE(stats.all_finite());
  EXPECT_NEAR(stats.l2_norm, 5.0, 1e-12);
  EXPECT_NEAR(stats.mean, -1.0 / 3.0, 1e-7);
  EXPECT_FLOAT_EQ(stats.min, -4.0f);
  EXPECT_FLOAT_EQ(stats.max, 3.0f);
}

TEST(SpanStats, NonFiniteEntriesAreCountedButExcluded) {
  // A single NaN must not blank out the rest of the distribution —
  // the diagnostics dump needs both the damage count and the stats of
  // what survived.
  const std::vector<float> v = {std::numeric_limits<float>::quiet_NaN(),
                                3.0f,
                                -std::numeric_limits<float>::infinity(),
                                -4.0f};
  const SpanStats stats = span_stats(v);
  EXPECT_EQ(stats.count, 4u);
  EXPECT_EQ(stats.non_finite, 2u);
  EXPECT_FALSE(stats.all_finite());
  EXPECT_NEAR(stats.l2_norm, 5.0, 1e-12);
  EXPECT_FLOAT_EQ(stats.min, -4.0f);
  EXPECT_FLOAT_EQ(stats.max, 3.0f);
}

TEST(SpanStats, EmptyAndAllPoisonedBuffers) {
  EXPECT_EQ(span_stats({}).count, 0u);
  EXPECT_TRUE(span_stats({}).all_finite());
  const std::vector<float> v(3, std::numeric_limits<float>::quiet_NaN());
  const SpanStats stats = span_stats(v);
  EXPECT_EQ(stats.non_finite, 3u);
  EXPECT_EQ(stats.l2_norm, 0.0);
  EXPECT_EQ(stats.min, 0.0f);
  EXPECT_EQ(stats.max, 0.0f);
}

TEST(L2Norm, PropagatesNonFiniteUnlikeSpanStats) {
  const std::vector<float> clean = {3.0f, 4.0f};
  EXPECT_NEAR(l2_norm(clean), 5.0, 1e-12);
  const std::vector<float> poisoned = {
      3.0f, std::numeric_limits<float>::quiet_NaN()};
  EXPECT_TRUE(std::isnan(l2_norm(poisoned)));
}

TEST(ScrubNonFinite, ZeroesOnlyThePoisonedEntries) {
  std::vector<float> v = {1.0f, std::numeric_limits<float>::quiet_NaN(),
                          -2.0f, std::numeric_limits<float>::infinity()};
  EXPECT_EQ(scrub_non_finite(v), 2u);
  EXPECT_EQ(v, (std::vector<float>{1.0f, 0.0f, -2.0f, 0.0f}));
  EXPECT_EQ(scrub_non_finite(v), 0u);  // idempotent on a clean buffer
}

// gemm_batch's contract is bitwise, not approximate: each lane of the
// sample-minor batch visits the features in gemv's exact sequential
// order, so the serving path inherits the trainer's float-for-float
// results.  Batch 19 exercises one full 16-lane register block plus a
// 3-lane tail.
TEST(GemmBatch, EveryLaneBitIdenticalToGemv) {
  constexpr std::size_t rows = 5, cols = 37, batch = 19;
  util::Rng rng(42);
  std::vector<float> w(rows * cols);
  for (float& v : w) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<float> xs(cols * batch);  // sample-minor: xs[c*batch + b]
  for (float& v : xs) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  std::vector<float> ys(rows * batch);
  gemm_batch(w, xs, ys, rows, cols, batch);

  std::vector<float> x(cols), y(rows);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t c = 0; c < cols; ++c) x[c] = xs[c * batch + b];
    gemv(w, x, y, rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
      EXPECT_EQ(ys[r * batch + b], y[r]) << "lane " << b << " row " << r;
  }
}

TEST(GemmBatch, BatchOfOneEqualsGemvExactly) {
  constexpr std::size_t rows = 7, cols = 23;
  util::Rng rng(43);
  std::vector<float> w(rows * cols), x(cols);
  for (float& v : w) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (float& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<float> y_batch(rows), y_ref(rows);
  gemm_batch(w, x, y_batch, rows, cols, 1);
  gemv(w, x, y_ref, rows, cols);
  EXPECT_EQ(y_batch, y_ref);
}

// --- Bit identity against naive in-test references ---------------------
//
// The kernels block rows and lanes into registers for throughput; these
// references are the plain sequential loops whose rounding they must
// reproduce exactly.  Floats are compared by bit pattern, so a sum whose
// order changed fails even where the values happen to be close.

std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

std::vector<float> random_floats(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

/// y[r] = ((0 + w[r][0]·x[0]) + w[r][1]·x[1]) + …, read at `x_stride`.
float sequential_dot(const float* row, const float* x, std::size_t cols,
                     std::size_t x_stride) {
  float acc = 0.0f;
  for (std::size_t c = 0; c < cols; ++c) acc += row[c] * x[c * x_stride];
  return acc;
}

// Row counts straddle the 8-row register tile: 1, 7 and a tail of 1 (9,
// 17) as well as the full-tile 256; column counts include ones that are
// not a multiple of the 4-column transpose.
TEST(Gemv, BitIdenticalToSequentialLoop) {
  util::Rng rng(61);
  for (const std::size_t rows : {1u, 7u, 9u, 17u, 256u}) {
    for (const std::size_t cols : {1u, 3u, 13u, 64u, 274u}) {
      const auto w = random_floats(rows * cols, rng);
      const auto x = random_floats(cols, rng);
      std::vector<float> y(rows);
      gemv(w, x, y, rows, cols);
      for (std::size_t r = 0; r < rows; ++r)
        ASSERT_EQ(bits(y[r]),
                  bits(sequential_dot(w.data() + r * cols, x.data(), cols, 1)))
            << rows << "x" << cols << " row " << r;
    }
  }
}

// Every lane of every batch size 1…40: full 16-lane blocks, and every
// remainder width (1…15 lanes, each a partial vector block).  Both builds
// are checked: gemm_batch (AVX2 where the host has it) and the four-lane
// baseline every other CPU runs.
TEST(GemmBatch, EveryLaneBitIdenticalToSequentialLoop) {
  util::Rng rng(62);
  const std::size_t shapes[][2] = {{9, 37}, {64, 30}, {1, 64}};
  for (const auto& shape : shapes) {
    const std::size_t rows = shape[0], cols = shape[1];
    const auto w = random_floats(rows * cols, rng);
    for (std::size_t batch = 1; batch <= 40; ++batch) {
      const auto xs = random_floats(cols * batch, rng);  // xs[c*batch + b]
      std::vector<float> ys(rows * batch);
      std::vector<float> ys_baseline(rows * batch);
      gemm_batch(w, xs, ys, rows, cols, batch);
      gemm_batch_baseline(w, xs, ys_baseline, rows, cols, batch);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t b = 0; b < batch; ++b) {
          const auto expected = bits(sequential_dot(
              w.data() + r * cols, xs.data() + b, cols, batch));
          ASSERT_EQ(bits(ys[r * batch + b]), expected)
              << rows << "x" << cols << " batch " << batch << " row " << r
              << " lane " << b;
          ASSERT_EQ(bits(ys_baseline[r * batch + b]), expected)
              << "baseline " << rows << "x" << cols << " batch " << batch
              << " row " << r << " lane " << b;
        }
      }
    }
  }
}

// The row axpy must equal the column-sum loop it replaced for any
// target: each column summed over rows from 0, then one add into grad_x.
TEST(GemvTransposeAcc, BitIdenticalToColumnSums) {
  util::Rng rng(63);
  for (const std::size_t rows : {1u, 5u, 64u, 256u}) {
    for (const std::size_t cols : {1u, 7u, 64u, 130u, 274u}) {
      const auto w = random_floats(rows * cols, rng);
      const auto g = random_floats(rows, rng);
      auto out = random_floats(cols, rng);
      const auto target = out;
      gemv_transpose_acc(w, g, out, rows, cols);
      for (std::size_t c = 0; c < cols; ++c) {
        float acc = 0.0f;
        for (std::size_t r = 0; r < rows; ++r) acc += w[r * cols + c] * g[r];
        float expected = target[c];
        expected += acc;
        ASSERT_EQ(bits(out[c]), bits(expected))
            << rows << "x" << cols << " column " << c;
      }
    }
  }
}

}  // namespace
}  // namespace dras::nn
