#include "nn/ops.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstring>
#include <utility>

namespace dras::nn {

namespace {

// One SSE register of four float lanes.  Vector arithmetic is IEEE
// single precision lane by lane, and the baseline x86-64 ISA has no FMA,
// so `acc += w * x` stays a rounded multiply then a rounded add: the same
// two operations the scalar loops perform, in the same order.
using f32x4 = float __attribute__((vector_size(16)));

inline f32x4 load4(const float* p) noexcept {
  f32x4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline void store4(float* p, f32x4 v) noexcept { std::memcpy(p, &v, sizeof v); }
inline f32x4 splat(float s) noexcept { return f32x4{s, s, s, s}; }

/// Lanes in a vector of type Vec.
template <class Vec>
constexpr std::size_t kLanesOf = sizeof(Vec) / sizeof(float);

/// The first N lanes at `p` into `v` (zeros above): a partial block reads
/// nothing past the batch.  Vectors travel by reference, so no wide vector
/// is ever passed by value through a function built without AVX.
template <std::size_t N, class Vec>
[[gnu::always_inline]] inline void load_lanes(Vec& v, const float* p) noexcept {
  static_assert(N >= 1 && N <= kLanesOf<Vec>);
  if constexpr (N == kLanesOf<Vec>) {
    std::memcpy(&v, p, sizeof v);
  } else {
    v = Vec{};
    for (std::size_t i = 0; i < N; ++i) v[i] = p[i];
  }
}
template <std::size_t N, class Vec>
[[gnu::always_inline]] inline void store_lanes(float* p,
                                               const Vec& v) noexcept {
  if constexpr (N == kLanesOf<Vec>) {
    std::memcpy(p, &v, sizeof v);
  } else {
    for (std::size_t i = 0; i < N; ++i) p[i] = v[i];
  }
}

// Output rows per OpenMP work item in gemv and gemm_batch: each output
// element belongs to exactly one tile, so one thread computes it.
constexpr std::size_t kTileRows = 8;

// Multiply-adds (rows × cols, times the batch for gemm_batch) below which
// a call stays on the calling thread instead of opening an OpenMP team.
// Each output element keeps one owner either way, so no bit depends on
// it.  Measured on a 4-vCPU Xeon VM, team 4 against team 1: the team wins
// a median call from about 16k multiply-adds (theta-mini's 256×274 gemv,
// 16 µs → 7 µs), but every team it opens can stall on a preempted vCPU
// (one of 400 such calls took 1.1 s), and theta-mini DQL training ran up
// to 3× slower end to end at the default team.  The constant sits above
// every theta-mini call (at most 1.1M: fc1 over a 16-row TD chunk) and
// below the hidden layers that gain most from the team: the 3000×800
// serving network's (2.4M–3.4M, 2.3–3.4× faster) and full Theta's
// (4M–17M, 3–6×).
constexpr std::size_t kParallelWork = std::size_t{1} << 21;

// Samples per gemm_batch lane block (four SSE or two AVX2 vectors).
constexpr std::size_t kMaxLanes = 16;

/// Eight rows of y = W·x.  A 4×4 patch of W (four rows, four columns) is
/// loaded and transposed in registers, so vector lane j holds row j and
/// adds its products column by column — gemv's sequential order — while
/// the tile keeps eight independent add chains in flight.
void gemv_tile8(const float* w, std::size_t cols, const float* x, float* y) {
  f32x4 acc[2] = {};
  std::size_t c = 0;
  for (; c + 4 <= cols; c += 4) {
    const f32x4 x0 = splat(x[c]), x1 = splat(x[c + 1]),
                x2 = splat(x[c + 2]), x3 = splat(x[c + 3]);
    for (std::size_t q = 0; q < 2; ++q) {
      const float* p = w + 4 * q * cols + c;
      const f32x4 r0 = load4(p), r1 = load4(p + cols),
                  r2 = load4(p + 2 * cols), r3 = load4(p + 3 * cols);
      const f32x4 lo01 = __builtin_shufflevector(r0, r1, 0, 4, 1, 5);
      const f32x4 hi01 = __builtin_shufflevector(r0, r1, 2, 6, 3, 7);
      const f32x4 lo23 = __builtin_shufflevector(r2, r3, 0, 4, 1, 5);
      const f32x4 hi23 = __builtin_shufflevector(r2, r3, 2, 6, 3, 7);
      acc[q] += __builtin_shufflevector(lo01, lo23, 0, 1, 4, 5) * x0;
      acc[q] += __builtin_shufflevector(lo01, lo23, 2, 3, 6, 7) * x1;
      acc[q] += __builtin_shufflevector(hi01, hi23, 0, 1, 4, 5) * x2;
      acc[q] += __builtin_shufflevector(hi01, hi23, 2, 3, 6, 7) * x3;
    }
  }
  for (; c < cols; ++c) {
    const f32x4 xc = splat(x[c]);
    for (std::size_t q = 0; q < 2; ++q) {
      const float* p = w + 4 * q * cols + c;
      acc[q] += f32x4{p[0], p[cols], p[2 * cols], p[3 * cols]} * xc;
    }
  }
  store4(y, acc[0]);
  store4(y + 4, acc[1]);
}

/// R rows × V vectors of y = W·X in the sample-minor layout (row r of X
/// and of Y at stride `stride`); the last vector holds N valid lanes.
/// Lane b adds its products in column order, exactly as gemv does for
/// sample b; six to eight accumulators keep the adds throughput-bound.
template <class Vec, std::size_t R, std::size_t V, std::size_t N>
[[gnu::always_inline]] inline void gemm_block(const float* w,
                                              std::size_t cols,
                                              const float* x,
                                              std::size_t stride, float* y) {
  constexpr std::size_t L = kLanesOf<Vec>;
  Vec acc[R][V] = {};
  for (std::size_t c = 0; c < cols; ++c) {
    const float* xc = x + c * stride;
    Vec xv[V];
    for (std::size_t v = 0; v + 1 < V; ++v) load_lanes<L>(xv[v], xc + L * v);
    load_lanes<N>(xv[V - 1], xc + L * (V - 1));
    for (std::size_t r = 0; r < R; ++r) {
      const float wrc = w[r * cols + c];
      for (std::size_t v = 0; v < V; ++v) acc[r][v] += wrc * xv[v];
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    float* yr = y + r * stride;
    for (std::size_t v = 0; v + 1 < V; ++v)
      store_lanes<L>(yr + L * v, acc[r][v]);
    store_lanes<N>(yr + L * (V - 1), acc[r][V - 1]);
  }
}

/// Up to kTileRows rows × `Lanes` samples: register blocks of the full
/// width, so a remainder of the batch costs one block, not a slow loop.
template <class Vec, std::size_t Lanes>
[[gnu::always_inline]] inline void gemm_tile(const float* w, std::size_t cols,
                                             const float* x,
                                             std::size_t stride, float* y,
                                             std::size_t rows) {
  constexpr std::size_t L = kLanesOf<Vec>;
  constexpr std::size_t V = (Lanes + L - 1) / L;
  constexpr std::size_t N = Lanes - L * (V - 1);
  constexpr std::size_t R = V == 1 ? 8 : V == 2 ? 4 : 2;
  std::size_t r = 0;
  for (; r + R <= rows; r += R)
    gemm_block<Vec, R, V, N>(w + r * cols, cols, x, stride, y + r * stride);
  for (; r < rows; ++r)
    gemm_block<Vec, 1, V, N>(w + r * cols, cols, x, stride, y + r * stride);
}

using GemmTileFn = void (*)(const float*, std::size_t, const float*,
                            std::size_t, float*, std::size_t);
using GemmTiles = std::array<GemmTileFn, kMaxLanes>;

/// The baseline build of every lane count, on four-lane SSE vectors.
template <std::size_t Lanes>
void gemm_tile_baseline(const float* w, std::size_t cols, const float* x,
                        std::size_t stride, float* y, std::size_t rows) {
  gemm_tile<f32x4, Lanes>(w, cols, x, stride, y, rows);
}
template <std::size_t... L>
constexpr GemmTiles baseline_tiles(std::index_sequence<L...>) {
  return {&gemm_tile_baseline<L + 1>...};
}
/// kBaselineTiles[l - 1] runs a block of l lanes.
constexpr GemmTiles kBaselineTiles =
    baseline_tiles(std::make_index_sequence<kMaxLanes>{});

#if defined(__x86_64__) || defined(__i386__)
// The same blocks on eight-lane AVX2 vectors, picked at run time on CPUs
// that have AVX2.  The "avx2" target does not enable FMA, so `acc += w *
// x` still compiles to a rounded multiply then a rounded add per lane —
// the same IEEE operations as the baseline build, in the same order — and
// the bits do not depend on which build runs.
using f32x8 = float __attribute__((vector_size(32)));

template <std::size_t Lanes>
[[gnu::target("avx2")]] void gemm_tile_avx2(const float* w, std::size_t cols,
                                            const float* x,
                                            std::size_t stride, float* y,
                                            std::size_t rows) {
  gemm_tile<f32x8, Lanes>(w, cols, x, stride, y, rows);
}
template <std::size_t... L>
constexpr GemmTiles avx2_tiles(std::index_sequence<L...>) {
  return {&gemm_tile_avx2<L + 1>...};
}
constexpr GemmTiles kAvx2Tiles =
    avx2_tiles(std::make_index_sequence<kMaxLanes>{});

const GemmTiles& widest_tiles() {
  // cpu_init makes the check safe even before static constructors ran.
  static const GemmTiles& tiles =
      (__builtin_cpu_init(), __builtin_cpu_supports("avx2")) ? kAvx2Tiles
                                                            : kBaselineTiles;
  return tiles;
}
#else
const GemmTiles& widest_tiles() { return kBaselineTiles; }
#endif

void gemm_batch_on(const GemmTiles& tiles, std::span<const float> w,
                   std::span<const float> xs, std::span<float> ys,
                   std::size_t rows, std::size_t cols, std::size_t batch) {
  assert(w.size() == rows * cols);
  assert(xs.size() == batch * cols);
  assert(ys.size() == batch * rows);
  // A one-sample "batch" in sample-minor layout is just a gemv.
  if (batch == 1) {
    gemv(w, xs, ys, rows, cols);
    return;
  }
  const float* wp = w.data();
  const float* xp = xs.data();
  float* yp = ys.data();
  const auto row_tiles =
      static_cast<std::ptrdiff_t>((rows + kTileRows - 1) / kTileRows);
#pragma omp parallel for schedule(static) \
    if (rows * cols * batch >= kParallelWork)
  for (std::ptrdiff_t t = 0; t < row_tiles; ++t) {
    const std::size_t r0 = static_cast<std::size_t>(t) * kTileRows;
    const std::size_t n = std::min(kTileRows, rows - r0);
    for (std::size_t b0 = 0; b0 < batch; b0 += kMaxLanes) {
      const std::size_t lanes = std::min(kMaxLanes, batch - b0);
      tiles[lanes - 1](wp + r0 * cols, cols, xp + b0, batch,
                       yp + r0 * batch + b0, n);
    }
  }
}

// Columns of grad_x per gemv_transpose_acc block (eight vectors).
constexpr std::size_t kAxpyCols = 32;

/// `Cols` columns of grad_x += Wᵀ·g.  The column sums are held in
/// registers from +0 while every row of W is added in order (row r's
/// products land before row r+1's), then added onto grad_x once — the
/// same rounded adds as a column-sum loop followed by `out[c] += sum`.
/// The block's vectors are independent add chains; the last one holds N
/// valid columns.
template <std::size_t Cols>
void axpy_block(const float* w, const float* g, float* out, std::size_t rows,
                std::size_t cols) {
  constexpr std::size_t V = (Cols + 3) / 4;
  constexpr std::size_t N = Cols - 4 * (V - 1);
  f32x4 acc[V] = {};
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = w + r * cols;
    const f32x4 gv = splat(g[r]);
    for (std::size_t v = 0; v + 1 < V; ++v) acc[v] += load4(row + 4 * v) * gv;
    f32x4 tail;
    load_lanes<N>(tail, row + 4 * (V - 1));
    acc[V - 1] += tail * gv;
  }
  for (std::size_t v = 0; v + 1 < V; ++v)
    store4(out + 4 * v, load4(out + 4 * v) + acc[v]);
  f32x4 tail;
  load_lanes<N>(tail, out + 4 * (V - 1));
  store_lanes<N>(out + 4 * (V - 1), tail + acc[V - 1]);
}

using AxpyBlockFn = void (*)(const float*, const float*, float*, std::size_t,
                             std::size_t);
template <std::size_t... C>
constexpr std::array<AxpyBlockFn, sizeof...(C)> axpy_blocks(
    std::index_sequence<C...>) {
  return {&axpy_block<C + 1>...};
}
/// kAxpyBlocks[c - 1] runs a block of c columns.
constexpr auto kAxpyBlocks = axpy_blocks(std::make_index_sequence<kAxpyCols>{});

}  // namespace

void gemv(std::span<const float> w, std::span<const float> x,
          std::span<float> y, std::size_t rows, std::size_t cols) {
  assert(w.size() == rows * cols);
  assert(x.size() == cols);
  assert(y.size() == rows);
  const float* wp = w.data();
  const float* xp = x.data();
  float* yp = y.data();
  const auto tiles =
      static_cast<std::ptrdiff_t>((rows + kTileRows - 1) / kTileRows);
#pragma omp parallel for schedule(static) if (rows * cols >= kParallelWork)
  for (std::ptrdiff_t t = 0; t < tiles; ++t) {
    const std::size_t r0 = static_cast<std::size_t>(t) * kTileRows;
    const std::size_t n = std::min(kTileRows, rows - r0);
    if (n == kTileRows) {
      gemv_tile8(wp + r0 * cols, cols, xp, yp + r0);
      continue;
    }
    for (std::size_t r = r0; r < r0 + n; ++r)
      yp[r] = dot(std::span<const float>(wp + r * cols, cols), x);
  }
}

void gemm_batch(std::span<const float> w, std::span<const float> xs,
                std::span<float> ys, std::size_t rows, std::size_t cols,
                std::size_t batch) {
  gemm_batch_on(widest_tiles(), w, xs, ys, rows, cols, batch);
}

void gemm_batch_baseline(std::span<const float> w, std::span<const float> xs,
                         std::span<float> ys, std::size_t rows,
                         std::size_t cols, std::size_t batch) {
  gemm_batch_on(kBaselineTiles, w, xs, ys, rows, cols, batch);
}

void gemv_transpose_acc(std::span<const float> w,
                        std::span<const float> grad_y,
                        std::span<float> grad_x, std::size_t rows,
                        std::size_t cols) {
  assert(w.size() == rows * cols);
  assert(grad_y.size() == rows);
  assert(grad_x.size() == cols);
  const float* wp = w.data();
  const float* gp = grad_y.data();
  float* out = grad_x.data();
  // Column blocks, one per OpenMP work item: each thread owns its block of
  // grad_x, sums rows 0…rows−1 for it in order (a row-major axpy into
  // registers) and adds the sums on, so every element receives the same
  // sequence of rounded adds as a column-sum loop.
  const auto blocks =
      static_cast<std::ptrdiff_t>((cols + kAxpyCols - 1) / kAxpyCols);
#pragma omp parallel for schedule(static) if (rows * cols >= kParallelWork)
  for (std::ptrdiff_t k = 0; k < blocks; ++k) {
    const std::size_t c0 = static_cast<std::size_t>(k) * kAxpyCols;
    const std::size_t n = std::min(kAxpyCols, cols - c0);
    kAxpyBlocks[n - 1](wp + c0, gp, out + c0, rows, cols);
  }
}

void outer_acc(std::span<const float> grad_y, std::span<const float> x,
               std::span<float> grad_w, std::size_t rows, std::size_t cols) {
  assert(grad_y.size() == rows);
  assert(x.size() == cols);
  assert(grad_w.size() == rows * cols);
  const float* gp = grad_y.data();
  const float* xp = x.data();
  float* wp = grad_w.data();
#pragma omp parallel for schedule(static) if (rows * cols >= kParallelWork)
  for (std::ptrdiff_t r = 0; r < static_cast<std::ptrdiff_t>(rows); ++r) {
    const float g = gp[r];
    if (g == 0.0f) continue;
    float* row = wp + static_cast<std::size_t>(r) * cols;
    for (std::size_t c = 0; c < cols; ++c) row[c] += g * xp[c];
  }
}

void leaky_relu(std::span<float> x, float slope) {
  for (float& v : x)
    if (v < 0.0f) v *= slope;
}

void leaky_relu_backward(std::span<const float> pre,
                         std::span<const float> grad_out,
                         std::span<float> grad_in, float slope) {
  assert(pre.size() == grad_out.size() && pre.size() == grad_in.size());
  for (std::size_t i = 0; i < pre.size(); ++i)
    grad_in[i] = pre[i] > 0.0f ? grad_out[i] : grad_out[i] * slope;
}

void softmax_masked(std::span<const float> logits, std::span<float> probs,
                    std::size_t valid) {
  assert(probs.size() == logits.size());
  assert(valid > 0 && valid <= logits.size());
  float max_logit = logits[0];
  for (std::size_t i = 1; i < valid; ++i)
    max_logit = std::max(max_logit, logits[i]);
  float denom = 0.0f;
  for (std::size_t i = 0; i < valid; ++i) {
    probs[i] = std::exp(logits[i] - max_logit);
    denom += probs[i];
  }
  for (std::size_t i = 0; i < valid; ++i) probs[i] /= denom;
  std::fill(probs.begin() + static_cast<std::ptrdiff_t>(valid), probs.end(),
            0.0f);
}

float dot(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  float acc = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

SpanStats span_stats(std::span<const float> values) noexcept {
  SpanStats stats;
  stats.count = values.size();
  double sum = 0.0;
  double sum_sq = 0.0;
  std::size_t finite = 0;
  for (const float v : values) {
    if (!std::isfinite(v)) {
      ++stats.non_finite;
      continue;
    }
    const double d = static_cast<double>(v);
    sum += d;
    sum_sq += d * d;
    if (finite == 0) {
      stats.min = v;
      stats.max = v;
    } else {
      stats.min = std::min(stats.min, v);
      stats.max = std::max(stats.max, v);
    }
    ++finite;
  }
  if (finite > 0) {
    stats.l2_norm = std::sqrt(sum_sq);
    stats.mean = sum / static_cast<double>(finite);
  }
  return stats;
}

double l2_norm(std::span<const float> values) noexcept {
  double sum_sq = 0.0;
  for (const float v : values)
    sum_sq += static_cast<double>(v) * static_cast<double>(v);
  return std::sqrt(sum_sq);
}

std::size_t scrub_non_finite(std::span<float> values) noexcept {
  std::size_t scrubbed = 0;
  for (float& v : values) {
    if (std::isfinite(v)) continue;
    v = 0.0f;
    ++scrubbed;
  }
  return scrubbed;
}

}  // namespace dras::nn
