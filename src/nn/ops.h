// Dense linear-algebra and activation primitives for the DRAS networks.
//
// Everything operates on contiguous float spans (row-major weight blocks)
// so the Network can keep all parameters in one flat buffer for the
// optimiser and for serialisation.  The matrix kernels parallelise with
// OpenMP when available and are bit-identical at any thread count: each
// output element is owned by one thread and adds its products in one
// fixed sequential order.  Speed comes from register blocks that keep
// many independent add chains in flight, never from reordering a sum.
#pragma once

#include <cstddef>
#include <span>

namespace dras::nn {

/// y = W·x, W is rows×cols row-major, x has cols elements, y rows elements.
/// Each y[r] is ((0 + W[r][0]·x[0]) + W[r][1]·x[1]) + …, in column
/// order; eight rows run at once, one per vector lane after an in-register
/// transpose of W.
void gemv(std::span<const float> w, std::span<const float> x,
          std::span<float> y, std::size_t rows, std::size_t cols);

/// Batched y = W·x over B samples in *transposed* (sample-minor)
/// layout: `xs` is cols×batch (xs[c*batch + b] = sample b's feature c),
/// `ys` is rows×batch.  Lane b accumulates its dot product in exactly
/// gemv()'s sequential order, so column b of the result is bit-identical
/// to gemv(w, x_b) — strict-FP semantics per sample are preserved.  The
/// throughput win is structural: samples sit in vector lanes, a register
/// block of rows × lanes keeps six to eight independent accumulators,
/// and each weight row is streamed once per block of up to 16 samples.
/// Every batch size runs at full block width; a partial block loads only
/// its valid lanes.  On x86 CPUs with AVX2 the blocks run on eight-lane
/// vectors (chosen at run time, no FMA), elsewhere on four-lane SSE
/// vectors; both give the same bits.  Network::forward_batch owns the
/// transposes; its public layout stays sample-major.
void gemm_batch(std::span<const float> w, std::span<const float> xs,
                std::span<float> ys, std::size_t rows, std::size_t cols,
                std::size_t batch);

/// gemm_batch on the four-lane build only — the path a CPU without AVX2
/// takes — so tests can check it on any host.
void gemm_batch_baseline(std::span<const float> w, std::span<const float> xs,
                         std::span<float> ys, std::size_t rows,
                         std::size_t cols, std::size_t batch);

/// grad_x += Wᵀ·grad_y  (backprop through y = W·x w.r.t. x).  Each
/// grad_x[c] gains the column sum ((0 + W[0][c]·g[0]) + W[1][c]·g[1]) + …
/// in one final add; the sums run as a row-major axpy over register
/// blocks of columns.
void gemv_transpose_acc(std::span<const float> w,
                        std::span<const float> grad_y,
                        std::span<float> grad_x, std::size_t rows,
                        std::size_t cols);

/// grad_W += grad_y ⊗ x  (backprop through y = W·x w.r.t. W).
void outer_acc(std::span<const float> grad_y, std::span<const float> x,
               std::span<float> grad_w, std::size_t rows, std::size_t cols);

/// In-place leaky ReLU: y = x if x > 0 else slope·x.
void leaky_relu(std::span<float> x, float slope);

/// grad_in = grad_out ⊙ leaky'(pre): pass `pre` (pre-activation values).
void leaky_relu_backward(std::span<const float> pre,
                         std::span<const float> grad_out,
                         std::span<float> grad_in, float slope);

/// Numerically stable softmax over the first `valid` entries of `logits`;
/// entries at index >= valid receive probability 0 (action masking,
/// §III-B: "we mask the invalid actions in the output by rescaling all
/// valid actions").  Writes into `probs` (same length as logits).
void softmax_masked(std::span<const float> logits, std::span<float> probs,
                    std::size_t valid);

/// Sum of elementwise products (dot product).
[[nodiscard]] float dot(std::span<const float> a, std::span<const float> b);

/// One-pass summary of a float buffer, used by the training health
/// checks and the divergence diagnostics dump.  `l2_norm` and `mean`
/// accumulate in double; non-finite entries are counted but excluded
/// from min/max/mean/norm so a single NaN cannot hide the rest of the
/// distribution.
struct SpanStats {
  std::size_t count = 0;       ///< Total entries inspected.
  std::size_t non_finite = 0;  ///< NaN / ±inf entries.
  double l2_norm = 0.0;        ///< Over the finite entries.
  double mean = 0.0;
  float min = 0.0f;            ///< 0 when no finite entry exists.
  float max = 0.0f;

  [[nodiscard]] bool all_finite() const noexcept { return non_finite == 0; }
};

[[nodiscard]] SpanStats span_stats(std::span<const float> values) noexcept;

/// L2 norm (double accumulation).  NaN/inf entries propagate into the
/// result — callers that need them separated use span_stats().
[[nodiscard]] double l2_norm(std::span<const float> values) noexcept;

/// Replace every non-finite entry with 0 and return how many were hit.
std::size_t scrub_non_finite(std::span<float> values) noexcept;

}  // namespace dras::nn
