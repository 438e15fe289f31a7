// The five-layer DRAS network (paper §III-B, Table III).
//
//   input [R, 2]
//     → 1×2 convolution (one shared filter: 2 weights + 1 bias), one
//       neuron per input row — "to extract job or node status information
//       in each row"
//     → fully-connected layer 1 (no bias), leaky ReLU
//     → fully-connected layer 2 (no bias), leaky ReLU
//     → output layer (weights + biases), linear
//
// The head (masked softmax for DRAS-PG, scalar Q for DRAS-DQL) lives in
// the policy, not here.  This exact parameterisation reproduces the
// paper's trainable-parameter counts: Theta-PG 21,890,053, Theta-DQL
// 21,449,004, Cori-PG 161,960,053 (Table III).
//
// All parameters (and their gradients) live in single flat buffers so the
// Adam optimiser and the serialiser can treat the network as one vector.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.h"

namespace dras::util {
class BinaryWriter;
class BinaryReader;
}  // namespace dras::util

namespace dras::nn {

struct NetworkConfig {
  std::size_t input_rows = 0;  ///< R: 2W+N for PG, 2+N for DQL (§III-B).
  std::size_t fc1 = 0;         ///< First hidden width.
  std::size_t fc2 = 0;         ///< Second hidden width.
  std::size_t outputs = 0;     ///< W for PG, 1 for DQL.
  float leaky_slope = 0.01f;   ///< Leaky-rectifier negative slope.

  [[nodiscard]] bool valid() const noexcept {
    return input_rows > 0 && fc1 > 0 && fc2 > 0 && outputs > 0;
  }
  /// Total trainable parameters for this configuration.
  [[nodiscard]] std::size_t parameter_count() const noexcept {
    return 3                      // conv: w0, w1, bias
           + fc1 * input_rows     // dense 1 (no bias)
           + fc2 * fc1            // dense 2 (no bias)
           + outputs * fc2        // output weights
           + outputs;             // output biases
  }
  /// Flat input length: input_rows rows of 2 features.
  [[nodiscard]] std::size_t input_size() const noexcept {
    return 2 * input_rows;
  }
};

class Network {
 public:
  /// Xavier-uniform initialisation drawn from `init_rng`.
  Network(const NetworkConfig& config, util::Rng& init_rng);

  [[nodiscard]] const NetworkConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::size_t parameter_count() const noexcept {
    return params_.size();
  }

  /// Forward pass.  `input` must have config().input_size() elements
  /// (row-major [R,2]).  Returns the raw linear outputs; the reference is
  /// valid until the next forward().  Caches activations for backward().
  std::span<const float> forward(std::span<const float> input);

  /// Batched forward over B states packed sample-major in `inputs`
  /// (B × input_size() floats).  Writes B × outputs() floats into `outputs`
  /// (sample-major) and returns nothing else.  Row b is bit-identical to
  /// forward(inputs[b]) — the batch dimension only reorders loops so each
  /// weight row is streamed once per batch (see ops::gemm_batch).  Uses
  /// dedicated scratch buffers: it does NOT touch the activation caches,
  /// so an in-flight forward()/backward() pair is unaffected.
  void forward_batch(std::span<const float> inputs, std::size_t batch,
                     std::span<float> outputs);

  /// forward_batch plus activation retention: keeps every sample's
  /// pre- and post-activations so stage_batch_sample() can later make
  /// any sample the "most recent forward" for backward().  This is the
  /// training entry point (PGPolicy batches a whole update's forwards
  /// up front — states and parameters are fixed for the entire sweep);
  /// plain forward_batch stays the lean inference path.
  void forward_batch_retained(std::span<const float> inputs,
                              std::size_t batch, std::span<float> outputs);

  /// Load sample `b` of the latest forward_batch_retained() into the
  /// single-sample activation caches, exactly as if forward(inputs_b)
  /// had just run — the next backward() accumulates sample b's
  /// gradient bit-identically to the serial path.  Throws when no
  /// retained batch is live or `b` is out of range.
  void stage_batch_sample(std::size_t b);

  /// Accumulate parameter gradients for d(loss)/d(outputs) = `grad_output`
  /// against the most recent forward pass.  May be called repeatedly to
  /// accumulate over a batch; call zero_gradients() between updates.
  void backward(std::span<const float> grad_output);

  void zero_gradients();

  // Flat views for the optimiser, serialisation and gradient checking.
  // The writable view starts a new parameter generation.
  [[nodiscard]] std::span<float> parameters() noexcept {
    generation_ = fresh_generation();
    return params_;
  }
  [[nodiscard]] std::span<const float> parameters() const noexcept {
    return params_;
  }

  /// Names the current parameter values: every writable parameters()
  /// call and every load_state() takes a number no Network in the process
  /// has held before, and a copy keeps its source's number with its
  /// values.  Two equal generations therefore mean equal parameters, so a
  /// value computed from them may be reused while the generation holds.
  /// Writes through a span taken before the value was computed are not
  /// seen: take the span again for each change.
  [[nodiscard]] std::uint64_t parameter_generation() const noexcept {
    return generation_;
  }
  [[nodiscard]] std::span<float> gradients() noexcept { return grads_; }
  [[nodiscard]] std::span<const float> gradients() const noexcept {
    return grads_;
  }

  // Training-health probes (src/robust): one pass over the flat buffers.
  [[nodiscard]] double parameter_norm() const noexcept;
  [[nodiscard]] double gradient_norm() const noexcept;
  /// NaN / ±inf entries in the parameter buffer.
  [[nodiscard]] std::size_t non_finite_parameters() const noexcept;
  /// Zero non-finite gradient entries; returns how many were scrubbed.
  std::size_t scrub_gradients() noexcept;

  /// Checkpoint hooks ("NNET" section): config + flat parameters.
  /// load_state() requires the stored config to match this instance's
  /// (the checkpoint targets an identically shaped network) and throws
  /// util::SerializationError otherwise.  Gradients are transient and
  /// are zeroed on load.
  void save_state(util::BinaryWriter& out) const;
  void load_state(util::BinaryReader& in);

 private:
  // Offsets of each block within the flat parameter buffer.
  struct Layout {
    std::size_t conv = 0;  // [w0, w1, b]
    std::size_t w1 = 0;    // fc1 × R
    std::size_t w2 = 0;    // fc2 × fc1
    std::size_t w3 = 0;    // outputs × fc2
    std::size_t b3 = 0;    // outputs
  };

  [[nodiscard]] std::span<float> block(std::size_t offset,
                                       std::size_t count) noexcept {
    return std::span<float>(params_).subspan(offset, count);
  }
  [[nodiscard]] std::span<const float> cblock(std::size_t offset,
                                              std::size_t count) const noexcept {
    return std::span<const float>(params_).subspan(offset, count);
  }
  [[nodiscard]] std::span<float> gblock(std::size_t offset,
                                        std::size_t count) noexcept {
    return std::span<float>(grads_).subspan(offset, count);
  }

  /// A generation no Network has held; never 0.
  static std::uint64_t fresh_generation() noexcept;

  NetworkConfig config_;
  Layout layout_;
  std::uint64_t generation_ = fresh_generation();
  std::vector<float> params_;
  std::vector<float> grads_;

  // Forward caches (valid for the latest forward()).
  std::vector<float> input_;      // 2R
  std::vector<float> conv_out_;   // R
  std::vector<float> fc1_pre_;    // fc1 (pre-activation)
  std::vector<float> fc1_post_;   // fc1
  std::vector<float> fc2_pre_;    // fc2
  std::vector<float> fc2_post_;   // fc2
  std::vector<float> output_;     // outputs
  // Backward scratch.
  std::vector<float> g_fc2_post_, g_fc2_pre_, g_fc1_post_, g_fc1_pre_,
      g_conv_;
  void forward_batch_impl(std::span<const float> inputs, std::size_t batch,
                          std::span<float> outputs, bool retain);

  // forward_batch scratch (grown on demand, never shrunk); kept separate
  // from the training caches above so batched inference can interleave
  // with a forward()/backward() pair.
  std::vector<float> batch_conv_, batch_fc1_, batch_fc2_, batch_out_;
  // Retention extras (forward_batch_retained only): the sample-major
  // input copy and the pre-activation snapshots taken before the
  // in-place leaky ReLU destroys them.
  std::vector<float> batch_input_, batch_fc1_pre_, batch_fc2_pre_;
  std::size_t retained_batch_ = 0;  ///< 0 = no retained batch live.
  bool has_forward_ = false;
};

}  // namespace dras::nn
