#include "nn/network.h"

#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "nn/ops.h"
#include "obs/metrics.h"
#include "util/binio.h"
#include "util/format.h"

namespace dras::nn {

namespace {

/// Per-call latency distributions for the two hot network entry points.
/// Clock reads are gated on obs::enabled(); per-slot shards buffer the
/// observes during parallel rollout, so the registry stays a pure
/// function of the slot-order merge.
struct NetMetrics {
  obs::HdrHistogram& forward_us;
  obs::HdrHistogram& backward_us;
  obs::HdrHistogram& batch_forward_us;

  static NetMetrics& get() {
    static NetMetrics metrics = [] {
      auto& registry = obs::Registry::global();
      return NetMetrics{
          registry.hdr("nn.forward_us"),
          registry.hdr("nn.backward_us"),
          registry.hdr("nn.batch_forward_us"),
      };
    }();
    return metrics;
  }
};

double micros_since(std::chrono::steady_clock::time_point start) noexcept {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}
/// Xavier-uniform fill: U(-limit, limit), limit = sqrt(6 / (fan_in+fan_out)).
void xavier_fill(std::span<float> block, std::size_t fan_in,
                 std::size_t fan_out, util::Rng& rng) {
  const double limit = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  for (float& w : block)
    w = static_cast<float>(rng.uniform(-limit, limit));
}
}  // namespace

std::uint64_t Network::fresh_generation() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1);
}

Network::Network(const NetworkConfig& config, util::Rng& init_rng)
    : config_(config) {
  if (!config.valid())
    throw std::invalid_argument("network config has a zero dimension");
  const std::size_t r = config_.input_rows;
  const std::size_t h1 = config_.fc1;
  const std::size_t h2 = config_.fc2;
  const std::size_t out = config_.outputs;

  layout_.conv = 0;
  layout_.w1 = 3;
  layout_.w2 = layout_.w1 + h1 * r;
  layout_.w3 = layout_.w2 + h2 * h1;
  layout_.b3 = layout_.w3 + out * h2;
  const std::size_t total = layout_.b3 + out;
  assert(total == config_.parameter_count());

  params_.assign(total, 0.0f);
  grads_.assign(total, 0.0f);

  xavier_fill(block(layout_.conv, 2), 2, 1, init_rng);
  params_[layout_.conv + 2] = 0.0f;  // conv bias
  xavier_fill(block(layout_.w1, h1 * r), r, h1, init_rng);
  xavier_fill(block(layout_.w2, h2 * h1), h1, h2, init_rng);
  xavier_fill(block(layout_.w3, out * h2), h2, out, init_rng);
  // Output biases start at zero.

  input_.resize(2 * r);
  conv_out_.resize(r);
  fc1_pre_.resize(h1);
  fc1_post_.resize(h1);
  fc2_pre_.resize(h2);
  fc2_post_.resize(h2);
  output_.resize(out);
  g_fc2_post_.resize(h2);
  g_fc2_pre_.resize(h2);
  g_fc1_post_.resize(h1);
  g_fc1_pre_.resize(h1);
  g_conv_.resize(r);
}

std::span<const float> Network::forward(std::span<const float> input) {
  if (input.size() != config_.input_size())
    throw std::invalid_argument("network input has the wrong length");
  const bool timed = obs::enabled();
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
  const std::size_t r = config_.input_rows;
  const std::size_t h1 = config_.fc1;
  const std::size_t h2 = config_.fc2;
  const std::size_t out = config_.outputs;

  std::copy(input.begin(), input.end(), input_.begin());

  // 1×2 convolution: one shared filter over each (feature0, feature1) row.
  const float w0 = params_[layout_.conv];
  const float w1 = params_[layout_.conv + 1];
  const float cb = params_[layout_.conv + 2];
  for (std::size_t i = 0; i < r; ++i)
    conv_out_[i] = w0 * input_[2 * i] + w1 * input_[2 * i + 1] + cb;

  gemv(cblock(layout_.w1, h1 * r), conv_out_, fc1_pre_, h1, r);
  fc1_post_ = fc1_pre_;
  leaky_relu(fc1_post_, config_.leaky_slope);

  gemv(cblock(layout_.w2, h2 * h1), fc1_post_, fc2_pre_, h2, h1);
  fc2_post_ = fc2_pre_;
  leaky_relu(fc2_post_, config_.leaky_slope);

  gemv(cblock(layout_.w3, out * h2), fc2_post_, output_, out, h2);
  for (std::size_t i = 0; i < out; ++i)
    output_[i] += params_[layout_.b3 + i];

  has_forward_ = true;
  if (timed) NetMetrics::get().forward_us.observe(micros_since(start));
  return output_;
}

void Network::forward_batch(std::span<const float> inputs, std::size_t batch,
                            std::span<float> outputs) {
  forward_batch_impl(inputs, batch, outputs, /*retain=*/false);
}

void Network::forward_batch_retained(std::span<const float> inputs,
                                     std::size_t batch,
                                     std::span<float> outputs) {
  forward_batch_impl(inputs, batch, outputs, /*retain=*/true);
}

void Network::forward_batch_impl(std::span<const float> inputs,
                                 std::size_t batch, std::span<float> outputs,
                                 bool retain) {
  retained_batch_ = 0;
  if (batch == 0) return;
  if (inputs.size() != batch * config_.input_size())
    throw std::invalid_argument("forward_batch inputs have the wrong length");
  if (outputs.size() != batch * config_.outputs)
    throw std::invalid_argument("forward_batch outputs have the wrong length");
  const bool timed = obs::enabled();
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
  const std::size_t r = config_.input_rows;
  const std::size_t h1 = config_.fc1;
  const std::size_t h2 = config_.fc2;
  const std::size_t out = config_.outputs;

  // Activations are held sample-minor ([feature][batch]) between layers
  // — the layout gemm_batch wants (see ops.h).  Only this function sees
  // it; inputs and outputs stay sample-major.
  batch_conv_.resize(batch * r);
  batch_fc1_.resize(batch * h1);
  batch_fc2_.resize(batch * h2);
  batch_out_.resize(batch * out);

  // 1×2 convolution, per sample — same per-element expression as
  // forward() — stored transposed for the first gemm.
  const float w0 = params_[layout_.conv];
  const float w1 = params_[layout_.conv + 1];
  const float cb = params_[layout_.conv + 2];
  for (std::size_t b = 0; b < batch; ++b) {
    const float* x = inputs.data() + b * 2 * r;
    float* c = batch_conv_.data() + b;
    for (std::size_t i = 0; i < r; ++i)
      c[i * batch] = w0 * x[2 * i] + w1 * x[2 * i + 1] + cb;
  }

  gemm_batch(cblock(layout_.w1, h1 * r), batch_conv_, batch_fc1_, h1, r,
             batch);
  if (retain) batch_fc1_pre_ = batch_fc1_;
  leaky_relu(batch_fc1_, config_.leaky_slope);

  gemm_batch(cblock(layout_.w2, h2 * h1), batch_fc1_, batch_fc2_, h2, h1,
             batch);
  if (retain) batch_fc2_pre_ = batch_fc2_;
  leaky_relu(batch_fc2_, config_.leaky_slope);

  gemm_batch(cblock(layout_.w3, out * h2), batch_fc2_, batch_out_, out, h2,
             batch);
  for (std::size_t b = 0; b < batch; ++b) {
    float* y = outputs.data() + b * out;
    for (std::size_t i = 0; i < out; ++i)
      y[i] = batch_out_[i * batch + b] + params_[layout_.b3 + i];
  }
  if (retain) {
    batch_input_.assign(inputs.begin(), inputs.end());
    retained_batch_ = batch;
  }
  if (timed) NetMetrics::get().batch_forward_us.observe(micros_since(start));
}

void Network::stage_batch_sample(std::size_t b) {
  if (b >= retained_batch_)
    throw std::logic_error(
        "stage_batch_sample() without a retained batch covering the index");
  const std::size_t batch = retained_batch_;
  const std::size_t r = config_.input_rows;
  const std::size_t h1 = config_.fc1;
  const std::size_t h2 = config_.fc2;
  const std::size_t out = config_.outputs;

  const float* x = batch_input_.data() + b * 2 * r;
  std::copy(x, x + 2 * r, input_.begin());
  // The batch buffers are sample-minor ([feature][batch]); gather
  // column b back into the single-sample caches backward() reads.
  for (std::size_t i = 0; i < r; ++i)
    conv_out_[i] = batch_conv_[i * batch + b];
  for (std::size_t i = 0; i < h1; ++i) {
    fc1_pre_[i] = batch_fc1_pre_[i * batch + b];
    fc1_post_[i] = batch_fc1_[i * batch + b];
  }
  for (std::size_t i = 0; i < h2; ++i) {
    fc2_pre_[i] = batch_fc2_pre_[i * batch + b];
    fc2_post_[i] = batch_fc2_[i * batch + b];
  }
  for (std::size_t i = 0; i < out; ++i)
    output_[i] = batch_out_[i * batch + b] + params_[layout_.b3 + i];
  has_forward_ = true;
}

void Network::backward(std::span<const float> grad_output) {
  if (!has_forward_)
    throw std::logic_error("backward() without a preceding forward()");
  if (grad_output.size() != config_.outputs)
    throw std::invalid_argument("grad_output has the wrong length");
  const bool timed = obs::enabled();
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
  const std::size_t r = config_.input_rows;
  const std::size_t h1 = config_.fc1;
  const std::size_t h2 = config_.fc2;
  const std::size_t out = config_.outputs;

  // Output layer: y = W3·fc2_post + b3.
  for (std::size_t i = 0; i < out; ++i)
    grads_[layout_.b3 + i] += grad_output[i];
  outer_acc(grad_output, fc2_post_, gblock(layout_.w3, out * h2), out, h2);
  std::fill(g_fc2_post_.begin(), g_fc2_post_.end(), 0.0f);
  gemv_transpose_acc(cblock(layout_.w3, out * h2), grad_output, g_fc2_post_,
                     out, h2);

  // Leaky ReLU 2, dense 2.
  leaky_relu_backward(fc2_pre_, g_fc2_post_, g_fc2_pre_, config_.leaky_slope);
  outer_acc(g_fc2_pre_, fc1_post_, gblock(layout_.w2, h2 * h1), h2, h1);
  std::fill(g_fc1_post_.begin(), g_fc1_post_.end(), 0.0f);
  gemv_transpose_acc(cblock(layout_.w2, h2 * h1), g_fc2_pre_, g_fc1_post_, h2,
                     h1);

  // Leaky ReLU 1, dense 1.
  leaky_relu_backward(fc1_pre_, g_fc1_post_, g_fc1_pre_, config_.leaky_slope);
  outer_acc(g_fc1_pre_, conv_out_, gblock(layout_.w1, h1 * r), h1, r);
  std::fill(g_conv_.begin(), g_conv_.end(), 0.0f);
  gemv_transpose_acc(cblock(layout_.w1, h1 * r), g_fc1_pre_, g_conv_, h1, r);

  // Convolution: conv_out[i] = w0·x[2i] + w1·x[2i+1] + b.
  float gw0 = 0.0f, gw1 = 0.0f, gb = 0.0f;
  for (std::size_t i = 0; i < r; ++i) {
    gw0 += g_conv_[i] * input_[2 * i];
    gw1 += g_conv_[i] * input_[2 * i + 1];
    gb += g_conv_[i];
  }
  grads_[layout_.conv] += gw0;
  grads_[layout_.conv + 1] += gw1;
  grads_[layout_.conv + 2] += gb;
  if (timed) NetMetrics::get().backward_us.observe(micros_since(start));
}

void Network::zero_gradients() {
  std::fill(grads_.begin(), grads_.end(), 0.0f);
}

double Network::parameter_norm() const noexcept { return l2_norm(params_); }

double Network::gradient_norm() const noexcept { return l2_norm(grads_); }

std::size_t Network::non_finite_parameters() const noexcept {
  return span_stats(params_).non_finite;
}

std::size_t Network::scrub_gradients() noexcept {
  return scrub_non_finite(grads_);
}

void Network::save_state(util::BinaryWriter& out) const {
  out.section("NNET", 1);
  out.u64(config_.input_rows);
  out.u64(config_.fc1);
  out.u64(config_.fc2);
  out.u64(config_.outputs);
  out.f32(config_.leaky_slope);
  out.f32_span(params_);
}

void Network::load_state(util::BinaryReader& in) {
  in.section("NNET", 1);
  const auto input_rows = in.u64();
  const auto fc1 = in.u64();
  const auto fc2 = in.u64();
  const auto outputs = in.u64();
  const float leaky = in.f32();
  if (input_rows != config_.input_rows || fc1 != config_.fc1 ||
      fc2 != config_.fc2 || outputs != config_.outputs ||
      leaky != config_.leaky_slope)
    throw util::SerializationError(util::format(
        "network shape mismatch: checkpoint has [{}x2 -> {} -> {} -> {}], "
        "this network is [{}x2 -> {} -> {} -> {}]",
        input_rows, fc1, fc2, outputs, config_.input_rows, config_.fc1,
        config_.fc2, config_.outputs));
  generation_ = fresh_generation();  // before a read that may fail midway
  in.f32_into(params_);
  zero_gradients();
  has_forward_ = false;
}

}  // namespace dras::nn
