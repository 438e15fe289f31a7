// The three perfbench workloads.  Each runs in its own process, measures
// for Options::seconds and returns the metrics of its mode: end-to-end
// metrics untraced, per-layer metrics traced.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

#include "harness.h"
#include "nn/network.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  /// Percentile reported as latency_tail_ms (fixed per workload).
  double tail_percentile = 99.0;
  /// Simulation threads (sim), rollout workers (train) or inference
  /// workers (serve).
  std::size_t workers = 1;
  /// Private scratch directory inside the checkout (checkpoints, sockets).
  std::filesystem::path scratch;
  /// Where the traced run writes its spans (CSV).
  std::filesystem::path spans_out;
};

Result run_sim_cori_easy(const Options& options);
Result run_train_mini_dql(const Options& options);
Result run_serve_mini_pg(const Options& options);

/// Every per-layer metric name: a traced run reports each of them, with 0
/// for layers its workload does not exercise.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

/// Self seconds that ran inside a call of layer `from` but belong to layer
/// `to`, measured by the program's own timers where no span reaches.
struct Inner {
  std::string from;
  std::string to;
  double seconds = 0.0;
};

/// Fill the per-layer metrics `result` lacks with 0, and the attribution
/// shares from `spans` (self seconds per layer over all root spans, with
/// `inner` seconds moved between layers).
void finish_traced(Result& result, const std::vector<Span>& spans,
                   const std::vector<Inner>& inner = {});

/// Set nn.flops_per_forward (4R + 2*fc1*R + 2*fc2*fc1 + 2*out*fc2 + out
/// per sample) and nn.weight_bytes (parameters x 4), computed from
/// `config`.
void set_network_shape(Result& result, const dras::nn::NetworkConfig& config);

}  // namespace perfbench
