// The per-layer metric catalogue shared by every traced run, the
// self-time attribution that closes each traced run, and the network
// shape metrics of the workloads that run nn code.

#include <algorithm>
#include <set>

#include "workloads.h"

namespace perfbench {

namespace {

/// Layers whose self time a traced run attributes; span names start with
/// one of these.  "unattributed" is the self time of the root spans.
const std::vector<std::string>& attributed_layers() {
  static const std::vector<std::string> layers = {
      "workload", "train", "sim",  "sched", "core", "nn",
      "rollout",  "ckpt",  "serve", "net",  "unattributed"};
  return layers;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        {"workload.generate_s", "s"},
        {"train.curriculum_s", "s"},
        {"sim.run_s", "s"},
        {"sched.schedule_s", "s"},
        {"sched.share", "ratio"},
        {"sim.loop_self_s", "s"},
        {"sim.instances", "count"},
        {"sim.starts_ready", "count"},
        {"sim.starts_backfill", "count"},
        {"sim.reservations", "count"},
        {"sim.queue_depth_p50", "jobs"},
        {"sim.queue_depth_p99", "jobs"},
        {"sim.running_jobs_p50", "jobs"},
        {"sim.running_jobs_p99", "jobs"},
        {"sim.earliest_start_us_p50", "us"},
        {"sim.earliest_start_us_p99", "us"},
        {"sim.backfill_candidates_us_p50", "us"},
        {"sim.backfill_candidates_us_p99", "us"},
        {"sim.encode_nodes_us_p50", "us"},
        {"sim.avg_wait_h", "h"},
        {"core.encode_job_us_p50", "us"},
        {"core.dql_select_us_p50", "us"},
        {"core.dql_select_us_p99", "us"},
        {"core.dql_update_us_p50", "us"},
        {"core.transition_bytes", "B"},
        {"nn.forwards_per_decision", "count"},
        {"nn.forward_us_p50", "us"},
        {"nn.backward_us_p50", "us"},
        {"nn.adam_step_us_p50", "us"},
        {"nn.forward_batch_us_p50", "us"},
        {"nn.flops_per_forward", "flop"},
        {"nn.weight_bytes", "B"},
        {"rollout.round_s_p50", "s"},
        {"rollout.reduce_s", "s"},
        {"rollout.worker_idle_share", "ratio"},
        {"ckpt.save_ms_p50", "ms"},
        {"ckpt.bytes", "B"},
        {"serve.inproc_latency_us_p50", "us"},
        {"serve.inproc_latency_us_p99", "us"},
        {"serve.batch_size_mean", "requests"},
        {"serve.batch_wait_share", "ratio"},
        {"net.transport_us_p50", "us"},
        {"net.request_bytes", "B"},
        {"net.response_bytes", "B"},
        {"net.retries", "count"},
        {"net.reconnects", "count"},
        {"net.degraded", "count"},
        {"exec.threads_peak", "threads"},
        {"obs.trace_overhead_share", "ratio"},
    };
    for (const std::string& layer : attributed_layers())
      m.emplace_back("attr." + layer + "_share", "ratio");
    return m;
  }();
  return metrics;
}

void finish_traced(Result& result, const std::vector<Span>& spans,
                   const std::vector<Inner>& inner) {
  auto by_layer = attribute(spans);
  for (const Inner& move : inner) {
    const double seconds = std::min(move.seconds, by_layer[move.from]);
    by_layer[move.from] -= seconds;
    by_layer[move.to] += seconds;
  }
  // Shares of all self seconds: spans that overlap in time count once
  // per thread, so the shares sum to 1.
  double total = 0.0;
  for (const auto& [layer, seconds] : by_layer) total += seconds;
  const std::set<std::string> known(attributed_layers().begin(),
                                    attributed_layers().end());
  for (const auto& [layer, seconds] : by_layer)
    if (known.count(layer) == 0)
      result.fail("span of unknown layer '" + layer + "'", 0);
  for (const std::string& layer : attributed_layers()) {
    const auto it = by_layer.find(layer);
    const double self = it == by_layer.end() ? 0.0 : it->second;
    result.set("attr." + layer + "_share", total > 0 ? self / total : 0.0,
               "ratio", std::to_string(self).substr(0, 8) + " s self of " +
                            std::to_string(total).substr(0, 8) +
                            " s of all traced spans");
  }
  for (const auto& [name, unit] : per_layer_metrics())
    if (result.metrics.count(name) == 0)
      result.set(name, 0.0, unit, "not exercised by this workload");
}

void set_network_shape(Result& result, const dras::nn::NetworkConfig& config) {
  const double r = static_cast<double>(config.input_rows);
  const double h1 = static_cast<double>(config.fc1);
  const double h2 = static_cast<double>(config.fc2);
  const double outs = static_cast<double>(config.outputs);
  result.set("nn.flops_per_forward",
             4.0 * r + 2.0 * h1 * r + 2.0 * h2 * h1 + 2.0 * outs * h2 + outs,
             "flop", "computed from NetworkConfig, per sample");
  result.set("nn.weight_bytes",
             static_cast<double>(config.parameter_count()) * 4.0, "B",
             "computed: parameters x 4");
}

}  // namespace perfbench
