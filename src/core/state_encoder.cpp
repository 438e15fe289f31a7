#include "core/state_encoder.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace dras::core {

StateEncoder::StateEncoder(int total_nodes, double time_scale,
                           bool failure_features, bool fairness_features)
    : total_nodes_(total_nodes),
      time_scale_(time_scale),
      failure_features_(failure_features),
      fairness_features_(fairness_features) {
  if (total_nodes <= 0 || time_scale <= 0.0)
    throw std::invalid_argument("encoder needs positive nodes/time scale");
}

void StateEncoder::write_job_block(const sim::Job& job, sim::Time now,
                                   float* out) const noexcept {
  const auto n = static_cast<float>(total_nodes_);
  const auto ts = static_cast<float>(time_scale_);
  // Row 1: size, runtime estimate.
  out[0] = static_cast<float>(job.size) / n;
  out[1] = static_cast<float>(job.runtime_estimate) / ts;
  // Row 2: priority, queued time.
  out[2] = static_cast<float>(job.priority);
  out[3] = static_cast<float>(std::max(0.0, now - job.submit_time)) / ts;
}

void StateEncoder::append_nodes(const sim::SchedulingContext& ctx,
                                float* out) const {
  ctx.cluster().encode_nodes(ctx.now(), node_scratch_);
  assert(node_scratch_.size() == static_cast<std::size_t>(total_nodes_));
  const auto ts = static_cast<float>(time_scale_);
  for (std::size_t i = 0; i < node_scratch_.size(); ++i) {
    out[2 * i] = node_scratch_[i].available;
    out[2 * i + 1] = node_scratch_[i].release_delta / ts;
  }
}

void StateEncoder::append_failure_rows(const sim::SchedulingContext& ctx,
                                       float* out) const noexcept {
  // Row 1: recent fault rate (failures per node in the feature window),
  //        fraction of machine nodes currently down.
  out[0] = static_cast<float>(ctx.recent_fault_rate());
  out[1] = static_cast<float>(ctx.fraction_down());
  // Row 2: requeued-work backlog in machine-time_scale units; padding.
  out[2] = static_cast<float>(
      ctx.requeued_backlog() /
      (static_cast<double>(total_nodes_) * time_scale_));
  out[3] = 0.0f;
}

void StateEncoder::append_fairness_rows(
    const sim::SchedulingContext& ctx,
    std::span<const sim::Job* const> candidates, float* out) const noexcept {
  // Row 1: mean and max decayed user share over the candidate jobs —
  //        how well-served are the users the agent can pick from?
  float mean = 0.0f, max = 0.0f;
  for (const sim::Job* job : candidates) {
    const auto share = static_cast<float>(ctx.user_share(job->user_id));
    mean += share;
    max = std::max(max, share);
  }
  if (!candidates.empty()) mean /= static_cast<float>(candidates.size());
  out[0] = mean;
  out[1] = max;
  // Row 2: user diversity of the full queue (distinct users per queued
  //        job, in (0, 1]); padding.
  const std::size_t queued = ctx.queue().size();
  out[2] = queued > 0 ? static_cast<float>(ctx.queued_user_count()) /
                            static_cast<float>(queued)
                      : 0.0f;
  out[3] = 0.0f;
}

void StateEncoder::write_tail(const sim::SchedulingContext& ctx,
                              std::span<const sim::Job* const> candidates,
                              float* out) const {
  append_nodes(ctx, out);
  out += 2 * static_cast<std::size_t>(total_nodes_);
  if (failure_features_) {
    append_failure_rows(ctx, out);
    out += 2 * kFailureRows;
  }
  if (fairness_features_) append_fairness_rows(ctx, candidates, out);
}

void StateEncoder::encode_window(const sim::SchedulingContext& ctx,
                                 std::span<const sim::Job* const> window,
                                 std::size_t window_slots,
                                 std::vector<float>& out) const {
  if (window.size() > window_slots)
    throw std::invalid_argument("window holds more jobs than slots");
  out.assign(pg_input_size(window_slots), 0.0f);
  float* cursor = out.data();
  for (const sim::Job* job : window) {
    write_job_block(*job, ctx.now(), cursor);
    cursor += 4;
  }
  // Remaining slots stay zero (invalid actions are masked downstream).
  write_tail(ctx, window, out.data() + 4 * window_slots);
}

void StateEncoder::encode_job(const sim::SchedulingContext& ctx,
                              const sim::Job& job,
                              std::vector<float>& out) const {
  out.assign(dql_input_size(), 0.0f);
  write_job_block(job, ctx.now(), out.data());
  const sim::Job* candidates[] = {&job};
  write_tail(ctx, candidates, out.data() + 4);
}

}  // namespace dras::core
