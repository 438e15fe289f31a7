#include "rollout/rollout_pool.h"

#include <chrono>
#include <exception>
#include <future>
#include <optional>

#include "core/dras_agent.h"
#include "exec/parallel_runner.h"
#include "exec/thread_pool.h"
#include "nn/grad_accumulator.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "util/format.h"
#include "util/logging.h"

namespace dras::rollout {

namespace {

struct RolloutMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& rounds = reg.counter("rollout.rounds");
  obs::Counter& episodes = reg.counter("rollout.episodes");
  obs::Counter& updates_reduced = reg.counter("rollout.updates_reduced");
  obs::HdrHistogram& round_wall_s = reg.hdr("rollout.round_wall_s");
  obs::HdrHistogram& slot_wall_s = reg.hdr("rollout.slot_wall_s");

  static RolloutMetrics& get() {
    static RolloutMetrics metrics;
    return metrics;
  }
};

/// Everything a slot hands back to the reduction: its episode result,
/// the finished clone (baseline/instance/telemetry merges read it), the
/// deferred gradients and the buffered metrics.
struct SlotOutcome {
  train::EpisodeResult result;
  std::unique_ptr<core::DrasAgent> clone;
  nn::GradientAccumulator grads;
  obs::MetricShard shard;
};

}  // namespace

RolloutPool::RolloutPool(RolloutOptions options)
    : workers_(options.workers == 0 ? exec::default_concurrency()
                                    : options.workers),
      batch_(options.batch == 0 ? workers_ : options.batch) {}

RolloutPool::~RolloutPool() = default;

RoundResult RolloutPool::collect(core::DrasAgent& agent, int total_nodes,
                                 std::span<const train::Jobset> slots,
                                 std::size_t first_episode,
                                 const sim::FaultConfig& faults) {
  RoundResult round;
  if (slots.empty()) return round;
  obs::EventTracer* tracer = obs::default_tracer();
  const auto wall_start = std::chrono::steady_clock::now();
  const double trace_start =
      tracer != nullptr ? tracer->wall_seconds() : 0.0;

  const std::size_t param_count = agent.network().parameter_count();
  const std::size_t instances_start = agent.instances_seen();
  const std::uint64_t recovery_nonce = agent.rng_nonce();
  std::optional<core::PGPolicy::BaselineSnapshot> baseline;
  if (agent.pg() != nullptr) baseline = agent.pg()->baseline_snapshot();

  // The enclosing round span (Trainer::run) on the submitting thread;
  // slot spans parent to it across the pool with the slot index as the
  // stable child ordinal, so span ids are identical at any worker count.
  const obs::SpanContext round_ctx = obs::Span::current();
  std::vector<SlotOutcome> outcomes(slots.size());
  const auto run_slot = [&](std::size_t i) {
    SlotOutcome& slot = outcomes[i];
    const auto slot_start = std::chrono::steady_clock::now();
    slot.grads = nn::GradientAccumulator(param_count);
    // Everything the episode emits is buffered per slot and merged in
    // slot order at the round boundary.
    obs::ShardScope shard_scope(slot.shard);
    obs::Span slot_span(
        "slot", round_ctx, i,
        {obs::targ("episode", static_cast<std::uint64_t>(first_episode + i)),
         obs::targ("jobset", slots[i].name)});
    slot.clone = agent.clone_agent();
    // One stream per global episode index, derived from the recovery
    // nonce: stable across worker counts, and a rolled-back round
    // retries with fresh trajectories because the nonce advanced.
    // Nonce 0 selects the agent's legacy serial stream, so avoid it.
    std::uint64_t nonce =
        exec::task_seed(recovery_nonce, "rollout", first_episode + i);
    if (nonce == 0) nonce = 1;
    slot.clone->set_rng_nonce(nonce);
    slot.clone->set_gradient_sink(&slot.grads);
    slot.result = train::train_episode(*slot.clone, total_nodes, slots[i],
                                       faults, first_episode + i);
    slot.clone->set_gradient_sink(nullptr);

    train::EpisodeResult& result = slot.result;
    result.loss = slot.grads.mean_loss();
    result.grad_norm = slot.grads.reduced_norm();
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      slot_start)
            .count();
    // Buffered in this slot's shard; merged in slot order below, so the
    // registry content stays independent of worker count.
    RolloutMetrics::get().slot_wall_s.observe(result.wall_seconds);
  };

  if (workers_ <= 1 || slots.size() <= 1) {
    for (std::size_t i = 0; i < slots.size(); ++i) run_slot(i);
  } else {
    if (pool_ == nullptr)
      pool_ = std::make_unique<exec::ThreadPool>(
          exec::ThreadPool::Options{workers_, 0});
    std::vector<std::future<void>> futures;
    futures.reserve(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
      futures.push_back(pool_->submit(
          [&run_slot, i] { run_slot(i); },
          util::format("rollout {}", first_episode + i)));
    }
    // Drain in submission order; report the lowest-indexed failure,
    // matching what the serial loop would throw.
    std::exception_ptr first_error;
    for (auto& future : futures) {
      try {
        future.get();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  }

  // --- Round reduction, strictly in ascending slot order. ---
  nn::GradientAccumulator reduced(param_count);
  std::size_t instances_total = 0;
  round.episodes.reserve(slots.size());
  for (SlotOutcome& slot : outcomes) {
    slot.shard.merge();
    reduced.merge(slot.grads);
    instances_total += slot.clone->instances_seen() - instances_start;
    if (agent.pg() != nullptr)
      agent.pg()->merge_baseline_delta(*baseline, *slot.clone->pg());
    agent.adopt_episode_telemetry(*slot.clone);
    round.episodes.push_back(std::move(slot.result));
  }
  std::vector<float> gradient(param_count, 0.0f);
  reduced.reduce(gradient);
  round.updates = reduced.updates();
  round.instances = instances_total;
  round.mean_loss = reduced.mean_loss();
  round.grad_norm = reduced.reduced_norm();
  agent.apply_reduced_update(gradient, reduced.mean_loss(),
                             reduced.updates());
  agent.advance_instances(instances_total);

  RolloutMetrics& m = RolloutMetrics::get();
  m.rounds.add();
  m.episodes.add(slots.size());
  m.updates_reduced.add(round.updates);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  m.round_wall_s.observe(wall_seconds);
  if (tracer != nullptr) {
    tracer->complete(
        util::format("round {}..{}", first_episode,
                     first_episode + slots.size() - 1),
        trace_start, tracer->wall_seconds() - trace_start,
        {obs::targ("episodes", static_cast<std::uint64_t>(slots.size())),
         obs::targ("updates", static_cast<std::uint64_t>(round.updates)),
         obs::targ("mean_loss", round.mean_loss),
         obs::targ("grad_norm", round.grad_norm)},
        obs::kTrainPid);
  }
  util::log_info(
      "rollout round: episodes {}..{} on {} workers, {} updates reduced, "
      "mean loss {:.4f}",
      first_episode, first_episode + slots.size() - 1, workers_,
      round.updates, round.mean_loss);
  return round;
}

}  // namespace dras::rollout
