#include "sched/decima_pg.h"

#include <cassert>
#include <stdexcept>

#include "core/window.h"

namespace dras::sched {

namespace {
const core::DrasConfig& pg_only(const core::DrasConfig& config) {
  if (config.kind != core::AgentKind::PG)
    throw std::invalid_argument("Decima-PG needs a DRAS-PG configuration");
  return config;
}
}  // namespace

DecimaPG::DecimaPG(const core::DrasConfig& config)
    : config_(pg_only(config)),
      reward_(config.reward_kind, config.reward_weights),
      encoder_(config.total_nodes, config.time_scale,
               config.failure_features, config.fairness_features),
      policy_(core::PGConfig{config.network_config(), config.adam},
              config.seed),
      rng_(util::derive_seed(config.seed, "decima")) {}

std::unique_ptr<sim::Scheduler> DecimaPG::clone() const {
  return std::make_unique<DecimaPG>(*this);
}

void DecimaPG::begin_episode() {
  episode_reward_ = 0.0;
  // Restart the sampling stream: a trajectory is a deterministic function
  // of (parameters, trace, seed).
  rng_ = util::Rng(util::derive_seed(config_.seed, "decima"));
}

void DecimaPG::end_episode() {
  if (training_) policy_.update();
}

void DecimaPG::schedule(sim::SchedulingContext& ctx) {
  while (true) {
    std::vector<sim::Job*> runnable;
    for (sim::Job* job : ctx.queue())
      if (ctx.cluster().fits(job->size)) runnable.push_back(job);
    if (runnable.empty()) break;

    const auto window = core::truncate_window(runnable, config_.window);
    encoder_.encode_window(ctx, window, config_.window, encode_scratch_);
    // Stochastic policy at training and evaluation time (§III-B).
    const std::size_t action =
        policy_.sample_action(encode_scratch_, window.size(), rng_);
    const sim::Job* job = window[action];
    const bool ok = ctx.start_now(job->id);
    assert(ok);
    (void)ok;
    const double reward = reward_.step_reward(ctx, *job);
    episode_reward_ += reward;
    if (training_)
      policy_.record(encode_scratch_, window.size(), action, reward);
  }

  ++instances_seen_;
  if (training_ &&
      instances_seen_ % static_cast<std::size_t>(config_.update_every) == 0)
    policy_.update();
}

}  // namespace dras::sched
