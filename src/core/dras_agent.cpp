#include "core/dras_agent.h"

#include <cassert>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "core/window.h"
#include "util/binio.h"
#include "util/format.h"
#include "util/logging.h"

namespace dras::core {

std::string_view to_string(AgentKind kind) noexcept {
  return kind == AgentKind::PG ? "DRAS-PG" : "DRAS-DQL";
}

nn::NetworkConfig DrasConfig::network_config() const {
  // PG scores the whole W-job window at once, DQL one job at a time.
  const std::size_t jobs = kind == AgentKind::PG ? window : 1;
  nn::NetworkConfig net;
  net.input_rows = StateEncoder::input_rows(jobs, total_nodes,
                                            failure_features,
                                            fairness_features);
  net.fc1 = fc1;
  net.fc2 = fc2;
  net.outputs = jobs;
  return net;
}

DrasAgent::DrasAgent(const DrasConfig& config)
    : config_(config),
      name_(to_string(config.kind)),
      reward_(config.reward_kind, config.reward_weights),
      encoder_(config.total_nodes, config.time_scale,
               config.failure_features, config.fairness_features),
      rng_(util::derive_seed(config.seed, "dras-agent")) {
  if (config.total_nodes <= 0)
    throw std::invalid_argument("agent needs a positive node count");
  if (config.window == 0)
    throw std::invalid_argument("agent needs a non-empty window");
  if (config.kind == AgentKind::PG) {
    pg_.emplace(PGConfig{config.network_config(), config.adam}, config.seed);
  } else {
    dql_.emplace(DQLConfig{config.network_config(), config.adam,
                           config.gamma, config.epsilon_init,
                           config.epsilon_decay, config.epsilon_min},
                 config.seed);
  }
}

std::unique_ptr<DrasAgent> DrasAgent::clone_agent() const {
  // Every member is a value type (the policy heads are held in
  // std::optional), so the copy constructor is an exact deep copy:
  // parameters, Adam moments, epsilon, baselines, pending experience and
  // the RNG position.  Nothing is initialised only to be overwritten.
  return std::make_unique<DrasAgent>(*this);
}

std::vector<std::uint32_t> DrasAgent::recent_actions() const {
  std::vector<std::uint32_t> ordered;
  ordered.reserve(recent_actions_.size());
  for (std::size_t i = 0; i < recent_actions_.size(); ++i) {
    ordered.push_back(
        recent_actions_[(recent_actions_head_ + i) % recent_actions_.size()]);
  }
  return ordered;
}

std::unique_ptr<sim::Scheduler> DrasAgent::clone() const {
  return clone_agent();
}

namespace {
/// Order-sensitive FNV-1a over the configuration fields that must match
/// between the checkpointing agent and the restoring one.  A fingerprint
/// (rather than field-by-field storage) keeps the format stable when
/// DrasConfig grows: new fields extend the digest, old checkpoints are
/// rejected with a clear error instead of being silently misread.
std::uint64_t config_fingerprint(const DrasConfig& c) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  };
  const auto mix_f64 = [&mix](double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  };
  mix(static_cast<std::uint64_t>(c.kind));
  mix(static_cast<std::uint64_t>(c.total_nodes));
  mix(c.window);
  mix(c.fc1);
  mix(c.fc2);
  mix_f64(c.time_scale);
  mix(static_cast<std::uint64_t>(c.reward_kind));
  mix_f64(c.reward_weights.w1);
  mix_f64(c.reward_weights.w2);
  mix_f64(c.reward_weights.w3);
  mix(static_cast<std::uint64_t>(c.update_every));
  mix_f64(c.adam.learning_rate);
  mix_f64(c.adam.beta1);
  mix_f64(c.adam.beta2);
  mix_f64(c.adam.epsilon);
  mix_f64(c.adam.max_grad_norm);
  mix_f64(c.gamma);
  mix_f64(c.epsilon_init);
  mix_f64(c.epsilon_decay);
  mix_f64(c.epsilon_min);
  mix(c.seed);
  // Mixed only when enabled so every pre-existing fault-free checkpoint
  // keeps its historical fingerprint.
  if (c.failure_features) mix(0xFA17FEA7u);
  // Same discipline for the fairness extensions: a fairness-shaped
  // reward or fairness input rows change what the parameters mean, but
  // fairness-off agents keep the historical fingerprint bit-for-bit.
  if (c.reward_weights.fairness != 0.0) {
    mix(0xFA15FA15u);
    mix_f64(c.reward_weights.fairness);
  }
  if (c.fairness_features) mix(0xFA15FEA7u);
  return h;
}
}  // namespace

void DrasAgent::save_state(util::BinaryWriter& out) const {
  out.section("AGNT", 1);
  out.u8(config_.kind == AgentKind::PG ? 0 : 1);
  out.u64(config_fingerprint(config_));
  head().save_state(out);
  for (const std::uint64_t word : rng_.state()) out.u64(word);
  out.boolean(training_);
  out.f64(episode_reward_);
  out.u64(episode_actions_);
  out.u64(instances_seen_);
  out.boolean(staged_);
  if (staged_) {
    out.f32_span(staged_state_);
    out.u64(staged_candidates_.size());
    for (const auto& candidate : staged_candidates_)
      out.f32_span(candidate);
    out.u64(staged_valid_);
    out.u64(staged_action_);
  }
}

void DrasAgent::load_state(util::BinaryReader& in, bool relaxed) {
  in.section("AGNT", 1);
  const std::uint8_t kind = in.u8();
  if (kind != (config_.kind == AgentKind::PG ? 0 : 1))
    throw util::SerializationError(util::format(
        "checkpoint holds a {} agent, this agent is {}",
        kind == 0 ? "DRAS-PG" : "DRAS-DQL", name_));
  const std::uint64_t fingerprint = in.u64();
  if (fingerprint != config_fingerprint(config_)) {
    if (!relaxed)
      throw util::SerializationError(
          "checkpoint was written with a different agent configuration "
          "(topology, seed or hyper-parameters); refusing to restore "
          "(pass the relaxed/--warm-start-relaxed path to transfer "
          "same-topology parameters across presets)");
    // Relaxed transfer: the checkpoint stores only the digest, so the
    // diff we can log is the hash pair plus this agent's structural
    // summary — enough to audit what the transfer target looked like.
    // Anything structurally incompatible still fails below, where the
    // parameter tensors carry their own shape checks.
    char stored_hex[17];
    char local_hex[17];
    std::snprintf(stored_hex, sizeof(stored_hex), "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    std::snprintf(local_hex, sizeof(local_hex), "%016llx",
                  static_cast<unsigned long long>(
                      config_fingerprint(config_)));
    util::log_warn(
        "relaxed warm start: checkpoint fingerprint {} != local {}; "
        "adopting parameters into local config (kind={} nodes={} "
        "window={} fc1={} fc2={} time_scale={} reward={} seed={})",
        stored_hex, local_hex, name_, config_.total_nodes, config_.window,
        config_.fc1, config_.fc2, config_.time_scale,
        to_string(config_.reward_kind), config_.seed);
  }
  head().load_state(in);
  std::array<std::uint64_t, 4> rng_state;
  for (std::uint64_t& word : rng_state) word = in.u64();
  rng_.set_state(rng_state);
  training_ = in.boolean();
  episode_reward_ = in.f64();
  episode_actions_ = in.u64();
  instances_seen_ = in.u64();
  staged_ = in.boolean();
  staged_state_.clear();
  staged_candidates_.clear();
  staged_valid_ = 0;
  staged_action_ = 0;
  if (staged_) {
    staged_state_ = in.f32_vector();
    const std::uint64_t candidates = in.u64();
    staged_candidates_.reserve(candidates);
    for (std::uint64_t c = 0; c < candidates; ++c)
      staged_candidates_.push_back(in.f32_vector());
    staged_valid_ = in.u64();
    staged_action_ = in.u64();
  }
}

void DrasAgent::begin_episode() {
  episode_reward_ = 0.0;
  episode_actions_ = 0;
  staged_ = false;
  // Parameters persist across episodes: training is continual (§III-C).
  // The action-sampling stream restarts so that an episode's trajectory is
  // a deterministic function of (parameters, trace, seed).  A non-zero
  // recovery nonce swaps in a sibling stream so a rolled-back episode
  // explores a different trajectory (still deterministic per nonce).
  rng_ = util::Rng(
      rng_nonce_ == 0
          ? util::derive_seed(config_.seed, "dras-agent")
          : util::derive_seed(
                config_.seed,
                util::format("dras-agent-recovery-{}", rng_nonce_)));
}

void DrasAgent::end_episode() {
  // Flush a partial batch so no experience leaks across episodes.
  if (training_) head().update();
}

std::size_t DrasAgent::select(const sim::SchedulingContext& ctx,
                              std::span<const sim::Job* const> window) {
  assert(!window.empty());
  const std::size_t valid = window.size();
  std::size_t action = 0;
  if (config_.kind == AgentKind::PG) {
    encoder_.encode_window(ctx, window, config_.window, encode_scratch_);
    // The PG policy is stochastic at training AND evaluation time: "a
    // scheduling action is stochastically drawn from the W jobs following
    // their probability distributions" (§III-B).  A deterministic argmax
    // would let a positional bias starve whatever job it never points at.
    action = pg_->sample_action(encode_scratch_, valid, rng_);
    if (training_) {
      staged_state_ = encode_scratch_;
      staged_valid_ = valid;
      staged_action_ = action;
      staged_ = true;
    }
  } else {
    staged_candidates_.clear();
    staged_candidates_.reserve(valid);
    for (const sim::Job* job : window) {
      encoder_.encode_job(ctx, *job, encode_scratch_);
      staged_candidates_.push_back(encode_scratch_);
    }
    action = dql_->select_action(staged_candidates_, rng_,
                                 /*explore=*/training_);
    staged_action_ = action;
    staged_ = training_;
  }
  return action;
}

void DrasAgent::commit_reward(double reward) {
  episode_reward_ += reward;
  ++episode_actions_;
  if (!staged_) return;
  if (recent_actions_.size() < kRecentActionDepth) {
    recent_actions_.push_back(static_cast<std::uint32_t>(staged_action_));
  } else {
    recent_actions_[recent_actions_head_] =
        static_cast<std::uint32_t>(staged_action_);
    recent_actions_head_ = (recent_actions_head_ + 1) % kRecentActionDepth;
  }
  if (config_.kind == AgentKind::PG) {
    pg_->record(std::move(staged_state_), staged_valid_, staged_action_,
                reward);
  } else {
    dql_->record(std::move(staged_candidates_), staged_action_, reward);
  }
  staged_ = false;
}

void DrasAgent::maybe_update() {
  ++instances_seen_;
  if (!training_) return;
  if (instances_seen_ % static_cast<std::size_t>(config_.update_every) != 0)
    return;
  head().update();
}

void DrasAgent::schedule(sim::SchedulingContext& ctx) {
  // --- Level 1: immediate execution or reservation (§III-B). ---
  // Skipped while the reservation ledger is full (at the paper's depth 1:
  // whenever a reservation from an earlier instance is outstanding) — the
  // reservation blocks the machine head, so the only legal starts are
  // backfills, which is precisely level 2's job.
  std::vector<sim::Job*> eligible;
  while (!ctx.reservation().full()) {
    eligible.clear();
    for (sim::Job* job : ctx.queue())
      if (!ctx.is_reserved(job->id)) eligible.push_back(job);
    if (eligible.empty()) break;
    const auto window = truncate_window(eligible, config_.window);
    const std::size_t idx = select(ctx, window);
    const sim::Job* job = window[idx];
    if (ctx.cluster().fits(job->size) && ctx.start_now(job->id)) {
      commit_reward(reward_.step_reward(ctx, *job));
      continue;
    }
    if (ctx.reserve(job->id)) {
      commit_reward(reward_.step_reward(ctx, *job));
      if (ctx.reservation().full()) break;  // paper behaviour at depth 1
      continue;
    }
    // Neither startable nor reservable (e.g. fitting-but-unsafe with a
    // full profile): drop the staged experience and end level 1.
    discard_staged();
    break;
  }

  // --- Level 2: backfilling against the reservation (§III-B). ---
  if (ctx.reservation().active()) {
    while (true) {
      const auto candidates = ctx.backfill_candidates();
      if (candidates.empty()) break;
      const auto window = truncate_window(candidates, config_.window);
      const std::size_t idx = select(ctx, window);
      const sim::Job* job = window[idx];
      const bool ok = ctx.backfill(job->id);
      assert(ok);
      (void)ok;
      commit_reward(reward_.step_reward(ctx, *job));
    }
  }

  maybe_update();
}

}  // namespace dras::core
