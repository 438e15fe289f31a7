// Fairness-aware training determinism (DESIGN.md §12):
// the fairness reward term and the fairness feature rows must not break
// the repo's reproducibility invariants — worker count never changes the
// trained parameters or the resulting Jain index, crash-resume reproduces
// the fairness-shaped run bit-for-bit, and a fairness weight of exactly 0
// trains byte-identical to a config that never mentions fairness.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <optional>
#include <vector>

#include "../ckpt/ckpt_test_util.h"
#include "ckpt/checkpoint.h"
#include "ckpt/manager.h"
#include "core/dras_agent.h"
#include "metrics/fairness.h"
#include "rollout/rollout_pool.h"
#include "sim/simulator.h"
#include "train/trainer.h"
#include "util/binio.h"
#include "workload/synthetic.h"

namespace dras::train {
namespace {

using ckpt::testing::ScratchDirTest;
using ckpt::testing::tiny_agent_config;
using ckpt::testing::tiny_model;

constexpr std::size_t kEpisodes = 6;
constexpr int kNodes = 16;

std::vector<float> params_of(const core::DrasAgent& agent) {
  const auto params = agent.network().parameters();
  return {params.begin(), params.end()};
}

/// tiny_jobsets with a 4-user Zipf mix so the fairness term has users to
/// discriminate between.
std::vector<Jobset> user_jobsets(std::size_t episodes, std::size_t jobs = 40,
                                 std::uint64_t seed = 500) {
  const workload::WorkloadModel model = tiny_model().with_users(4, 1.2);
  std::vector<Jobset> sets;
  for (std::size_t e = 0; e < episodes; ++e) {
    workload::GenerateOptions opt;
    opt.num_jobs = jobs;
    opt.seed = seed + e;
    sets.push_back(Jobset{"set-" + std::to_string(e),
                          JobsetPhase::Synthetic,
                          workload::generate_trace(model, opt)});
  }
  return sets;
}

core::DrasConfig fairness_config(std::uint64_t seed = 21) {
  core::DrasConfig cfg = tiny_agent_config(core::AgentKind::PG, seed);
  cfg.reward_weights.fairness = 0.5;
  cfg.fairness_features = true;
  return cfg;
}

struct FairRun {
  std::vector<float> params;
  double jain = -1.0;
};

/// Train under the fairness config, then greedily evaluate on a held-out
/// user trace and report the service Jain index.
FairRun run_fairness_training(std::size_t workers, std::size_t batch) {
  core::DrasAgent agent(fairness_config());
  Curriculum curriculum(user_jobsets(kEpisodes));
  TrainerOptions options;
  options.validate_each_episode = false;
  Trainer trainer(agent, kNodes, {}, options);
  RunOptions run_options;
  std::optional<rollout::RolloutPool> pool;
  if (workers != 0) {
    rollout::RolloutOptions pool_options;
    pool_options.workers = workers;
    pool_options.batch = batch;
    pool.emplace(pool_options);
    run_options.rollout = &*pool;
  }
  (void)trainer.run(curriculum, run_options);

  FairRun out;
  out.params = params_of(agent);
  agent.set_training(false);
  workload::GenerateOptions opt;
  opt.num_jobs = 60;
  opt.seed = 9000;
  const auto trace =
      workload::generate_trace(tiny_model().with_users(4, 1.2), opt);
  sim::Simulator sim(kNodes);
  out.jain = metrics::fairness_summary(sim.run(trace, agent).jobs)
                 .jain_service;
  return out;
}

TEST(FairnessTraining, WorkerCountNeverChangesParametersOrJain) {
  const FairRun serial = run_fairness_training(0, 0);
  const FairRun one = run_fairness_training(1, 1);
  ASSERT_EQ(serial.params.size(), one.params.size());
  for (std::size_t i = 0; i < serial.params.size(); ++i)
    ASSERT_EQ(serial.params[i], one.params[i]) << "parameter " << i;
  EXPECT_EQ(serial.jain, one.jain);

  // Batched updates differ from per-episode math, but the worker count
  // must never matter: 2 and 8 workers at the same batch agree exactly.
  const FairRun two = run_fairness_training(2, 4);
  const FairRun eight = run_fairness_training(8, 4);
  ASSERT_EQ(two.params.size(), eight.params.size());
  for (std::size_t i = 0; i < two.params.size(); ++i)
    ASSERT_EQ(two.params[i], eight.params[i]) << "parameter " << i;
  EXPECT_EQ(two.jain, eight.jain);
  EXPECT_GT(two.jain, 0.0);
}

TEST(FairnessTraining, WeightZeroIsByteIdenticalToNoFairnessConfig) {
  // A config that never mentions fairness...
  core::DrasAgent plain_agent(tiny_agent_config(core::AgentKind::PG));
  Curriculum plain_curriculum(user_jobsets(kEpisodes));
  TrainerOptions options;
  options.validate_each_episode = false;
  Trainer plain(plain_agent, kNodes, {}, options);
  (void)plain.run(plain_curriculum, RunOptions{});

  // ...must train bit-identically to one with the weight explicitly 0.
  core::DrasConfig zero = tiny_agent_config(core::AgentKind::PG);
  zero.reward_weights.fairness = 0.0;
  core::DrasAgent zero_agent(zero);
  Curriculum zero_curriculum(user_jobsets(kEpisodes));
  Trainer with_zero(zero_agent, kNodes, {}, options);
  (void)with_zero.run(zero_curriculum, RunOptions{});

  const auto expected = params_of(plain_agent);
  const auto actual = params_of(zero_agent);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    ASSERT_EQ(actual[i], expected[i]) << "parameter " << i;
}

TEST(FairnessTraining, FairnessConfigChangesTheCheckpointFingerprint) {
  // A checkpoint from a fairness-free agent restores into an agent whose
  // config spells out fairness = 0 (same fingerprint), but is rejected by
  // agents with a fairness reward or fairness features — restoring it
  // there would silently change what the parameters mean.
  core::DrasAgent plain(tiny_agent_config(core::AgentKind::PG));
  ckpt::TrainingState state;
  state.agent = &plain;
  state.telemetry = false;
  const std::string payload = ckpt::encode_checkpoint(state);

  core::DrasConfig zero = tiny_agent_config(core::AgentKind::PG);
  zero.reward_weights.fairness = 0.0;  // explicit zero == absent
  core::DrasAgent zero_agent(zero);
  ckpt::TrainingState into_zero;
  into_zero.agent = &zero_agent;
  into_zero.telemetry = false;
  EXPECT_NO_THROW(ckpt::decode_checkpoint(payload, into_zero));

  core::DrasConfig shaped = tiny_agent_config(core::AgentKind::PG);
  shaped.reward_weights.fairness = 0.5;
  core::DrasAgent shaped_agent(shaped);
  ckpt::TrainingState into_shaped;
  into_shaped.agent = &shaped_agent;
  into_shaped.telemetry = false;
  EXPECT_THROW(ckpt::decode_checkpoint(payload, into_shaped),
               util::SerializationError);

  core::DrasAgent featured_agent(fairness_config());
  ckpt::TrainingState into_featured;
  into_featured.agent = &featured_agent;
  into_featured.telemetry = false;
  EXPECT_THROW(ckpt::decode_checkpoint(payload, into_featured),
               util::SerializationError);
}

class FairnessResumeTest : public ScratchDirTest {};

TEST_F(FairnessResumeTest, CrashResumeReproducesFairnessRunBitForBit) {
  // Uninterrupted reference under the fairness config.
  std::vector<float> reference;
  {
    core::DrasAgent agent(fairness_config());
    Curriculum curriculum(user_jobsets(kEpisodes));
    TrainerOptions options;
    options.validate_each_episode = false;
    Trainer trainer(agent, kNodes, {}, options);
    (void)trainer.run(curriculum, RunOptions{});
    reference = params_of(agent);
  }

  // Interrupted run: checkpoint every episode, stop after the second.
  std::atomic<bool> stop{false};
  {
    core::DrasAgent agent(fairness_config());
    Curriculum curriculum(user_jobsets(kEpisodes));
    TrainerOptions options;
    options.validate_each_episode = false;
    Trainer trainer(agent, kNodes, {}, options);
    ckpt::CheckpointManagerOptions manager_options;
    manager_options.dir = dir_;
    manager_options.keep_last = 0;
    ckpt::CheckpointManager manager(manager_options);
    RunOptions run_options;
    run_options.checkpoints = &manager;
    run_options.stop = &stop;
    run_options.on_checkpoint = [&stop](std::size_t episode,
                                        const std::filesystem::path&) {
      if (episode >= 2) stop.store(true);
    };
    const auto results = trainer.run(curriculum, run_options);
    ASSERT_EQ(results.size(), 2u);
  }

  // Fresh process resumes and must land on the reference parameters.
  {
    core::DrasAgent agent(fairness_config());
    Curriculum curriculum(user_jobsets(kEpisodes));
    TrainerOptions options;
    options.validate_each_episode = false;
    Trainer trainer(agent, kNodes, {}, options);
    ckpt::CheckpointManagerOptions manager_options;
    manager_options.dir = dir_;
    manager_options.keep_last = 0;
    ckpt::CheckpointManager manager(manager_options);
    ckpt::TrainingState state;
    state.agent = &agent;
    state.trainer = &trainer;
    state.curriculum = &curriculum;
    ASSERT_TRUE(manager.restore_latest(state).has_value());
    ASSERT_EQ(trainer.episodes_done(), 2u);
    RunOptions resume_options;
    resume_options.checkpoints = &manager;
    (void)trainer.run(curriculum, resume_options);

    const auto resumed = params_of(agent);
    ASSERT_EQ(resumed.size(), reference.size());
    for (std::size_t i = 0; i < resumed.size(); ++i)
      ASSERT_EQ(resumed[i], reference[i]) << "parameter " << i;
  }
}

}  // namespace
}  // namespace dras::train
