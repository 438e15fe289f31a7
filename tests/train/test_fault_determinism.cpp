// Failure-aware training determinism (ISSUE acceptance criteria):
// fault-injected training is byte-identical across the legacy serial
// loop and any rollout worker count (the per-episode failure stream is
// derived from the global episode index, not from who simulates it); a
// zero-MTBF config trains byte-identical to no fault config at all;
// committed rounds merge their fault statistics into the run scenario;
// and crash-resume under faults reproduces both the parameters and the
// cumulative waste accounting bit-for-bit (the "FALT" section).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <optional>
#include <vector>

#include "../ckpt/ckpt_test_util.h"
#include "ckpt/manager.h"
#include "core/dras_agent.h"
#include "rollout/rollout_pool.h"
#include "sim/fault.h"
#include "train/trainer.h"

namespace dras::train {
namespace {

using ckpt::testing::ScratchDirTest;
using ckpt::testing::tiny_agent_config;
using ckpt::testing::tiny_jobsets;

constexpr std::size_t kEpisodes = 8;
constexpr int kNodes = 16;

std::vector<float> params_of(const core::DrasAgent& agent) {
  const auto params = agent.network().parameters();
  return {params.begin(), params.end()};
}

TrainerOptions trainer_options(const sim::FaultConfig* faults = nullptr) {
  TrainerOptions options;
  options.validate_each_episode = false;
  if (faults != nullptr) options.faults = *faults;
  return options;
}

/// Heavy enough that every episode sees failures on the 16-node tiny
/// machine; hourly-equivalent checkpoints keep progress durable so every
/// jobset still completes.
sim::FaultConfig test_faults() {
  sim::FaultConfig config;
  config.mtbf = 800.0;
  config.repair_time = 60.0;
  config.ckpt_interval = 120.0;
  config.ckpt_seconds_per_node = 1.0;
  config.seed = 5;
  return config;
}

struct FaultRun {
  std::vector<float> params;
  sim::FaultStats stats;
  std::vector<EpisodeResult> results;
};

/// Train a fresh tiny agent under `faults`, set on the trainer alone;
/// workers == 0 takes the legacy serial loop, otherwise a rollout pool
/// built from `workers` and `batch` drives the episodes.
FaultRun run_fault_training(core::AgentKind kind,
                            const sim::FaultConfig& faults,
                            std::size_t workers, std::size_t batch) {
  core::DrasAgent agent(tiny_agent_config(kind));
  Curriculum curriculum(tiny_jobsets(kEpisodes));
  Trainer trainer(agent, kNodes, {}, trainer_options(&faults));
  RunOptions run_options;
  sim::FaultScenario scenario;
  scenario.config = faults;
  run_options.fault_scenario = &scenario;
  std::optional<rollout::RolloutPool> pool;
  if (workers != 0) {
    rollout::RolloutOptions pool_options;
    pool_options.workers = workers;
    pool_options.batch = batch;
    pool.emplace(pool_options);
    run_options.rollout = &*pool;
  }
  FaultRun out;
  out.results = trainer.run(curriculum, run_options);
  out.params = params_of(agent);
  out.stats = scenario.stats;
  return out;
}

void expect_identical(const FaultRun& a, const FaultRun& b) {
  ASSERT_EQ(a.params.size(), b.params.size());
  for (std::size_t i = 0; i < a.params.size(); ++i)
    ASSERT_EQ(a.params[i], b.params[i]) << "parameter " << i;
  EXPECT_EQ(a.stats, b.stats);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].training_reward, b.results[i].training_reward);
    EXPECT_EQ(a.results[i].loss, b.results[i].loss);
    EXPECT_EQ(a.results[i].faults, b.results[i].faults);
  }
}

TEST(FaultTraining, EpisodesActuallySeeFailures) {
  const FaultRun run =
      run_fault_training(core::AgentKind::PG, test_faults(), 0, 0);
  EXPECT_GT(run.stats.node_failures, 0u);
  EXPECT_GT(run.stats.checkpoints, 0u);
  // The run scenario holds exactly the sum of the committed episodes.
  sim::FaultStats summed;
  for (const auto& result : run.results) summed.merge(result.faults);
  EXPECT_EQ(run.stats, summed);
}

TEST(FaultTraining, WorkerCountNeverChangesResultsPG) {
  const auto faults = test_faults();
  const FaultRun serial =
      run_fault_training(core::AgentKind::PG, faults, 0, 0);
  const FaultRun one = run_fault_training(core::AgentKind::PG, faults, 1, 1);
  const FaultRun four =
      run_fault_training(core::AgentKind::PG, faults, 4, 4);
  expect_identical(serial, one);
  // Batched updates differ from per-episode math, but worker count never
  // matters: 1 and 4 workers at the same batch must agree exactly.
  const FaultRun batched_one =
      run_fault_training(core::AgentKind::PG, faults, 1, 4);
  expect_identical(batched_one, four);
}

TEST(FaultTraining, WorkerCountNeverChangesResultsDQL) {
  const auto faults = test_faults();
  const FaultRun one =
      run_fault_training(core::AgentKind::DQL, faults, 1, 4);
  const FaultRun four =
      run_fault_training(core::AgentKind::DQL, faults, 4, 4);
  expect_identical(one, four);
}

TEST(FaultTraining, RolloutRoundsTrainUnderTheTrainersFaults) {
  // TrainerOptions::faults is the run's one fault config: a pool built
  // from workers and batch alone still trains every round under it.
  const auto faults = test_faults();
  const FaultRun two = run_fault_training(core::AgentKind::PG, faults, 2, 4);
  const FaultRun four =
      run_fault_training(core::AgentKind::PG, faults, 4, 4);
  EXPECT_GT(two.stats.node_failures, 0u);
  EXPECT_GT(two.stats.checkpoints, 0u);
  expect_identical(two, four);
}

TEST(FaultTraining, ZeroMtbfIsByteIdenticalToNoFaultConfig) {
  // --mtbf 0: a disabled config must leave training untouched, not just
  // statistically similar.
  core::DrasAgent plain_agent(tiny_agent_config(core::AgentKind::PG));
  Curriculum plain_curriculum(tiny_jobsets(kEpisodes));
  Trainer plain(plain_agent, kNodes, {}, trainer_options());
  (void)plain.run(plain_curriculum, RunOptions{});

  sim::FaultConfig disabled;
  disabled.seed = 31337;  // a seed alone must not enable anything
  const FaultRun configured =
      run_fault_training(core::AgentKind::PG, disabled, 0, 0);

  EXPECT_EQ(configured.stats, sim::FaultStats{});
  const auto expected = params_of(plain_agent);
  ASSERT_EQ(configured.params.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    ASSERT_EQ(configured.params[i], expected[i]) << "parameter " << i;
}

class FaultResumeTest : public ScratchDirTest {};

TEST_F(FaultResumeTest, CrashResumeUnderFaultsIsBitIdentical) {
  const auto faults = test_faults();

  // Uninterrupted reference.
  const FaultRun reference =
      run_fault_training(core::AgentKind::PG, faults, 0, 0);

  // Interrupted run: checkpoint every episode, stop after the second.
  std::atomic<bool> stop{false};
  {
    core::DrasAgent agent(tiny_agent_config(core::AgentKind::PG));
    Curriculum curriculum(tiny_jobsets(kEpisodes));
    Trainer trainer(agent, kNodes, {}, trainer_options(&faults));
    ckpt::CheckpointManagerOptions manager_options;
    manager_options.dir = dir_;
    manager_options.keep_last = 0;
    ckpt::CheckpointManager manager(manager_options);
    sim::FaultScenario scenario;
    scenario.config = faults;
    RunOptions run_options;
    run_options.checkpoints = &manager;
    run_options.fault_scenario = &scenario;
    run_options.stop = &stop;
    run_options.on_checkpoint = [&stop](std::size_t episode,
                                        const std::filesystem::path&) {
      if (episode >= 2) stop.store(true);
    };
    const auto results = trainer.run(curriculum, run_options);
    ASSERT_EQ(results.size(), 2u);
    ASSERT_GT(scenario.stats.node_failures, 0u);
  }

  // "Fresh process": a new scenario restores its stats from the "FALT"
  // section, training continues through the same derived fault streams.
  {
    core::DrasAgent agent(tiny_agent_config(core::AgentKind::PG));
    Curriculum curriculum(tiny_jobsets(kEpisodes));
    Trainer trainer(agent, kNodes, {}, trainer_options(&faults));
    ckpt::CheckpointManagerOptions manager_options;
    manager_options.dir = dir_;
    manager_options.keep_last = 0;
    ckpt::CheckpointManager manager(manager_options);
    sim::FaultScenario scenario;
    scenario.config = faults;
    ckpt::TrainingState state;
    state.agent = &agent;
    state.trainer = &trainer;
    state.curriculum = &curriculum;
    state.faults = &scenario;
    ASSERT_TRUE(manager.restore_latest(state).has_value());
    ASSERT_EQ(trainer.episodes_done(), 2u);
    ASSERT_GT(scenario.stats.node_failures, 0u);

    RunOptions run_options;
    run_options.checkpoints = &manager;
    run_options.fault_scenario = &scenario;
    const auto results = trainer.run(curriculum, run_options);
    EXPECT_EQ(results.size(), kEpisodes - 2);

    const auto resumed = params_of(agent);
    ASSERT_EQ(resumed.size(), reference.params.size());
    for (std::size_t i = 0; i < resumed.size(); ++i)
      ASSERT_EQ(resumed[i], reference.params[i]) << "parameter " << i;
    // Waste accounting survives the crash: totals equal the
    // uninterrupted run's, not just the post-resume episodes'.
    EXPECT_EQ(scenario.stats, reference.stats);
  }
}

}  // namespace
}  // namespace dras::train
