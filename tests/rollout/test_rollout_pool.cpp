// Data-parallel rollout engine (ISSUE acceptance criteria): post-update
// parameters are byte-identical for any worker count at a fixed batch; a
// pool with batch 1 routes through the legacy per-episode path
// byte-identical to no pool at all; telemetry shards merge to the same
// registry totals regardless of worker count; guarded rollout training
// recovers from injected faults through the existing rollback machinery;
// and checkpoint-resume at a round boundary reproduces the uninterrupted
// run bit-for-bit.
#include "rollout/rollout_pool.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <optional>
#include <vector>

#include "../ckpt/ckpt_test_util.h"
#include "ckpt/fault.h"
#include "ckpt/manager.h"
#include "obs/metrics.h"
#include "robust/health.h"
#include "robust/recovery.h"
#include "train/trainer.h"

namespace dras::rollout {
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

train::TrainerOptions trainer_options() {
  train::TrainerOptions options;
  options.validate_each_episode = false;
  return options;
}

struct RunOutput {
  std::vector<float> params;
  std::vector<train::EpisodeResult> results;
  double epsilon = 0.0;
  std::size_t instances = 0;
};

/// Train a fresh tiny agent over the standard jobsets through a pool
/// with the given knobs; `workers`/`batch` 0,0 means no pool (legacy).
RunOutput run_training(core::AgentKind kind, std::size_t workers,
                       std::size_t batch) {
  core::DrasAgent agent(tiny_agent_config(kind));
  train::Curriculum curriculum(tiny_jobsets(kEpisodes));
  train::Trainer trainer(agent, kNodes, {}, trainer_options());
  train::RunOptions run_options;
  std::optional<RolloutPool> pool;
  if (workers != 0) {
    pool.emplace(RolloutOptions{workers, batch, nullptr, {}});
    run_options.rollout = &*pool;
  }
  RunOutput out;
  out.results = trainer.run(curriculum, run_options);
  out.params = params_of(agent);
  out.epsilon = agent.epsilon();
  out.instances = agent.instances_seen();
  return out;
}

void expect_identical(const RunOutput& a, const RunOutput& b) {
  ASSERT_EQ(a.params.size(), b.params.size());
  for (std::size_t i = 0; i < a.params.size(); ++i)
    ASSERT_EQ(a.params[i], b.params[i]) << "parameter " << i;
  EXPECT_EQ(a.epsilon, b.epsilon);
  EXPECT_EQ(a.instances, b.instances);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].episode, b.results[i].episode);
    EXPECT_EQ(a.results[i].jobset, b.results[i].jobset);
    EXPECT_EQ(a.results[i].training_reward, b.results[i].training_reward);
    EXPECT_EQ(a.results[i].loss, b.results[i].loss);
    EXPECT_EQ(a.results[i].grad_norm, b.results[i].grad_norm);
    EXPECT_EQ(a.results[i].epsilon, b.results[i].epsilon);
  }
}

TEST(RolloutPoolTest, ResolvesWorkerAndBatchDefaults) {
  RolloutPool pool(RolloutOptions{4, 0, nullptr, {}});
  EXPECT_EQ(pool.workers(), 4u);
  EXPECT_EQ(pool.batch(), 4u);  // batch 0 = resolved worker count
  RolloutPool pinned(RolloutOptions{2, 8, nullptr, {}});
  EXPECT_EQ(pinned.workers(), 2u);
  EXPECT_EQ(pinned.batch(), 8u);
}

TEST(RolloutPoolTest, BatchOneIsByteIdenticalToLegacyLoopPG) {
  const RunOutput legacy = run_training(core::AgentKind::PG, 0, 0);
  const RunOutput pooled = run_training(core::AgentKind::PG, 1, 1);
  expect_identical(legacy, pooled);
}

TEST(RolloutPoolTest, BatchOneIsByteIdenticalToLegacyLoopDQL) {
  const RunOutput legacy = run_training(core::AgentKind::DQL, 0, 0);
  const RunOutput pooled = run_training(core::AgentKind::DQL, 1, 1);
  expect_identical(legacy, pooled);
}

TEST(RolloutPoolTest, WorkerCountNeverChangesResultsPG) {
  const RunOutput one = run_training(core::AgentKind::PG, 1, 4);
  const RunOutput two = run_training(core::AgentKind::PG, 2, 4);
  const RunOutput eight = run_training(core::AgentKind::PG, 8, 4);
  expect_identical(one, two);
  expect_identical(one, eight);
}

TEST(RolloutPoolTest, WorkerCountNeverChangesResultsDQL) {
  const RunOutput one = run_training(core::AgentKind::DQL, 1, 4);
  const RunOutput eight = run_training(core::AgentKind::DQL, 8, 4);
  expect_identical(one, eight);
}

TEST(RolloutPoolTest, RoundResultsComeBackInSlotOrder) {
  core::DrasAgent agent(tiny_agent_config(core::AgentKind::PG));
  const auto jobsets = tiny_jobsets(4);
  RolloutPool pool(RolloutOptions{2, 4, nullptr, {}});
  const RoundResult round = pool.collect(agent, kNodes, jobsets, 10);
  ASSERT_EQ(round.episodes.size(), 4u);
  for (std::size_t i = 0; i < round.episodes.size(); ++i) {
    EXPECT_EQ(round.episodes[i].episode, 10 + i);
    EXPECT_EQ(round.episodes[i].jobset, jobsets[i].name);
  }
  EXPECT_GT(round.updates, 0u);
  EXPECT_GT(round.instances, 0u);
  EXPECT_EQ(agent.instances_seen(), round.instances);
}

TEST(RolloutPoolTest, EmptySlotSpanLeavesAgentUntouched) {
  core::DrasAgent agent(tiny_agent_config(core::AgentKind::PG));
  const std::vector<float> before = params_of(agent);
  RolloutPool pool(RolloutOptions{2, 4, nullptr, {}});
  const RoundResult round =
      pool.collect(agent, kNodes, std::span<const train::Jobset>{}, 0);
  EXPECT_TRUE(round.episodes.empty());
  EXPECT_EQ(round.updates, 0u);
  EXPECT_EQ(params_of(agent), before);
}

class RolloutObsTest : public ::testing::Test {
 protected:
  void TearDown() override { obs::set_enabled(false); }
};

TEST_F(RolloutObsTest, ShardedCountersMergeToSameTotalsAsSerial) {
  obs::set_enabled(true);
  auto& registry = obs::Registry::global();
  auto& submitted = registry.counter("sim.jobs.submitted");
  auto& instances = registry.counter("sim.scheduling_instances");
  auto& rounds = registry.counter("rollout.rounds");

  const auto jobsets = tiny_jobsets(4);
  const auto measure = [&](std::size_t workers) {
    core::DrasAgent agent(tiny_agent_config(core::AgentKind::PG));
    RolloutPool pool(RolloutOptions{workers, 4, nullptr, {}});
    const std::uint64_t submitted_before = submitted.value();
    const std::uint64_t instances_before = instances.value();
    const std::uint64_t rounds_before = rounds.value();
    (void)pool.collect(agent, kNodes, jobsets, 0);
    return std::array<std::uint64_t, 3>{
        submitted.value() - submitted_before,
        instances.value() - instances_before,
        rounds.value() - rounds_before};
  };

  const auto serial = measure(1);
  const auto parallel = measure(4);
  EXPECT_GT(serial[0], 0u);  // every slot's jobs actually landed
  EXPECT_GT(serial[1], 0u);
  EXPECT_EQ(serial[0], parallel[0]);
  EXPECT_EQ(serial[1], parallel[1]);
  EXPECT_EQ(serial[2], 1u);
  EXPECT_EQ(parallel[2], 1u);
}

class RolloutRecoveryTest : public ScratchDirTest {};

TEST_F(RolloutRecoveryTest, GuardedRolloutRecoversFromInjectedFault) {
  // Same drill as tests/robust, but the episodes arrive in parallel
  // rounds: the fault trips at a round boundary, the whole round rolls
  // back, and the retried round diverges from the poisoned one because
  // the recovery nonce reseeds every slot stream.  The run must be
  // byte-identical at workers 1 and 4 even through the rollback.
  const auto guarded_run = [&](std::size_t workers,
                               const std::filesystem::path& dir) {
    std::filesystem::create_directories(dir);
    core::DrasAgent agent(tiny_agent_config(core::AgentKind::PG));
    train::Curriculum curriculum(tiny_jobsets(kEpisodes));
    train::Trainer trainer(agent, kNodes, {}, trainer_options());
    ckpt::CheckpointManagerOptions manager_options;
    manager_options.dir = dir;
    manager_options.every = 1;
    manager_options.keep_last = 0;
    ckpt::CheckpointManager manager(manager_options);
    robust::HealthMonitor health;
    robust::RecoveryOptions recovery_options;
    recovery_options.max_rollbacks = 3;
    recovery_options.lr_backoff = 0.5;
    robust::RecoveryPolicy recovery(recovery_options, manager);
    RolloutPool pool(RolloutOptions{workers, 4, nullptr, {}});
    train::RunOptions run_options;
    run_options.rollout = &pool;
    run_options.checkpoints = &manager;
    run_options.health = &health;
    run_options.recovery = &recovery;
    run_options.sabotage = [fired = false](
                               core::DrasAgent& sabotaged,
                               train::EpisodeResult& result) mutable {
      if (fired || result.episode != 1) return;
      fired = true;
      robust::apply_numeric_fault(ckpt::NumericFault::LossSpike, sabotaged,
                                  result);
    };

    const auto results = trainer.run(curriculum, run_options);
    EXPECT_EQ(results.size(), kEpisodes);
    EXPECT_EQ(recovery.attempts(), 1u);
    EXPECT_EQ(recovery.state().rollbacks, 1u);
    EXPECT_DOUBLE_EQ(agent.optimizer().lr_scale(), 0.5);
    EXPECT_EQ(agent.rng_nonce(), 1u);
    EXPECT_EQ(agent.network().non_finite_parameters(), 0u);
    return params_of(agent);
  };

  const auto serial = guarded_run(1, dir_ / "w1");
  const auto parallel = guarded_run(4, dir_ / "w4");
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(serial[i], parallel[i]) << "parameter " << i;
}

TEST_F(RolloutRecoveryTest, ResumeAtRoundBoundaryIsBitIdentical) {
  constexpr std::size_t kBatch = 2;
  const auto make_pool = [] {
    return RolloutPool(RolloutOptions{2, kBatch, nullptr, {}});
  };

  // Uninterrupted reference run.
  std::vector<float> reference;
  {
    core::DrasAgent agent(tiny_agent_config(core::AgentKind::PG));
    train::Curriculum curriculum(tiny_jobsets(kEpisodes));
    train::Trainer trainer(agent, kNodes, {}, trainer_options());
    RolloutPool pool = make_pool();
    train::RunOptions run_options;
    run_options.rollout = &pool;
    (void)trainer.run(curriculum, run_options);
    reference = params_of(agent);
  }

  // Interrupted run: stop at the first checkpoint (one round done).
  std::atomic<bool> stop{false};
  {
    core::DrasAgent agent(tiny_agent_config(core::AgentKind::PG));
    train::Curriculum curriculum(tiny_jobsets(kEpisodes));
    train::Trainer trainer(agent, kNodes, {}, trainer_options());
    ckpt::CheckpointManagerOptions manager_options;
    manager_options.dir = dir_;
    manager_options.every = kBatch;  // every round boundary
    manager_options.keep_last = 0;
    ckpt::CheckpointManager manager(manager_options);
    RolloutPool pool = make_pool();
    train::RunOptions run_options;
    run_options.rollout = &pool;
    run_options.checkpoints = &manager;
    run_options.stop = &stop;
    run_options.on_checkpoint = [&stop](std::size_t,
                                        const std::filesystem::path&) {
      stop.store(true);
    };
    const auto results = trainer.run(curriculum, run_options);
    ASSERT_EQ(results.size(), kBatch);  // exactly one round survived
  }

  // "Fresh process": restore, then finish the curriculum.
  {
    core::DrasAgent agent(tiny_agent_config(core::AgentKind::PG));
    train::Curriculum curriculum(tiny_jobsets(kEpisodes));
    train::Trainer trainer(agent, kNodes, {}, trainer_options());
    ckpt::CheckpointManagerOptions manager_options;
    manager_options.dir = dir_;
    manager_options.every = kBatch;
    manager_options.keep_last = 0;
    ckpt::CheckpointManager manager(manager_options);
    ckpt::TrainingState state;
    state.agent = &agent;
    state.trainer = &trainer;
    state.curriculum = &curriculum;
    ASSERT_TRUE(manager.restore_latest(state).has_value());
    ASSERT_EQ(trainer.episodes_done(), kBatch);
    ASSERT_EQ(curriculum.position(), kBatch);

    RolloutPool pool = make_pool();
    train::RunOptions run_options;
    run_options.rollout = &pool;
    run_options.checkpoints = &manager;
    const auto results = trainer.run(curriculum, run_options);
    EXPECT_EQ(results.size(), kEpisodes - kBatch);
    EXPECT_EQ(trainer.episodes_done(), kEpisodes);

    const std::vector<float> resumed = params_of(agent);
    ASSERT_EQ(resumed.size(), reference.size());
    for (std::size_t i = 0; i < resumed.size(); ++i)
      ASSERT_EQ(resumed[i], reference[i]) << "parameter " << i;
  }
}

}  // namespace
}  // namespace dras::rollout
