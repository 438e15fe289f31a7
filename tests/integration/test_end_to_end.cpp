// Integration tests: the full pipeline — workload model → curriculum →
// training → evaluation — plus the paper's headline qualitative claims on
// small, fast configurations.
#include <gtest/gtest.h>

#include <map>

#include "core/dras_agent.h"
#include "core/presets.h"
#include "nn/serialize.h"
#include "sched/bin_packing.h"
#include "sched/decima_pg.h"
#include "sched/fcfs_easy.h"
#include "sched/knapsack_opt.h"
#include "sched/random_policy.h"
#include "train/curriculum.h"
#include "train/evaluator.h"
#include "train/trainer.h"
#include "workload/jobset.h"
#include "workload/synthetic.h"

namespace dras {
namespace {

// A compact capability system for fast integration runs.
workload::WorkloadModel small_capability_model() {
  workload::WorkloadModel m = workload::theta_mini_workload();
  m.system_nodes = 64;
  m.size_mix = {{2, 0.40}, {4, 0.22}, {8, 0.14},
                {16, 0.12}, {32, 0.08}, {64, 0.04}};
  m.min_runtime = 120;
  m.max_runtime = 3600;
  return m.with_load(0.85);
}

core::DrasConfig agent_config(core::AgentKind kind, int nodes) {
  core::DrasConfig cfg;
  cfg.kind = kind;
  cfg.total_nodes = nodes;
  cfg.window = 6;
  cfg.fc1 = 32;
  cfg.fc2 = 16;
  cfg.time_scale = 3600.0;
  cfg.reward_kind = core::RewardKind::Capability;
  cfg.seed = 77;
  return cfg;
}

sim::Trace make_trace(const workload::WorkloadModel& model,
                      std::size_t jobs, std::uint64_t seed) {
  workload::GenerateOptions opt;
  opt.num_jobs = jobs;
  opt.seed = seed;
  return workload::generate_trace(model, opt);
}

TEST(EndToEnd, FullTrainingPipelineRuns) {
  const auto model = small_capability_model();
  const auto real = make_trace(model, 400, workload::kRealTraceSeed);

  train::CurriculumOptions curriculum_options;
  curriculum_options.sampled_sets = 1;
  curriculum_options.real_sets = 1;
  curriculum_options.synthetic_sets = 1;
  curriculum_options.jobs_per_set = 120;
  curriculum_options.seed = 5;
  train::Curriculum curriculum(
      train::build_curriculum(model, real, curriculum_options));

  core::DrasAgent agent(agent_config(core::AgentKind::PG, model.system_nodes));
  train::Trainer trainer(agent, model.system_nodes,
                         make_trace(model, 80, 1234));
  const auto results = trainer.run(curriculum, {});
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    EXPECT_EQ(r.validation_summary.jobs, 80u);
    EXPECT_GT(r.validation_summary.utilization, 0.0);
  }
}

TEST(EndToEnd, AllSevenMethodsCompleteTheSameWorkload) {
  const auto model = small_capability_model();
  const auto trace = make_trace(model, 250, 99);
  const core::RewardFunction reward(core::RewardKind::Capability);

  sched::FcfsEasy fcfs;
  sched::BinPacking binpacking;
  sched::RandomPolicy random(3);
  sched::KnapsackOpt optimization(reward);
  core::DrasConfig decima_cfg;
  decima_cfg.total_nodes = model.system_nodes;
  decima_cfg.window = 6;
  decima_cfg.fc1 = 32;
  decima_cfg.fc2 = 16;
  decima_cfg.time_scale = 3600.0;
  decima_cfg.seed = 7;
  sched::DecimaPG decima(decima_cfg);
  core::DrasAgent dras_pg(agent_config(core::AgentKind::PG,
                                       model.system_nodes));
  core::DrasAgent dras_dql(agent_config(core::AgentKind::DQL,
                                        model.system_nodes));

  const std::vector<sim::Scheduler*> methods = {
      &fcfs, &binpacking, &random, &optimization,
      &decima, &dras_pg, &dras_dql};
  for (sim::Scheduler* method : methods) {
    const auto evaluation =
        train::evaluate(model.system_nodes, trace, *method, &reward);
    EXPECT_EQ(evaluation.result.unfinished_jobs, 0u)
        << evaluation.method << " left jobs unscheduled";
    EXPECT_EQ(evaluation.summary.jobs, trace.size()) << evaluation.method;
    EXPECT_GT(evaluation.summary.utilization, 0.0) << evaluation.method;
  }
}

TEST(EndToEnd, ReservationPoliciesBoundLargeJobWaits) {
  // Fig. 7's core claim, in miniature: whole-machine jobs starve under a
  // no-reservation policy (Random, like the paper's worst offenders)
  // because the machine almost never drains completely, while the
  // reservation-equipped policies (FCFS, DRAS) bound their waits.
  const auto model = small_capability_model();
  const auto trace = make_trace(model, 600, 17);

  const auto max_wait_of_largest = [&](sim::Scheduler& policy) {
    const auto evaluation =
        train::evaluate(model.system_nodes, trace, policy);
    double max_wait = 0.0;
    for (const auto& rec : evaluation.result.jobs)
      if (rec.size >= model.system_nodes)  // whole-machine jobs
        max_wait = std::max(max_wait, rec.wait());
    return max_wait;
  };

  sched::FcfsEasy fcfs;
  sched::RandomPolicy random(3);
  // The paper evaluates *trained* agents; train DRAS-PG on a short
  // curriculum before freezing it for the comparison.
  core::DrasAgent dras(agent_config(core::AgentKind::PG,
                                    model.system_nodes));
  {
    train::TrainerOptions options;
    options.validate_each_episode = false;
    train::Trainer trainer(dras, model.system_nodes, {}, options);
    for (int episode = 0; episode < 6; ++episode)
      (void)trainer.run_episode(train::Jobset{
          "warmup", train::JobsetPhase::Sampled,
          make_trace(model, 250, 100 + episode)});
    dras.set_training(false);
  }
  const double fcfs_wait = max_wait_of_largest(fcfs);
  const double random_wait = max_wait_of_largest(random);
  const double dras_wait = max_wait_of_largest(dras);

  EXPECT_GT(random_wait, 1.5 * fcfs_wait);
  EXPECT_GT(random_wait, dras_wait);
}

TEST(EndToEnd, DrasModesMatchTableIVPattern) {
  // Table IV: with DRAS most jobs backfill, but reserved jobs dominate
  // core-hours on a capability workload... at minimum, all three modes
  // appear and reserved core-hours exceed reserved job share.
  const auto model = small_capability_model();
  const auto trace = make_trace(model, 400, 23);
  core::DrasAgent dras(agent_config(core::AgentKind::PG,
                                    model.system_nodes));
  const auto evaluation = train::evaluate(model.system_nodes, trace, dras);
  const auto shares = metrics::mode_shares(evaluation.result.jobs);
  ASSERT_EQ(shares.size(), 3u);
  const auto& backfilled = shares[0];
  const auto& reserved = shares[2];
  EXPECT_GT(backfilled.job_fraction, 0.0);
  EXPECT_GT(reserved.core_hour_fraction, reserved.job_fraction);
}

TEST(EndToEnd, SnapshotRestoreReproducesBehaviour) {
  // Save a trained agent, load it into a fresh one, verify identical
  // greedy scheduling decisions.
  const auto model = small_capability_model();
  const auto train_trace = make_trace(model, 150, 29);
  const auto test_trace = make_trace(model, 100, 31);

  core::DrasAgent trained(agent_config(core::AgentKind::PG,
                                       model.system_nodes));
  (void)train::evaluate(model.system_nodes, train_trace, trained);

  const auto path = std::filesystem::temp_directory_path() /
                    "dras_integration_snapshot.bin";
  nn::save_network_file(path, trained.network());

  core::DrasAgent restored(agent_config(core::AgentKind::PG,
                                        model.system_nodes));
  {
    const auto loaded = nn::load_network_file(path);
    const auto src = loaded.parameters();
    const auto dst = restored.network().parameters();
    ASSERT_EQ(src.size(), dst.size());
    std::copy(src.begin(), src.end(), dst.begin());
  }
  std::filesystem::remove(path);

  trained.set_training(false);
  restored.set_training(false);
  const auto a = train::evaluate(model.system_nodes, test_trace, trained);
  const auto b = train::evaluate(model.system_nodes, test_trace, restored);
  EXPECT_DOUBLE_EQ(a.summary.avg_wait, b.summary.avg_wait);
  EXPECT_DOUBLE_EQ(a.summary.utilization, b.summary.utilization);
}

TEST(EndToEnd, CapacityWorkloadRunsUnderCapacityReward) {
  workload::WorkloadModel model = workload::cori_mini_workload();
  model.system_nodes = 64;
  model.size_mix = {{1, 0.5}, {2, 0.2}, {4, 0.15}, {8, 0.1}, {32, 0.05}};
  model.max_runtime = 7200;
  model = model.with_load(0.8);
  const auto trace = make_trace(model, 300, 41);

  core::DrasConfig cfg = agent_config(core::AgentKind::DQL, 64);
  cfg.reward_kind = core::RewardKind::Capacity;
  core::DrasAgent agent(cfg);
  const core::RewardFunction reward(core::RewardKind::Capacity);
  const auto evaluation = train::evaluate(64, trace, agent, &reward);
  EXPECT_EQ(evaluation.result.unfinished_jobs, 0u);
  // Eq. 2 rewards are non-positive by construction.
  EXPECT_LE(evaluation.total_reward, 0.0);
}

}  // namespace
}  // namespace dras
