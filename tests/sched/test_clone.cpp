// clone() contract tests: a clone must evaluate bit-identically to its
// original and must be fully detached (mutating one never affects the
// other).  This is what makes parallel evaluation exact.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/dras_agent.h"
#include "sched/bin_packing.h"
#include "sched/decima_pg.h"
#include "sched/fcfs_easy.h"
#include "sched/knapsack_opt.h"
#include "sched/priority_sched.h"
#include "sched/random_policy.h"
#include "train/evaluator.h"
#include "workload/synthetic.h"

namespace dras::sched {
namespace {

sim::Trace tiny_trace(std::size_t jobs, std::uint64_t seed) {
  workload::WorkloadModel model = workload::theta_mini_workload();
  model.system_nodes = 16;
  model.size_mix = {{1, 0.4}, {2, 0.3}, {4, 0.2}, {8, 0.1}};
  model.min_runtime = 60;
  model.max_runtime = 600;
  workload::GenerateOptions opt;
  opt.num_jobs = jobs;
  opt.seed = seed;
  return workload::generate_trace(model.with_load(0.8), opt);
}

void expect_same_run(sim::Scheduler& original, const sim::Trace& trace) {
  const auto copy = original.clone();
  ASSERT_NE(copy, nullptr) << original.name();
  EXPECT_EQ(copy->name(), original.name());
  const auto a = train::evaluate(16, trace, original);
  const auto b = train::evaluate(16, trace, *copy);
  EXPECT_EQ(a.summary.avg_wait, b.summary.avg_wait) << original.name();
  EXPECT_EQ(a.summary.utilization, b.summary.utilization) << original.name();
  EXPECT_EQ(a.result.makespan, b.result.makespan) << original.name();
  ASSERT_EQ(a.result.jobs.size(), b.result.jobs.size()) << original.name();
  for (std::size_t i = 0; i < a.result.jobs.size(); ++i) {
    EXPECT_EQ(a.result.jobs[i].id, b.result.jobs[i].id);
    EXPECT_EQ(a.result.jobs[i].start, b.result.jobs[i].start);
    EXPECT_EQ(a.result.jobs[i].end, b.result.jobs[i].end);
  }
}

TEST(Clone, HeuristicsEvaluateIdentically) {
  const auto trace = tiny_trace(60, 1);
  FcfsEasy fcfs;
  expect_same_run(fcfs, trace);
  BinPacking packing;
  expect_same_run(packing, trace);
  RandomPolicy random(17);
  expect_same_run(random, trace);
  KnapsackOpt knapsack{core::RewardFunction(core::RewardKind::Capability)};
  expect_same_run(knapsack, trace);
  auto sjf = make_sjf();
  expect_same_run(sjf, trace);
  auto f1 = make_f1();
  expect_same_run(f1, trace);
}

TEST(Clone, RandomPolicyCloneIdenticalAfterPriorRun) {
  // A previous run leaves the RNG advanced; the clone copies that
  // position (begin_episode re-seeds both identically either way).
  RandomPolicy original(5);
  const auto trace = tiny_trace(30, 2);
  (void)train::evaluate(16, trace, original);
  expect_same_run(original, trace);
}

TEST(Clone, DecimaPGCloneCarriesLearnedState) {
  core::DrasConfig config;
  config.total_nodes = 16;
  config.window = 4;
  config.fc1 = 16;
  config.fc2 = 8;
  config.time_scale = 10000.0;
  config.seed = 31;
  DecimaPG original(config);
  original.set_training(true);
  const auto trace = tiny_trace(50, 3);
  (void)train::evaluate(16, trace, original);  // parameters moved
  original.set_training(false);
  expect_same_run(original, trace);
}

core::DrasConfig tiny_agent_config(core::AgentKind kind) {
  core::DrasConfig cfg;
  cfg.kind = kind;
  cfg.total_nodes = 16;
  cfg.window = 4;
  cfg.fc1 = 16;
  cfg.fc2 = 8;
  cfg.time_scale = 10000.0;
  cfg.seed = 77;
  return cfg;
}

TEST(Clone, DrasAgentCloneIsExactAfterTraining) {
  for (const auto kind : {core::AgentKind::PG, core::AgentKind::DQL}) {
    core::DrasAgent original(tiny_agent_config(kind));
    original.set_training(true);
    const auto trace = tiny_trace(60, 4);
    (void)train::evaluate(16, trace, original);  // learn something first
    original.set_training(false);
    expect_same_run(original, trace);
  }
}

TEST(Clone, DrasAgentCloneMatchesUnderContinualAdaptation) {
  // §V-D mode: training stays enabled during evaluation.  The clone must
  // reproduce the original's run exactly — this requires copying the
  // optimiser moments, epsilon schedule and update cadence, not just the
  // network parameters.
  core::DrasAgent original(tiny_agent_config(core::AgentKind::DQL));
  original.set_training(true);
  const auto warmup = tiny_trace(40, 5);
  (void)train::evaluate(16, warmup, original);  // mid-schedule epsilon

  const auto copy = original.clone_agent();
  EXPECT_TRUE(copy->training());
  EXPECT_EQ(copy->epsilon(), original.epsilon());
  const auto trace = tiny_trace(60, 6);
  const auto a = train::evaluate(16, trace, original);
  const auto b = train::evaluate(16, trace, *copy);
  EXPECT_EQ(a.summary.avg_wait, b.summary.avg_wait);
  EXPECT_EQ(a.result.makespan, b.result.makespan);
  EXPECT_EQ(original.epsilon(), copy->epsilon());  // same decay applied
}

TEST(Clone, DrasAgentCloneIsDetached) {
  core::DrasAgent original(tiny_agent_config(core::AgentKind::PG));
  original.set_training(false);
  const auto copy = original.clone_agent();
  copy->set_training(true);
  const auto trace = tiny_trace(60, 7);
  (void)train::evaluate(16, trace, *copy);  // trains the clone only
  // The original's parameters are untouched.
  const auto& a = original.network().parameters();
  core::DrasAgent fresh(tiny_agent_config(core::AgentKind::PG));
  const auto& b = fresh.network().parameters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  EXPECT_FALSE(original.training());  // clone's flag flip didn't leak
}

TEST(Clone, BaseDefaultIsNotCloneable) {
  struct Minimal final : sim::Scheduler {
    [[nodiscard]] std::string_view name() const override { return "Min"; }
    void schedule(sim::SchedulingContext&) override {}
  };
  Minimal minimal;
  EXPECT_EQ(minimal.clone(), nullptr);
}

}  // namespace
}  // namespace dras::sched
