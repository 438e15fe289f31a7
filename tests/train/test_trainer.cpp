#include "train/trainer.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <sstream>

#include "obs/sink.h"
#include "obs/trace.h"
#include "sched/fcfs_easy.h"
#include "train/evaluator.h"
#include "util/json.h"
#include "workload/synthetic.h"

namespace dras::train {
namespace {

core::DrasConfig tiny_agent_config(core::AgentKind kind) {
  core::DrasConfig cfg;
  cfg.kind = kind;
  cfg.total_nodes = 16;
  cfg.window = 4;
  cfg.fc1 = 16;
  cfg.fc2 = 8;
  cfg.time_scale = 10000.0;
  cfg.reward_kind = core::RewardKind::Capability;
  cfg.seed = 21;
  return cfg;
}

workload::WorkloadModel tiny_model() {
  workload::WorkloadModel m = workload::theta_mini_workload();
  m.system_nodes = 16;
  m.size_mix = {{1, 0.4}, {2, 0.3}, {4, 0.2}, {8, 0.1}};
  m.min_runtime = 60;
  m.max_runtime = 600;
  return m.with_load(0.8);
}

sim::Trace tiny_trace(std::size_t jobs, std::uint64_t seed) {
  workload::GenerateOptions opt;
  opt.num_jobs = jobs;
  opt.seed = seed;
  return workload::generate_trace(tiny_model(), opt);
}

TEST(Trainer, RunsEpisodesAndValidates) {
  core::DrasAgent agent(tiny_agent_config(core::AgentKind::PG));
  Trainer trainer(agent, 16, tiny_trace(60, 1));

  Jobset jobset{"set-0", JobsetPhase::Sampled, tiny_trace(80, 2)};
  const auto result = trainer.run_episode(jobset);
  EXPECT_EQ(result.episode, 0u);
  EXPECT_EQ(result.jobset, "set-0");
  EXPECT_NE(result.training_reward, 0.0);
  EXPECT_NE(result.validation_reward, 0.0);
  EXPECT_EQ(result.validation_summary.jobs, 60u);

  const auto second = trainer.run_episode(jobset);
  EXPECT_EQ(second.episode, 1u);
}

TEST(Trainer, ValidationDoesNotMutateParameters) {
  core::DrasAgent agent(tiny_agent_config(core::AgentKind::PG));
  Trainer trainer(agent, 16, tiny_trace(50, 3));
  const std::vector<float> before(agent.network().parameters().begin(),
                                  agent.network().parameters().end());
  (void)trainer.validate();
  const auto after = agent.network().parameters();
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(before[i], after[i]);
  EXPECT_TRUE(agent.training());  // restored
}

TEST(Trainer, RunWholeCurriculum) {
  core::DrasAgent agent(tiny_agent_config(core::AgentKind::DQL));
  TrainerOptions options;
  options.validate_each_episode = false;
  Trainer trainer(agent, 16, {}, options);
  std::vector<Jobset> jobsets;
  for (int i = 0; i < 3; ++i)
    jobsets.push_back(Jobset{"s", JobsetPhase::Synthetic,
                             tiny_trace(40, 10 + i)});
  Curriculum curriculum(std::move(jobsets));
  const auto results = trainer.run(curriculum, {});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[2].episode, 2u);
}

TEST(Trainer, WritesSnapshotsWhenConfigured) {
  core::DrasAgent agent(tiny_agent_config(core::AgentKind::PG));
  const auto dir =
      std::filesystem::temp_directory_path() / "dras_trainer_test";
  std::filesystem::remove_all(dir);
  TrainerOptions options;
  options.validate_each_episode = false;
  options.snapshot_dir = dir;
  Trainer trainer(agent, 16, {}, options);
  (void)trainer.run_episode(
      Jobset{"snap", JobsetPhase::Sampled, tiny_trace(30, 20)});
  EXPECT_TRUE(std::filesystem::exists(dir / "DRAS-PG-episode-0.bin"));
  std::filesystem::remove_all(dir);
}

TEST(Trainer, EpisodeResultCarriesTrainingTelemetry) {
  core::DrasAgent agent(tiny_agent_config(core::AgentKind::DQL));
  TrainerOptions options;
  options.validate_each_episode = false;
  Trainer trainer(agent, 16, {}, options);
  const auto result = trainer.run_episode(
      Jobset{"telemetry", JobsetPhase::Sampled, tiny_trace(60, 40)});
  // DQL updates happened, so loss/grad norm reflect the last update and
  // epsilon reflects the exploration schedule.
  EXPECT_GT(result.epsilon, 0.0);
  EXPECT_GE(result.grad_norm, 0.0);
  EXPECT_GT(result.wall_seconds, 0.0);
}

TEST(Trainer, EmitsEpisodeTraceEvents) {
  auto sink = std::make_unique<obs::StringSink>();
  obs::StringSink* raw_sink = sink.get();
  obs::EventTracer tracer(std::move(sink), obs::TraceFormat::Jsonl);

  core::DrasAgent agent(tiny_agent_config(core::AgentKind::PG));
  TrainerOptions options;
  options.validate_each_episode = false;
  options.tracer = &tracer;
  Trainer trainer(agent, 16, {}, options);
  (void)trainer.run_episode(
      Jobset{"traced", JobsetPhase::Synthetic, tiny_trace(40, 41)});
  tracer.flush();

  // The episode lane ('X' on the trainer pid) carries the learning
  // telemetry as args.
  bool found_episode = false;
  std::istringstream lines(raw_sink->str());
  std::string line;
  while (std::getline(lines, line)) {
    const auto event = util::json::parse(line);
    if (event.find("ph")->as_string() != "X") continue;
    if (event.find("pid")->as_number() != obs::kTrainPid) continue;
    found_episode = true;
    const auto* args = event.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_TRUE(args->contains("training_reward"));
    EXPECT_TRUE(args->contains("loss"));
    EXPECT_TRUE(args->contains("grad_norm"));
    EXPECT_TRUE(args->contains("epsilon"));
    EXPECT_EQ(args->find("jobset")->as_string(), "traced");
  }
  EXPECT_TRUE(found_episode);
}

TEST(Trainer, ValidateRecordsWallTimeAndEmitsTraceEvent) {
  auto sink = std::make_unique<obs::StringSink>();
  obs::StringSink* raw_sink = sink.get();
  obs::EventTracer tracer(std::move(sink), obs::TraceFormat::Jsonl);

  core::DrasAgent agent(tiny_agent_config(core::AgentKind::PG));
  TrainerOptions options;
  options.validate_each_episode = false;
  options.tracer = &tracer;
  Trainer trainer(agent, 16, tiny_trace(50, 60), options);
  const auto result = trainer.validate();
  tracer.flush();

  EXPECT_GT(result.wall_seconds, 0.0);
  EXPECT_NE(result.validation_reward, 0.0);

  bool found_validate = false;
  std::istringstream lines(raw_sink->str());
  std::string line;
  while (std::getline(lines, line)) {
    const auto event = util::json::parse(line);
    if (event.find("ph")->as_string() != "X") continue;
    if (event.find("name")->as_string() != "validate") continue;
    if (event.find("pid")->as_number() != obs::kTrainPid) continue;
    found_validate = true;
    const auto* args = event.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_TRUE(args->contains("validation_reward"));
    EXPECT_TRUE(args->contains("episode"));
    EXPECT_DOUBLE_EQ(args->find("jobs")->as_number(), 50.0);
  }
  EXPECT_TRUE(found_validate);
}

TEST(Trainer, ValidateManyParallelMatchesSerial) {
  std::vector<sim::Trace> traces;
  for (int i = 0; i < 4; ++i) traces.push_back(tiny_trace(40, 70 + i));

  core::DrasAgent serial_agent(tiny_agent_config(core::AgentKind::PG));
  TrainerOptions serial_options;
  serial_options.validate_each_episode = false;
  serial_options.validation_jobs = 1;
  Trainer serial_trainer(serial_agent, 16, {}, serial_options);
  const auto serial = serial_trainer.validate_many(traces);

  core::DrasAgent parallel_agent(tiny_agent_config(core::AgentKind::PG));
  TrainerOptions parallel_options;
  parallel_options.validate_each_episode = false;
  parallel_options.validation_jobs = 4;
  Trainer parallel_trainer(parallel_agent, 16, {}, parallel_options);
  const auto parallel = parallel_trainer.validate_many(traces);

  ASSERT_EQ(serial.size(), traces.size());
  ASSERT_EQ(parallel.size(), traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(serial[i].validation_reward, parallel[i].validation_reward);
    EXPECT_EQ(serial[i].validation_summary.avg_wait,
              parallel[i].validation_summary.avg_wait);
    EXPECT_EQ(serial[i].validation_summary.utilization,
              parallel[i].validation_summary.utilization);
    EXPECT_GT(parallel[i].wall_seconds, 0.0);
  }
}

TEST(Trainer, ValidateManyDoesNotMutateAgent) {
  std::vector<sim::Trace> traces;
  for (int i = 0; i < 3; ++i) traces.push_back(tiny_trace(30, 80 + i));
  core::DrasAgent agent(tiny_agent_config(core::AgentKind::DQL));
  TrainerOptions options;
  options.validate_each_episode = false;
  options.validation_jobs = 3;
  Trainer trainer(agent, 16, {}, options);
  const std::vector<float> before(agent.network().parameters().begin(),
                                  agent.network().parameters().end());
  const double epsilon_before = agent.epsilon();
  (void)trainer.validate_many(traces);
  const auto after = agent.network().parameters();
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(before[i], after[i]);
  EXPECT_EQ(agent.epsilon(), epsilon_before);
  EXPECT_TRUE(agent.training());
}

TEST(Evaluator, SummarizesHeuristicRun) {
  sched::FcfsEasy fcfs;
  const auto trace = tiny_trace(80, 30);
  const auto evaluation = evaluate(16, trace, fcfs);
  EXPECT_EQ(evaluation.method, "FCFS");
  EXPECT_EQ(evaluation.summary.jobs, trace.size());
  EXPECT_DOUBLE_EQ(evaluation.total_reward, 0.0);  // no reward function
  EXPECT_GT(evaluation.summary.utilization, 0.0);
}

TEST(Evaluator, AccumulatesRewardWhenProvided) {
  sched::FcfsEasy fcfs;
  const core::RewardFunction reward(core::RewardKind::Capability);
  const auto evaluation = evaluate(16, tiny_trace(80, 31), fcfs, &reward);
  // Capability rewards are non-negative and some utilisation accrues.
  EXPECT_GT(evaluation.total_reward, 0.0);
}

TEST(Evaluator, SameInputsSameOutputs) {
  sched::FcfsEasy fcfs;
  const auto trace = tiny_trace(60, 32);
  const auto a = evaluate(16, trace, fcfs);
  const auto b = evaluate(16, trace, fcfs);
  EXPECT_DOUBLE_EQ(a.summary.avg_wait, b.summary.avg_wait);
  EXPECT_DOUBLE_EQ(a.summary.utilization, b.summary.utilization);
}

}  // namespace
}  // namespace dras::train
