#include "sched/decima_pg.h"

#include <gtest/gtest.h>

#include <map>

#include "../test_helpers.h"
#include "sim/simulator.h"

namespace dras::sched {
namespace {

using dras::testing::make_job;

core::DrasConfig tiny_config() {
  core::DrasConfig cfg;
  cfg.total_nodes = 8;
  cfg.window = 4;
  cfg.fc1 = 16;
  cfg.fc2 = 8;
  cfg.time_scale = 1000.0;
  cfg.seed = 3;
  return cfg;
}

TEST(DecimaPG, RejectsNonPGConfig) {
  core::DrasConfig cfg = tiny_config();
  cfg.kind = core::AgentKind::DQL;
  EXPECT_THROW(DecimaPG{cfg}, std::invalid_argument);
}

TEST(DecimaPG, CompletesWorkload) {
  DecimaPG decima(tiny_config());
  sim::Trace trace;
  for (int i = 0; i < 50; ++i)
    trace.push_back(make_job(i, i * 10.0, 1 + (i * 3) % 8, 60));
  sim::Simulator sim(8);
  const auto result = sim.run(trace, decima);
  EXPECT_EQ(result.unfinished_jobs, 0u);
  EXPECT_EQ(decima.name(), "Decima-PG");
}

TEST(DecimaPG, NeverReservesOrBackfills) {
  // The defining limitation vs DRAS (§II-A): immediate execution only.
  DecimaPG decima(tiny_config());
  sim::Trace trace;
  for (int i = 0; i < 30; ++i)
    trace.push_back(make_job(i, i * 5.0, (i % 2 == 0) ? 8 : 1, 50));
  sim::Simulator sim(8);
  const auto result = sim.run(trace, decima);
  for (const auto& rec : result.jobs) {
    EXPECT_NE(rec.mode, sim::ExecMode::Reserved);
    EXPECT_NE(rec.mode, sim::ExecMode::Backfilled);
  }
}

TEST(DecimaPG, LargeJobWaitsBehindSmallStream) {
  // Without reservations a whole-machine job is repeatedly bypassed while
  // small jobs keep the machine partly busy (Fig. 7's starvation).
  DecimaPG decima(tiny_config());
  decima.set_training(false);
  sim::Trace trace;
  sim::JobId id = 0;
  trace.push_back(make_job(id++, 0.0, 2, 120));  // keeps the machine busy
  trace.push_back(make_job(id++, 1.0, 8, 10));   // whole machine, short
  // Overlapping small jobs: the machine never fully drains until the
  // stream ends, and the 8-node job is excluded whenever it cannot fit.
  for (int i = 0; i < 40; ++i)
    trace.push_back(make_job(id++, 2.0 + i * 20.0, 2, 120));
  sim::Simulator sim(8);
  const auto result = sim.run(trace, decima);
  std::map<sim::JobId, sim::JobRecord> by_id;
  for (const auto& rec : result.jobs) by_id[rec.id] = rec;
  // The whole-machine job started long after submission, behind smalls.
  EXPECT_GT(by_id.at(1).wait(), 300.0);
}

TEST(DecimaPG, FrozenModeIsDeterministic) {
  const auto run_once = [&] {
    DecimaPG decima(tiny_config());
    decima.set_training(false);
    sim::Trace trace;
    for (int i = 0; i < 30; ++i)
      trace.push_back(make_job(i, i * 7.0, 1 + i % 8, 40));
    sim::Simulator sim(8);
    const auto result = sim.run(trace, decima);
    double sum = 0.0;
    for (const auto& rec : result.jobs) sum += rec.start;
    return sum;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(DecimaPG, CollectsEpisodeReward) {
  DecimaPG decima(tiny_config());
  sim::Trace trace = {make_job(1, 0, 2, 10), make_job(2, 1, 2, 10)};
  sim::Simulator sim(8);
  (void)sim.run(trace, decima);
  EXPECT_NE(decima.episode_reward(), 0.0);
}

}  // namespace
}  // namespace dras::sched
