#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "../test_helpers.h"
#include "sched/fcfs_easy.h"
#include "util/rng.h"
#include "workload/models.h"
#include "workload/synthetic.h"

namespace dras::sim {
namespace {

using dras::testing::LambdaScheduler;
using dras::testing::make_job;

TEST(Simulator, SingleJobRunsImmediately) {
  Simulator sim(10);
  sched::FcfsEasy fcfs;
  const Trace trace = {make_job(1, 0, 4, 100)};
  const auto result = sim.run(trace, fcfs);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_EQ(result.unfinished_jobs, 0u);
  EXPECT_DOUBLE_EQ(result.jobs[0].start, 0.0);
  EXPECT_DOUBLE_EQ(result.jobs[0].end, 100.0);
  EXPECT_EQ(result.jobs[0].mode, ExecMode::Ready);
}

TEST(Simulator, SequentialWhenMachineFull) {
  Simulator sim(4);
  sched::FcfsEasy fcfs;
  const Trace trace = {make_job(1, 0, 4, 100), make_job(2, 0, 4, 50)};
  const auto result = sim.run(trace, fcfs);
  ASSERT_EQ(result.jobs.size(), 2u);
  std::map<JobId, JobRecord> by_id;
  for (const auto& rec : result.jobs) by_id[rec.id] = rec;
  EXPECT_DOUBLE_EQ(by_id[1].start, 0.0);
  EXPECT_DOUBLE_EQ(by_id[2].start, 100.0);
  // Job 2 waited behind a reservation.
  EXPECT_EQ(by_id[2].mode, ExecMode::Reserved);
}

TEST(Simulator, KillsJobAtWalltimeEstimate) {
  Simulator sim(4);
  sched::FcfsEasy fcfs;
  const Trace trace = {make_job(1, 0, 2, /*runtime=*/500, /*estimate=*/100)};
  const auto result = sim.run(trace, fcfs);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(result.jobs[0].end, 100.0);
}

TEST(Simulator, BackfillTaggedAndReservationHonoured) {
  // 10 nodes.  Job 1 takes 8 nodes for 100s.  Job 2 (8 nodes) cannot fit
  // and gets a reservation at t=100.  Job 3 (2 nodes, 50s) backfills at
  // t=0.  Job 2 must still start at t=100.
  Simulator sim(10);
  sched::FcfsEasy fcfs;
  const Trace trace = {make_job(1, 0, 8, 100), make_job(2, 1, 8, 100),
                       make_job(3, 2, 2, 50)};
  const auto result = sim.run(trace, fcfs);
  ASSERT_EQ(result.jobs.size(), 3u);
  std::map<JobId, JobRecord> by_id;
  for (const auto& rec : result.jobs) by_id[rec.id] = rec;
  EXPECT_EQ(by_id[1].mode, ExecMode::Ready);
  EXPECT_EQ(by_id[2].mode, ExecMode::Reserved);
  EXPECT_EQ(by_id[3].mode, ExecMode::Backfilled);
  EXPECT_DOUBLE_EQ(by_id[3].start, 2.0);
  EXPECT_DOUBLE_EQ(by_id[2].start, 100.0);
}

TEST(Simulator, EarlyCompletionPullsReservationForward) {
  // Job 1's estimate is 100 but it actually ends at t=10; the reserved
  // job 2 should start at t=10, not t=100.
  Simulator sim(4);
  sched::FcfsEasy fcfs;
  const Trace trace = {make_job(1, 0, 4, /*runtime=*/10, /*estimate=*/100),
                       make_job(2, 1, 4, 50)};
  const auto result = sim.run(trace, fcfs);
  std::map<JobId, JobRecord> by_id;
  for (const auto& rec : result.jobs) by_id[rec.id] = rec;
  EXPECT_DOUBLE_EQ(by_id[2].start, 10.0);
  EXPECT_EQ(by_id[2].mode, ExecMode::Reserved);
}

TEST(Simulator, DependenciesDelayChild) {
  Simulator sim(10);
  sched::FcfsEasy fcfs;
  Job parent = make_job(1, 0, 2, 100);
  Job child = make_job(2, 0, 2, 10);
  child.dependencies.push_back(1);
  const Trace trace = {parent, child};
  const auto result = sim.run(trace, fcfs);
  std::map<JobId, JobRecord> by_id;
  for (const auto& rec : result.jobs) by_id[rec.id] = rec;
  EXPECT_GE(by_id[2].start, by_id[1].end);
}

TEST(Simulator, UnsatisfiableDependencyLeavesJobUnfinished) {
  Simulator sim(10);
  sched::FcfsEasy fcfs;
  Job a = make_job(1, 0, 2, 10);
  Job b = make_job(2, 0, 2, 10);
  // b depends on a, a depends on b: a cycle nothing can break.
  a.dependencies.push_back(2);
  b.dependencies.push_back(1);
  const auto result = sim.run({a, b}, fcfs);
  EXPECT_EQ(result.unfinished_jobs, 2u);
}

TEST(Simulator, RejectsOversizedJob) {
  Simulator sim(4);
  sched::FcfsEasy fcfs;
  EXPECT_THROW((void)sim.run({make_job(1, 0, 8, 10)}, fcfs),
               std::invalid_argument);
}

TEST(Simulator, RejectsDuplicateIds) {
  Simulator sim(4);
  sched::FcfsEasy fcfs;
  EXPECT_THROW(
      (void)sim.run({make_job(1, 0, 1, 10), make_job(1, 5, 1, 10)}, fcfs),
      std::invalid_argument);
}

TEST(Simulator, RejectsUnknownDependency) {
  Simulator sim(4);
  sched::FcfsEasy fcfs;
  Job job = make_job(1, 0, 1, 10);
  job.dependencies.push_back(42);
  EXPECT_THROW((void)sim.run({job}, fcfs), std::invalid_argument);
}

TEST(Simulator, UtilizationIntegration) {
  // 4 nodes; one 2-node job for 100s, then idle until a second submission
  // at t=300 runs 4 nodes for 100s.  Elapsed horizon 0..400.
  // used = 2*100 + 4*100 = 600 node-s; elapsed = 4*400 = 1600.
  Simulator sim(4);
  sched::FcfsEasy fcfs;
  const Trace trace = {make_job(1, 0, 2, 100), make_job(2, 300, 4, 100)};
  const auto result = sim.run(trace, fcfs);
  EXPECT_DOUBLE_EQ(result.used_node_seconds, 600.0);
  EXPECT_DOUBLE_EQ(result.elapsed_node_seconds, 1600.0);
  EXPECT_DOUBLE_EQ(result.utilization, 600.0 / 1600.0);
  EXPECT_DOUBLE_EQ(result.makespan, 400.0);
}

TEST(Simulator, ContextRejectsIllegalActions) {
  Simulator sim(4);
  bool checked = false;
  LambdaScheduler probe([&](SchedulingContext& ctx) {
    if (checked) return;
    checked = true;
    // Non-existent job.
    EXPECT_FALSE(ctx.start_now(999));
    // Not in the visible queue yet: job 2 is submitted at t=500, job 3
    // waits for job 1.
    EXPECT_FALSE(ctx.start_now(2));
    EXPECT_FALSE(ctx.start_now(3));
    // Job 1 fits: reserve must fail, start must succeed.
    EXPECT_FALSE(ctx.reserve(1));
    // Backfill without a reservation fails.
    EXPECT_FALSE(ctx.backfill(1));
    EXPECT_TRUE(ctx.backfill_candidates().empty());
    EXPECT_TRUE(ctx.start_now(1));
    // Already started: every action on it now fails.
    EXPECT_FALSE(ctx.start_now(1));
    EXPECT_FALSE(ctx.reserve(1));
    // Job 2 no longer fits, but it is still not queued.
    EXPECT_FALSE(ctx.reserve(2));
    EXPECT_FALSE(ctx.reservation().active());
  });
  Job child = make_job(3, 0, 2, 10);
  child.dependencies = {1};
  (void)sim.run({make_job(1, 0, 2, 10), make_job(2, 500, 4, 100), child},
                probe);
  EXPECT_TRUE(checked);
}

TEST(Simulator, ReserveRequiresNonFittingJob) {
  Simulator sim(4);
  int phase = 0;
  LambdaScheduler probe([&](SchedulingContext& ctx) {
    if (phase == 0) {
      ASSERT_TRUE(ctx.start_now(1));  // occupies the machine
      ++phase;
    } else if (phase == 1 && !ctx.queue().empty()) {
      // Job 2 does not fit -> reservation succeeds; a second reservation
      // in the same instance must fail.
      EXPECT_TRUE(ctx.reserve(2));
      EXPECT_TRUE(ctx.reservation().active());
      EXPECT_FALSE(ctx.reserve(3));
      ++phase;
    }
  });
  const Trace trace = {make_job(1, 0, 4, 100), make_job(2, 1, 4, 10),
                       make_job(3, 2, 4, 10)};
  (void)sim.run(trace, probe);
  EXPECT_EQ(phase, 2);
}

TEST(Simulator, StartDuringReservationMustBeBackfillLegal) {
  // 4 nodes: job 1 occupies all until t=100; job 2 (4 nodes) reserved at
  // t=100.  Job 3 is 1 node with a long estimate: starting it "now"
  // (after job 1 ends... no -- at t=1 nothing is free).  Construct the
  // check at t=100 when job 1 ended: free=4, reservation for job 2 at
  // t=100 means job 2 fits -- so instead verify inside one instance.
  Simulator sim(4);
  bool verified = false;
  LambdaScheduler probe([&](SchedulingContext& ctx) {
    if (ctx.now() == 0.0) {
      ASSERT_TRUE(ctx.start_now(1));  // 3 nodes until t=100
      return;
    }
    if (verified || ctx.queue().size() < 2) return;
    verified = true;
    ASSERT_TRUE(ctx.reserve(2));  // needs 4 nodes at t=100
    // Job 3 (1 node) estimated past t=100 would rob the reservation.
    EXPECT_FALSE(ctx.start_now(3));
    // As a backfill call it is equally rejected.
    EXPECT_FALSE(ctx.backfill(3));
  });
  const Trace trace = {make_job(1, 0, 3, 100), make_job(2, 1, 4, 10),
                       make_job(3, 2, 1, 500)};
  (void)sim.run(trace, probe);
  EXPECT_TRUE(verified);
}

TEST(Simulator, ActionObserverSeesEveryAction) {
  Simulator sim(10);
  sched::FcfsEasy fcfs;
  std::vector<JobId> observed;
  sim.set_action_observer(
      [&](const SchedulingContext&, const Job& job) {
        observed.push_back(job.id);
      });
  const Trace trace = {make_job(1, 0, 8, 100), make_job(2, 1, 8, 100),
                       make_job(3, 2, 2, 50)};
  (void)sim.run(trace, fcfs);
  // start(1), reserve(2) [possibly re-reserved each instance], backfill(3),
  // start(2).  Every job appears at least once.
  for (const JobId id : {1, 2, 3})
    EXPECT_NE(std::find(observed.begin(), observed.end(), id),
              observed.end());
}

TEST(Simulator, MultipleActionObserversAllSeeActions) {
  Simulator sim(10);
  sched::FcfsEasy fcfs;
  std::vector<JobId> first, second;
  sim.add_action_observer(
      [&](const SchedulingContext&, const Job& job) {
        first.push_back(job.id);
      });
  sim.add_action_observer(
      [&](const SchedulingContext&, const Job& job) {
        second.push_back(job.id);
      });
  const Trace trace = {make_job(1, 0, 8, 100), make_job(2, 1, 2, 50)};
  (void)sim.run(trace, fcfs);
  EXPECT_FALSE(first.empty());
  // Both observers receive the identical action stream.
  EXPECT_EQ(first, second);
}

TEST(Simulator, SetActionObserverReplacesAllObservers) {
  Simulator sim(10);
  sched::FcfsEasy fcfs;
  int dropped_calls = 0, kept_calls = 0;
  sim.add_action_observer(
      [&](const SchedulingContext&, const Job&) { ++dropped_calls; });
  // Historical replace semantics: the earlier observer must not fire.
  sim.set_action_observer(
      [&](const SchedulingContext&, const Job&) { ++kept_calls; });
  (void)sim.run({make_job(1, 0, 4, 100)}, fcfs);
  EXPECT_EQ(dropped_calls, 0);
  EXPECT_GT(kept_calls, 0);
}

// ---------------------------------------------------------------------------
// Property test: invariants over randomized workloads under FCFS/EASY.
// ---------------------------------------------------------------------------

class SimulatorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorProperty, InvariantsHoldOnRandomWorkload) {
  const std::uint64_t seed = GetParam();
  workload::WorkloadModel model = workload::theta_mini_workload();
  workload::GenerateOptions gen;
  gen.num_jobs = 300;
  gen.seed = seed;
  const Trace trace = workload::generate_trace(model, gen);

  Simulator sim(model.system_nodes);
  sched::FcfsEasy fcfs;
  const auto result = sim.run(trace, fcfs);

  // Every job completes.
  EXPECT_EQ(result.unfinished_jobs, 0u);
  ASSERT_EQ(result.jobs.size(), trace.size());

  std::map<JobId, Job> submitted;
  for (const Job& job : trace) submitted[job.id] = job;

  // Per-job invariants.
  std::vector<std::pair<double, int>> deltas;  // (time, +/- nodes)
  for (const JobRecord& rec : result.jobs) {
    const Job& job = submitted.at(rec.id);
    EXPECT_GE(rec.start, job.submit_time);
    const double runtime =
        std::min(job.runtime_actual, job.runtime_estimate);
    EXPECT_NEAR(rec.end - rec.start, runtime, 1e-9);
    EXPECT_NE(rec.mode, ExecMode::None);
    deltas.emplace_back(rec.start, rec.size);
    deltas.emplace_back(rec.end, -rec.size);
  }

  // Machine never over-allocated: sweep the start/end deltas.
  std::sort(deltas.begin(), deltas.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;  // releases before allocations
            });
  int in_use = 0;
  for (const auto& [time, delta] : deltas) {
    in_use += delta;
    EXPECT_LE(in_use, model.system_nodes);
    EXPECT_GE(in_use, 0);
  }

  EXPECT_GT(result.utilization, 0.0);
  EXPECT_LE(result.utilization, 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

}  // namespace
}  // namespace dras::sim
