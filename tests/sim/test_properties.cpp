// Property and fuzz tests for the simulator substrate.
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <string>

#include "../test_helpers.h"
#include "sched/fcfs_easy.h"
#include "sched/priority_sched.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/models.h"
#include "workload/synthetic.h"

namespace dras::sim {
namespace {

using dras::testing::LambdaScheduler;

// --- EASY guarantee: a reservation is never delayed ----------------------
//
// Whenever a reservation (job j, start t_r) is created, job j must start
// no later than t_r, whatever gets backfilled afterwards.  This is the
// correctness property of backfill_legal + the sticky reservation ledger.
// Per start it reads: a job still running at t_r may start only if the
// nodes free after it plus those released by t_r, recounted here from the
// running set and the repair times, still cover the reservation.  A node
// failure can take promised nodes away after the fact, so fault runs
// check the per-start form only.

struct EasyCase {
  std::string name;  ///< Test-name suffix.
  workload::WorkloadModel model;
  std::size_t jobs = 0;
  std::uint64_t seed = 0;
  double load_scale = 1.0;
  double mtbf = 0.0;  ///< Per-node seconds; 0 = fault-free.
};

void PrintTo(const EasyCase& c, std::ostream* os) { *os << c.name; }

EasyCase theta_mini_case(std::uint64_t seed) {
  // Saturated: plenty of reservations.
  return {std::to_string(seed), workload::theta_mini_workload(), 400, seed,
          1.3, 0.0};
}

EasyCase cori_case(std::string name, double mtbf) {
  // ~850 running jobs on 12,076 nodes, 20-30 reservations and ~950
  // starts that overlap one.
  return {std::move(name), workload::cori_workload(), 3000, 3, 1.3, mtbf};
}

class EasyGuarantee : public ::testing::TestWithParam<EasyCase> {};

TEST_P(EasyGuarantee, ReservedStartNeverExceedsReservedTime) {
  const EasyCase& c = GetParam();
  workload::GenerateOptions gen;
  gen.num_jobs = c.jobs;
  gen.seed = c.seed;
  gen.load_scale = c.load_scale;
  const Trace trace = workload::generate_trace(c.model, gen);

  Simulator sim(c.model.system_nodes);
  FaultConfig faults;
  faults.mtbf = c.mtbf;
  faults.seed = c.seed;
  sim.set_fault_config(faults);
  std::map<JobId, Time> promised;  // job -> latest reserved start promised
  std::size_t overlapping_starts = 0;
  sim.set_action_observer([&](const SchedulingContext& ctx, const Job& job) {
    if (!ctx.reservation().active()) return;
    const Reservation& r = ctx.reservation().get();
    if (r.job == job.id) {
      promised[job.id] = r.start;
      return;
    }
    if (job.start_time + job.runtime_estimate <= r.start) return;
    ++overlapping_starts;
    int covered = ctx.cluster().free_nodes();
    for (const RunningJob& rec : ctx.cluster().running_jobs())
      if (rec.estimated_end <= r.start) covered += rec.size;
    for (const Time repair : ctx.cluster().down_until())
      if (repair <= r.start) ++covered;
    EXPECT_GE(covered, r.size)
        << "starting job " << job.id << " at " << ctx.now()
        << " left the reservation of job " << r.job << " short";
  });
  sched::FcfsEasy fcfs;
  const auto result = sim.run(trace, fcfs);

  ASSERT_FALSE(promised.empty()) << "workload produced no reservations";
  EXPECT_GT(overlapping_starts, 0u) << "no start overlapped a reservation";
  if (c.mtbf > 0.0) {
    EXPECT_GT(result.faults.node_failures, 0u);
    return;
  }
  std::map<JobId, JobRecord> by_id;
  for (const auto& rec : result.jobs) by_id[rec.id] = rec;
  for (const auto& [id, reserved_start] : promised) {
    ASSERT_TRUE(by_id.contains(id));
    EXPECT_LE(by_id.at(id).start, reserved_start + 1e-6)
        << "job " << id << " was delayed past its reservation";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EasyGuarantee,
                         ::testing::Values(theta_mini_case(3),
                                           theta_mini_case(7),
                                           theta_mini_case(11),
                                           theta_mini_case(19),
                                           theta_mini_case(23)));

INSTANTIATE_TEST_SUITE_P(Cori, EasyGuarantee,
                         ::testing::Values(cori_case("faults-off", 0.0),
                                           cori_case("mtbf-1e8", 1e8)));

// --- Fuzz: adversarial policies cannot corrupt the simulator -------------

class SimulatorFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorFuzz, RandomActionStormKeepsInvariants) {
  workload::WorkloadModel model = workload::theta_mini_workload();
  workload::GenerateOptions gen;
  gen.num_jobs = 200;
  gen.seed = GetParam();
  Trace trace = workload::generate_trace(model, gen);
  // Every tenth job waits for the one before it, so some trace jobs are
  // held out of the visible queue after their submission.
  for (std::size_t i = 9; i < trace.size(); i += 10)
    trace[i].dependencies = {trace[i - 1].id};

  util::Rng rng(GetParam() * 977 + 13);
  LambdaScheduler chaos([&](SchedulingContext& ctx) {
    // A burst of arbitrary actions, many illegal: bogus ids, reserves of
    // fitting jobs, backfills without reservations, double starts, and
    // jobs not yet submitted, held by a parent, running or finished.
    for (int i = 0; i < 20; ++i) {
      const auto roll = rng.uniform_index(6);
      JobId id = kInvalidJob;
      if (rng.uniform_index(2) == 0)
        id = trace[rng.uniform_index(trace.size())].id;
      else if (!ctx.queue().empty())
        id = ctx.queue()[rng.uniform_index(ctx.queue().size())]->id;
      if (roll == 5) id = static_cast<JobId>(rng.uniform_index(1000000));
      switch (roll % 3) {
        case 0: (void)ctx.start_now(id); break;
        case 1: (void)ctx.reserve(id); break;
        case 2: (void)ctx.backfill(id); break;
      }
    }
  });

  Simulator sim(model.system_nodes);
  const auto result = sim.run(trace, chaos);

  // Whatever the policy did: completed jobs have consistent timestamps,
  // start after their parents end, and the machine was never
  // over-allocated.
  std::map<JobId, JobRecord> by_id;
  std::vector<std::pair<double, int>> deltas;
  for (const JobRecord& rec : result.jobs) {
    EXPECT_GE(rec.start, rec.submit);
    EXPECT_GE(rec.end, rec.start);
    EXPECT_TRUE(by_id.emplace(rec.id, rec).second)
        << "job " << rec.id << " completed twice";
    deltas.emplace_back(rec.start, rec.size);
    deltas.emplace_back(rec.end, -rec.size);
  }
  for (const Job& job : trace) {
    if (!by_id.contains(job.id)) continue;
    for (const JobId parent : job.dependencies) {
      ASSERT_TRUE(by_id.contains(parent))
          << "job " << job.id << " ran although parent " << parent
          << " never finished";
      EXPECT_GE(by_id.at(job.id).start, by_id.at(parent).end)
          << "job " << job.id << " started before parent " << parent
          << " ended";
    }
  }
  std::sort(deltas.begin(), deltas.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second < b.second;
  });
  int in_use = 0;
  for (const auto& [time, delta] : deltas) {
    in_use += delta;
    EXPECT_LE(in_use, model.system_nodes);
  }
  EXPECT_LE(result.jobs.size(), trace.size());
  EXPECT_LE(result.utilization, 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorFuzz,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u));

// --- Sticky reservation semantics ----------------------------------------

TEST(StickyReservation, AutoStartsWhenItFits) {
  using dras::testing::make_job;
  Simulator sim(4);
  bool reserved_once = false;
  LambdaScheduler policy([&](SchedulingContext& ctx) {
    if (ctx.now() == 0.0) {
      (void)ctx.start_now(1);
      return;
    }
    if (!reserved_once && !ctx.reservation().active()) {
      reserved_once = ctx.reserve(2);
    }
    // Crucially: never start job 2 explicitly — the environment must.
  });
  const Trace trace = {make_job(1, 0, 4, 100), make_job(2, 1, 4, 50)};
  const auto result = sim.run(trace, policy);
  ASSERT_EQ(result.jobs.size(), 2u);
  std::map<JobId, JobRecord> by_id;
  for (const auto& rec : result.jobs) by_id[rec.id] = rec;
  EXPECT_DOUBLE_EQ(by_id.at(2).start, 100.0);
  EXPECT_EQ(by_id.at(2).mode, ExecMode::Reserved);
}

TEST(StickyReservation, PersistsAcrossInstances) {
  using dras::testing::make_job;
  Simulator sim(4);
  int active_instances = 0;
  LambdaScheduler policy([&](SchedulingContext& ctx) {
    if (ctx.now() == 0.0) {
      (void)ctx.start_now(1);
      (void)ctx.reserve(2);
      return;
    }
    if (ctx.reservation().active()) {
      ++active_instances;
      EXPECT_EQ(ctx.reservation().get().job, 2);
      // A second reservation is rejected while one is outstanding.
      EXPECT_FALSE(ctx.reserve(3));
    }
  });
  const Trace trace = {make_job(1, 0, 4, 100), make_job(2, 0, 4, 50),
                       make_job(3, 10, 4, 50), make_job(4, 20, 4, 50)};
  (void)sim.run(trace, policy);
  EXPECT_GE(active_instances, 2);  // instances at t=10 and t=20
}

TEST(StickyReservation, EarlyCompletionStartsReservedJobEarly) {
  using dras::testing::make_job;
  Simulator sim(4);
  sched::FcfsEasy fcfs;
  // Estimate 1000 but actual 50: the reserved job must start at t=50.
  const Trace trace = {make_job(1, 0, 4, 50, 1000), make_job(2, 1, 4, 10)};
  const auto result = sim.run(trace, fcfs);
  std::map<JobId, JobRecord> by_id;
  for (const auto& rec : result.jobs) by_id[rec.id] = rec;
  EXPECT_DOUBLE_EQ(by_id.at(2).start, 50.0);
}

}  // namespace
}  // namespace dras::sim
