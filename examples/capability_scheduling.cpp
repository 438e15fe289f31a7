// Capability-computing scenario (Theta-style, paper §IV).
//
// Demonstrates the full method roster on a capability workload — the
// environment where resource reservation decides whether large jobs
// starve.  Trains DRAS-PG/DQL with the three-phase curriculum (§III-C),
// evaluates every method on a held-out test trace, and reports per-size
// wait statistics so the starvation contrast is visible.
//
//   ./capability_scheduling
#include <iostream>

#include "core/dras_agent.h"
#include "core/presets.h"
#include "metrics/report.h"
#include "metrics/stats.h"
#include "sched/bin_packing.h"
#include "sched/decima_pg.h"
#include "sched/fcfs_easy.h"
#include "sched/knapsack_opt.h"
#include "sched/random_policy.h"
#include "train/curriculum.h"
#include "train/evaluator.h"
#include "train/trainer.h"
#include "util/format.h"
#include "workload/models.h"
#include "workload/synthetic.h"

int main() {
  using dras::util::format;
  const auto system = dras::core::theta_mini();
  const auto model = dras::workload::theta_mini_workload();
  const dras::core::RewardFunction reward(system.reward);

  // Stand-in "real" trace and the three-phase training curriculum.
  dras::workload::GenerateOptions real_gen;
  real_gen.num_jobs = 2000;
  real_gen.seed = dras::workload::kRealTraceSeed;
  const auto real_trace = dras::workload::generate_trace(model, real_gen);

  dras::train::CurriculumOptions curriculum_options;
  curriculum_options.sampled_sets = 6;
  curriculum_options.real_sets = 6;
  curriculum_options.synthetic_sets = 8;
  curriculum_options.jobs_per_set = 400;
  curriculum_options.seed = 11;
  dras::train::Curriculum curriculum(dras::train::build_curriculum(
      model, real_trace, curriculum_options));
  std::cout << format("curriculum: {} jobsets (sampled -> real -> "
                      "synthetic)\n", curriculum.size());

  // Train both DRAS agents.
  dras::core::DrasAgent dras_pg(
      system.agent_config(dras::core::AgentKind::PG, 1));
  dras::core::DrasAgent dras_dql(
      system.agent_config(dras::core::AgentKind::DQL, 2));
  dras::train::TrainerOptions trainer_options;
  trainer_options.validate_each_episode = false;
  for (auto* agent : {&dras_pg, &dras_dql}) {
    dras::train::Trainer trainer(*agent, system.nodes, {}, trainer_options);
    curriculum.seek(0);
    (void)trainer.run(curriculum, {});
    agent->set_training(false);
  }

  // Baselines.
  dras::sched::FcfsEasy fcfs;
  dras::sched::BinPacking bin_packing;
  dras::sched::RandomPolicy random(3);
  dras::sched::KnapsackOpt optimization(reward);
  dras::sched::DecimaPG decima(
      system.agent_config(dras::core::AgentKind::PG, 4));
  for (const auto& jobset : curriculum.jobsets()) {
    dras::sim::Simulator sim(system.nodes);
    (void)sim.run(jobset.trace, decima);
  }
  decima.set_training(false);

  // Held-out test trace.
  dras::workload::GenerateOptions test_gen;
  test_gen.num_jobs = 1000;
  test_gen.seed = 987;
  const auto test_trace = dras::workload::generate_trace(model, test_gen);

  const int size_edges[] = {32, 128};
  std::vector<std::vector<std::string>> table;
  for (dras::sim::Scheduler* method :
       std::vector<dras::sim::Scheduler*>{&fcfs, &bin_packing, &random,
                                          &optimization, &decima, &dras_pg,
                                          &dras_dql}) {
    const auto evaluation =
        dras::train::evaluate(system.nodes, test_trace, *method, &reward);
    const auto by_size =
        dras::metrics::by_size_bucket(evaluation.result.jobs, size_edges);
    table.push_back(
        {evaluation.method,
         dras::metrics::format_duration(evaluation.summary.avg_wait),
         dras::metrics::format_duration(evaluation.summary.max_wait),
         dras::metrics::format_duration(by_size[0].avg_wait),
         dras::metrics::format_duration(by_size[2].avg_wait),
         dras::metrics::format_duration(by_size[2].max_wait),
         format("{:.1f}%", 100.0 * evaluation.summary.utilization)});
  }
  dras::metrics::print_table(
      std::cout,
      {"method", "avg wait", "max wait", "small-job wait", "large-job wait",
       "large-job max", "util"},
      table);
  std::cout << "\nlarge jobs starve under the no-reservation methods "
               "(BinPacking / Random / Decima-PG); FCFS and DRAS bound "
               "them via reservations.\n";
  return 0;
}
