// Fig. 5 reproduction: total reward collected on the validation dataset by
// every scheduling method, per training episode.
//
// The learned agents (DRAS-PG, DRAS-DQL, Decima-PG) train one jobset per
// episode and are evaluated frozen on the validation trace after each; the
// static methods (FCFS, BinPacking, Random, Optimization) are horizontal
// lines.  The paper's signature: DRAS starts near Random and climbs past
// the heuristics as it converges.
//
// Extra knobs: --rollout-workers N / --rollout-batch B collect the DRAS
// agents' training episodes through the data-parallel rollout engine
// (one reduced update per per-episode round here, so curves stay
// per-episode), --warm-start DIR seeds each DRAS agent from the
// newest checkpoint under DIR/<agent-name>, and --save-warm-start DIR
// writes the trained agents back out for a later --warm-start run.
#include <iostream>
#include <span>

#include "bench_common.h"
#include "util/format.h"

int main(int argc, char** argv) {
  const dras::benchx::ObsSession obs_session(argc, argv);
  using dras::util::format;
  namespace benchx = dras::benchx;

  const auto scenario = benchx::Scenario::theta_mini(5);
  constexpr std::size_t kEpisodes = 12;
  constexpr std::size_t kJobsPerSet = 300;
  const auto validation = scenario.trace(250, 909090);

  benchx::print_preamble("Fig. 5: learning curves on the validation set",
                         scenario, kJobsPerSet);

  benchx::MethodSet methods(scenario);
  const auto reward = scenario.reward();

  // Build the shared training curriculum once.
  const auto real = scenario.real_trace(kJobsPerSet * 4);
  dras::train::CurriculumOptions curriculum_options;
  curriculum_options.sampled_sets = kEpisodes / 3;
  curriculum_options.real_sets = kEpisodes / 3;
  curriculum_options.synthetic_sets = kEpisodes - 2 * (kEpisodes / 3);
  curriculum_options.jobs_per_set = kJobsPerSet;
  curriculum_options.seed = 31;
  const auto curriculum =
      dras::train::build_curriculum(scenario.model, real,
                                    curriculum_options);

  // Static methods: constant validation reward.
  const auto validation_reward = [&](dras::sim::Scheduler& method) {
    return dras::train::evaluate(scenario.preset.nodes, validation, method,
                                 &reward)
        .total_reward;
  };
  const double fcfs_line = validation_reward(methods.fcfs());
  std::vector<std::pair<std::string, double>> static_lines = {
      {"FCFS", fcfs_line}};
  {
    auto all = methods.all();
    // BinPacking (1), Random (2), Optimization (3).
    static_lines.emplace_back("BinPacking", validation_reward(*all[1]));
    static_lines.emplace_back("Random", validation_reward(*all[2]));
    static_lines.emplace_back("Optimization", validation_reward(*all[3]));
  }

  std::cout << "csv:method,episode,validation_reward\n";
  for (const auto& [name, value] : static_lines)
    for (std::size_t e = 0; e < kEpisodes; ++e)
      std::cout << format("csv:{},{},{:.3f}\n", name, e, value);

  const auto rollout = obs_session.make_rollout_pool();
  if (rollout != nullptr)
    std::cout << format("# rollout: {} workers\n", rollout->workers());
  if (!obs_session.warm_start().empty()) {
    for (auto* agent : {&methods.dras_pg(), &methods.dras_dql()}) {
      const auto loaded =
          benchx::load_warm_start(obs_session.warm_start(), *agent,
                                  obs_session.warm_start_relaxed());
      std::cout << format("# warm start [{}]: {}\n", agent->name(),
                          loaded ? loaded->string() : "no checkpoint found");
    }
  }

  // Learned methods: train one jobset per episode, evaluate frozen.
  double dras_pg_final = 0.0, random_line = static_lines[2].second;
  for (std::size_t e = 0; e < kEpisodes; ++e) {
    const auto& jobset = curriculum[e % curriculum.size()];
    for (auto* agent : {&methods.dras_pg(), &methods.dras_dql()}) {
      if (rollout != nullptr) {
        // One-slot round through the rollout engine: clone, roll out,
        // apply the reduced update — the frozen original never trains
        // in place.
        (void)rollout->collect(*agent, scenario.preset.nodes,
                               std::span(&jobset, 1), e, {});
      } else {
        agent->set_training(true);
        dras::sim::Simulator sim(scenario.preset.nodes);
        (void)sim.run(jobset.trace, *agent);
        agent->set_training(false);
      }
      const double value = validation_reward(*agent);
      std::cout << format("csv:{},{},{:.3f}\n", agent->name(), e, value);
      if (agent->name() == "DRAS-PG") dras_pg_final = value;
    }
    methods.decima().set_training(true);
    {
      dras::sim::Simulator sim(scenario.preset.nodes);
      (void)sim.run(jobset.trace, methods.decima());
    }
    methods.decima().set_training(false);
    std::cout << format("csv:{},{},{:.3f}\n", methods.decima().name(), e,
                        validation_reward(methods.decima()));
  }

  if (!obs_session.save_warm_start_dir().empty()) {
    for (auto* agent : {&methods.dras_pg(), &methods.dras_dql()}) {
      const auto saved = benchx::save_warm_start(
          obs_session.save_warm_start_dir(), *agent, kEpisodes);
      std::cout << format("# warm start saved [{}]: {}\n", agent->name(),
                          saved.string());
    }
  }

  std::cout << format(
      "\nshape check: DRAS-PG final {:.3f} vs Random {:.3f} vs FCFS "
      "{:.3f}\n",
      dras_pg_final, random_line, fcfs_line);
  return 0;
}
