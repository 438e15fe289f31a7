// perfbench: one workload per process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tail-percentile P] [--workers N] [--scratch DIR]
//             [--spans-out FILE]
//
// Prints a metric table, then one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// End-to-end metrics untraced (--trace 0), per-layer metrics traced.
// run.py sets the thread layout of each workload from workloads.json.

#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>

#include "util/args.h"
#include "workloads.h"

int main(int argc, char** argv) {
  try {
    dras::util::Args args(argc, argv);
    perfbench::Options options;
    options.workload = args.get("workload", "");
    options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    options.seconds = args.get_double("seconds", 10.0);
    options.traced = args.get_int("trace", 0) != 0;
    options.tail_percentile = args.get_double("tail-percentile", 99.0);
    options.workers = static_cast<std::size_t>(args.get_int("workers", 1));
    options.scratch = args.get("scratch", ".bench_build/scratch");
    options.spans_out = args.get("spans-out", "");
    if (options.seconds <= 0.0 || options.workers == 0 ||
        options.tail_percentile <= 0.0 || options.tail_percentile >= 100.0)
      throw std::invalid_argument("bad --seconds or thread layout");

    std::filesystem::remove_all(options.scratch);
    std::filesystem::create_directories(options.scratch);
    if (!options.spans_out.empty() &&
        options.spans_out.has_parent_path())
      std::filesystem::create_directories(options.spans_out.parent_path());

    perfbench::Result result;
    if (options.workload == "sim-cori-easy")
      result = perfbench::run_sim_cori_easy(options);
    else if (options.workload == "train-mini-dql")
      result = perfbench::run_train_mini_dql(options);
    else if (options.workload == "serve-mini-pg")
      result = perfbench::run_serve_mini_pg(options);
    else
      throw std::invalid_argument("unknown --workload '" + options.workload +
                                  "'");
    std::filesystem::remove_all(options.scratch);
    result.print(options.workload, options.traced);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
