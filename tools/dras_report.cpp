// dras_report — offline analyzer and regression gate for run
// directories produced by `dras_sim --run-dir` / bench `--run-dir`.
//
//   dras_report RUN_DIR...                 summary tables per run
//   dras_report --format json RUN_DIR...   machine-readable summaries
//   dras_report --compare BASELINE CANDIDATE
//       A/B comparison with relative-delta thresholds; exits 1 on
//       regression (the CI telemetry gate), 2 on usage or I/O errors.
//
// Thresholds default to round_time_p99=0.10,final_score=0.10 and are
// overridden (replaced) with --threshold NAME=FRACTION[,NAME=FRACTION...]
// using the metric names documented in src/obs/report.h.

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "obs/report.h"
#include "util/args.h"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitRegressed = 1;
constexpr int kExitError = 2;

void usage() {
  std::fputs(
      "usage: dras_report [--format md|json] RUN_DIR...\n"
      "       dras_report --compare BASELINE CANDIDATE\n"
      "                   [--threshold NAME=FRACTION[,NAME=FRACTION...]]\n"
      "\n"
      "Summarizes run directories written by `dras_sim --run-dir` (and the\n"
      "bench harness): percentile tables for round time and every hdr\n"
      "distribution.  --compare gates candidate against baseline and\n"
      "exits 1 when any thresholded metric regresses (default thresholds:\n"
      "round_time_p99=0.10,final_score=0.10).  Metric names: round_time_p50/\n"
      "p90/p99/p999/mean, final_score, wall_seconds, episodes, rounds, and\n"
      "hdr:<metric>:<stat> for any hdr metric in metrics.json, plus any\n"
      "key in the manifest's \"stats\" object (e.g. dras_serve's\n"
      "decisions_per_sec; *_per_sec rates regress downward).\n",
      stderr);
}

std::vector<dras::obs::report::Threshold> parse_thresholds(
    const std::string& specs) {
  std::vector<dras::obs::report::Threshold> thresholds;
  std::size_t start = 0;
  while (start <= specs.size()) {
    const auto comma = specs.find(',', start);
    const auto part = specs.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!part.empty())
      thresholds.push_back(dras::obs::report::parse_threshold(part));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return thresholds;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dras::obs::report;
  try {
    const dras::util::Args args(argc, argv, {"compare", "help"});
    if (args.flag("help")) {
      usage();
      return kExitOk;
    }
    const std::string format = args.get("format", "md");
    if (format != "md" && format != "json") {
      std::fprintf(stderr, "dras_report: unknown --format '%s'\n",
                   format.c_str());
      return kExitError;
    }

    if (args.flag("compare")) {
      if (args.positional().size() != 2) {
        usage();
        return kExitError;
      }
      const RunData baseline = load_run(args.positional()[0]);
      const RunData candidate = load_run(args.positional()[1]);
      std::vector<Threshold> thresholds = default_thresholds();
      if (args.has("threshold"))
        thresholds = parse_thresholds(args.get("threshold", ""));
      if (thresholds.empty()) {
        std::fputs("dras_report: no thresholds to compare\n", stderr);
        return kExitError;
      }
      const CompareResult result =
          compare_runs(baseline, candidate, thresholds);
      std::fputs(compare_markdown(baseline, candidate, result).c_str(),
                 stdout);
      return result.regressed ? kExitRegressed : kExitOk;
    }

    if (args.positional().empty()) {
      usage();
      return kExitError;
    }
    for (const std::string& dir : args.positional()) {
      const RunData run = load_run(dir);
      std::fputs(
          (format == "json" ? summary_json(run) : summary_markdown(run))
              .c_str(),
          stdout);
      if (format == "md" && args.positional().size() > 1)
        std::fputs("\n", stdout);
    }
    return kExitOk;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dras_report: %s\n", e.what());
    return kExitError;
  }
}
