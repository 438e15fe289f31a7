// One telemetry session per tool or bench run: the shared flag layer.
//
// Every binary that reports telemetry (dras_sim, dras_serve, the bench
// harnesses) takes the same five flags and wires them the same way:
//
//   --trace-out FILE    event trace at FILE ("-" = stderr), published
//                       atomically on finish
//   --trace-format F    chrome (default) | jsonl; anything else throws
//                       std::invalid_argument, so every tool exits 2
//   --metrics-out FILE  registry dump on finish (.csv -> CSV, else JSON)
//   --profile           registry table to stderr on finish
//   --run-dir DIR       run.json + rounds.jsonl (RunRecorder),
//                       metrics.json, and — unless --trace-out already
//                       names the trace — DIR/trace.json in the chosen
//                       format
//
// Any of --metrics-out / --profile / --run-dir turns the metrics
// registry on; a trace installs itself as obs::default_tracer().  While
// the session lives, an InterruptGuard flush hook marks the manifest
// interrupted and drains the recorder and tracer, so a ^C'd run keeps
// its partial telemetry.  Declare the tool's InterruptGuard *after* the
// session: the guard's destructor joins the watcher thread that may be
// running the hook, so it must run first.
//
// finish(exit_code) is the one shutdown path: it writes metrics.json
// and --metrics-out, closes the trace, prints --profile and finalises
// run.json.  A session destroyed without finish() leaves a manifest
// with completed=false, so an aborted run stays distinguishable.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "obs/run_manifest.h"
#include "obs/trace.h"

namespace dras::util {
class Args;
}  // namespace dras::util

namespace dras::obs {

/// The config fingerprint format: CRC-32 of `canonical` as eight
/// lowercase hex digits.  Tools build `canonical` from the flags that
/// change results and leave out output paths and worker counts, so runs
/// that differ only there stay comparable in dras_report.
[[nodiscard]] std::string config_fingerprint(std::string_view canonical);

class RunSession {
 public:
  /// Reads the five shared flags from `args` (marking them used) and
  /// opens the trace and run directory they ask for.  `info` describes
  /// the run for the manifest.  Throws std::invalid_argument on an
  /// unknown --trace-format and std::runtime_error when an output
  /// cannot be created.
  RunSession(const util::Args& args, RunInfo info);
  ~RunSession();

  RunSession(const RunSession&) = delete;
  RunSession& operator=(const RunSession&) = delete;

  /// The session's tracer (--trace-out or the run dir's trace.json), or
  /// nullptr.
  [[nodiscard]] EventTracer* tracer() const noexcept { return tracer_.get(); }
  /// The --run-dir recorder, or nullptr.  Wire it into
  /// train::RunOptions::run to fill rounds.jsonl.
  [[nodiscard]] RunRecorder* recorder() const noexcept {
    return recorder_.get();
  }

  /// Manifest annotations; no-ops without --run-dir.
  void note(std::string_view key, std::string_view value);
  void set_stat(std::string_view name, double value);
  void set_final_score(double score);

  /// Write every requested output and finalise run.json with
  /// `exit_code` (marked interrupted when a SIGINT/SIGTERM arrived).
  /// Returns false when a write failed — the error is printed and the
  /// manifest records exit code 2 in place of a 0.  Later calls return
  /// the first result and write nothing.
  bool finish(int exit_code);

 private:
  void detach() noexcept;

  std::unique_ptr<EventTracer> tracer_;
  std::unique_ptr<RunRecorder> recorder_;
  std::string metrics_out_;
  bool profile_ = false;
  bool finished_ = false;
  bool finish_ok_ = true;
};

}  // namespace dras::obs
