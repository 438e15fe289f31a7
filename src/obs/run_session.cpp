#include "obs/run_session.h"

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/sink.h"
#include "util/args.h"
#include "util/binio.h"
#include "util/format.h"
#include "util/fs.h"
#include "util/signal.h"

namespace dras::obs {

std::string config_fingerprint(std::string_view canonical) {
  char hex[9];
  std::snprintf(hex, sizeof(hex), "%08x", util::crc32(canonical));
  return hex;
}

namespace {

TraceFormat parse_trace_format(const std::string& name) {
  if (name == "chrome") return TraceFormat::ChromeJson;
  if (name == "jsonl") return TraceFormat::Jsonl;
  throw std::invalid_argument(
      util::format("unknown trace format '{}'", name));
}

/// Run `write`; on failure print why `path` could not be written and
/// return false.
template <typename Write>
bool write_or_report(const std::filesystem::path& path, Write&& write) {
  try {
    write();
    return true;
  } catch (const std::exception& e) {
    std::cerr << util::format("error: cannot write '{}': {}\n",
                              path.string(), e.what());
    return false;
  }
}

}  // namespace

RunSession::RunSession(const util::Args& args, RunInfo info)
    : metrics_out_(args.get("metrics-out", "")),
      profile_(args.flag("profile")) {
  const TraceFormat format =
      parse_trace_format(args.get("trace-format", "chrome"));
  if (args.has("trace-out")) {
    // Atomic sink: the file appears only once finalised, so a crash
    // never leaves truncated JSON at the target path.
    tracer_ = std::make_unique<EventTracer>(
        make_sink(args.get("trace-out", ""), /*atomic=*/true), format);
  }
  if (args.has("run-dir")) {
    recorder_ = std::make_unique<RunRecorder>(args.get("run-dir", ""),
                                              std::move(info));
    if (!tracer_) {
      // Plain sink: the interrupt hook drains partial traces, and a crash
      // leaves a salvageable prefix instead of nothing.
      tracer_ = std::make_unique<EventTracer>(
          std::make_unique<FileSink>(recorder_->trace_path()), format);
    }
  }
  if (tracer_) set_default_tracer(tracer_.get());
  if (profile_ || !metrics_out_.empty() || recorder_) set_enabled(true);
  if (tracer_ || recorder_) {
    util::InterruptGuard::add_flush_hook([this] {
      if (recorder_) {
        recorder_->mark_interrupted(util::InterruptGuard::signal_received());
        recorder_->flush();
      }
      if (tracer_) tracer_->flush();
    });
  }
}

RunSession::~RunSession() { detach(); }

void RunSession::detach() noexcept {
  // The flush hook points at this session and the default tracer at its
  // tracer; drop both before either can dangle.
  util::InterruptGuard::clear_flush_hooks();
  if (tracer_ && default_tracer() == tracer_.get())
    set_default_tracer(nullptr);
}

void RunSession::note(std::string_view key, std::string_view value) {
  if (recorder_) recorder_->note(key, value);
}

void RunSession::set_stat(std::string_view name, double value) {
  if (recorder_) recorder_->set_stat(name, value);
}

void RunSession::set_final_score(double score) {
  if (recorder_) recorder_->set_final_score(score);
}

bool RunSession::finish(int exit_code) {
  if (finished_) return finish_ok_;
  finished_ = true;
  detach();
  const Registry& registry = Registry::global();
  bool ok = true;
  if (recorder_) {
    const auto path = recorder_->metrics_path();
    ok = write_or_report(path, [&] {
      util::atomic_write_file(path, metrics_to_json(registry));
    });
  }
  if (!metrics_out_.empty()) {
    const bool as_csv = metrics_out_.ends_with(".csv");
    ok = write_or_report(metrics_out_, [&] {
           util::atomic_write_file(metrics_out_,
                                   as_csv ? metrics_to_csv(registry)
                                          : metrics_to_json(registry));
         }) && ok;
  }
  if (tracer_) tracer_->close();
  if (profile_) std::cerr << metrics_to_text(registry);
  if (recorder_) {
    if (util::InterruptGuard::interrupted())
      recorder_->mark_interrupted(util::InterruptGuard::signal_received());
    const int recorded = ok || exit_code != 0 ? exit_code : 2;
    ok = write_or_report(recorder_->manifest_path(),
                         [&] { recorder_->finish(recorded); }) && ok;
  }
  finish_ok_ = ok;
  return ok;
}

}  // namespace dras::obs
