#include "obs/run_manifest.h"

#include <chrono>
#include <sstream>

#include "util/format.h"
#include "util/fs.h"
#include "util/json.h"

namespace dras::obs {

namespace {

constexpr int kManifestSchema = 1;

double unix_seconds_now() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void append_percentiles(std::ostream& out, const HdrHistogram& h) {
  out << util::format(
      "{{\"count\":{},\"mean\":{},\"min\":{},\"max\":{},\"p50\":{},"
      "\"p90\":{},\"p99\":{},\"p999\":{}}}",
      h.count(), h.mean(), h.count() > 0 ? h.min() : 0.0,
      h.count() > 0 ? h.max() : 0.0, h.percentile(50.0), h.percentile(90.0),
      h.percentile(99.0), h.percentile(99.9));
}

}  // namespace

RunRecorder::RunRecorder(std::filesystem::path dir, RunInfo info)
    : dir_(std::move(dir)),
      info_(std::move(info)),
      // Round times live in [µs, hours]; the default range covers it.
      round_wall_s_(HdrConfig{}),
      started_unix_(unix_seconds_now()),
      epoch_(std::chrono::steady_clock::now()) {
  std::filesystem::create_directories(dir_);
  rounds_sink_ = std::make_unique<FileSink>(rounds_path());
  // Persist the manifest immediately: a run that dies in its first round
  // still leaves an identifiable directory behind.
  const std::scoped_lock lock(mutex_);
  write_manifest_locked(/*completed=*/false);
}

RunRecorder::~RunRecorder() {
  const std::scoped_lock lock(mutex_);
  if (!finished_) {
    finished_ = true;
    write_manifest_locked(/*completed=*/false);
  }
  rounds_sink_->close();
}

void RunRecorder::record_round(const RoundRecord& r) {
  const std::scoped_lock lock(mutex_);
  round_wall_s_.record(r.wall_seconds);
  rounds_ += 1;
  episodes_ += r.episodes;
  rollbacks_ = r.rollbacks;
  std::ostringstream line;
  line << util::format(
      "{{\"round\":{},\"first_episode\":{},\"episodes\":{},\"loss\":{},"
      "\"reward\":{},\"validation\":{},\"epsilon\":{},\"lr_scale\":{},"
      "\"rollbacks\":{},\"wall_s\":{},\"t\":{}",
      r.round, r.first_episode, r.episodes, r.mean_loss,
      r.mean_training_reward, r.validation_reward, r.epsilon, r.lr_scale,
      r.rollbacks, r.wall_seconds,
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    epoch_)
          .count());
  line << util::format(",\"p50\":{},\"p90\":{},\"p99\":{}}}\n",
                       round_wall_s_.percentile(50.0),
                       round_wall_s_.percentile(90.0),
                       round_wall_s_.percentile(99.0));
  rounds_sink_->write(line.str());
}

void RunRecorder::set_final_score(double score) {
  const std::scoped_lock lock(mutex_);
  final_score_ = score;
}

void RunRecorder::note(std::string_view key, std::string_view value) {
  const std::scoped_lock lock(mutex_);
  notes_[std::string(key)] = std::string(value);
}

void RunRecorder::set_stat(std::string_view name, double value) {
  const std::scoped_lock lock(mutex_);
  stats_[std::string(name)] = value;
}

void RunRecorder::mark_interrupted(int signal) {
  const std::scoped_lock lock(mutex_);
  interrupted_ = true;
  signal_ = signal;
}

void RunRecorder::flush() {
  const std::scoped_lock lock(mutex_);
  rounds_sink_->flush();
  write_manifest_locked(/*completed=*/finished_);
}

void RunRecorder::finish(int exit_code) {
  const std::scoped_lock lock(mutex_);
  finished_ = true;
  exit_code_ = exit_code;
  rounds_sink_->close();
  write_manifest_locked(/*completed=*/true);
}

std::uint64_t RunRecorder::rounds_recorded() const {
  const std::scoped_lock lock(mutex_);
  return rounds_;
}

std::string RunRecorder::manifest_json_locked(bool completed) const {
  std::ostringstream out;
  out << "{\"schema\":" << kManifestSchema;
  out << ",\"tool\":" << util::json::quote(info_.tool);
  out << ",\"argv\":[";
  for (std::size_t i = 0; i < info_.argv.size(); ++i)
    out << (i ? "," : "") << util::json::quote(info_.argv[i]);
  out << ']';
  out << util::format(",\"seed\":{}", info_.seed);
  out << ",\"config_fingerprint\":"
      << util::json::quote(info_.config_fingerprint);
  out << ",\"build\":{\"compiler\":" << util::json::quote(__VERSION__)
#ifdef NDEBUG
      << ",\"debug\":false"
#else
      << ",\"debug\":true"
#endif
      << '}';
  out << util::format(",\"started_unix\":{},\"wall_seconds\":{}",
                      started_unix_,
                      std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - epoch_)
                          .count());
  out << util::format(",\"rounds\":{},\"episodes\":{},\"rollbacks\":{}",
                      rounds_, episodes_, rollbacks_);
  out << ",\"round_wall_s\":";
  append_percentiles(out, round_wall_s_);
  if (final_score_) out << util::format(",\"final_score\":{}", *final_score_);
  out << ",\"completed\":" << (completed ? "true" : "false");
  out << util::format(",\"exit_code\":{}", exit_code_);
  out << ",\"interrupted\":" << (interrupted_ ? "true" : "false");
  if (interrupted_) out << util::format(",\"signal\":{}", signal_);
  out << ",\"stats\":{";
  bool first_stat = true;
  for (const auto& [key, value] : stats_) {
    if (!first_stat) out << ',';
    first_stat = false;
    out << util::json::quote(key) << ':' << util::format("{}", value);
  }
  out << '}';
  out << ",\"notes\":{";
  bool first = true;
  for (const auto& [key, value] : notes_) {
    if (!first) out << ',';
    first = false;
    out << util::json::quote(key) << ':' << util::json::quote(value);
  }
  out << "}}\n";
  return out.str();
}

void RunRecorder::write_manifest_locked(bool completed) const {
  util::atomic_write_file(manifest_path(), manifest_json_locked(completed));
}

}  // namespace dras::obs
