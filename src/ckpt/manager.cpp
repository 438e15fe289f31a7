#include "ckpt/manager.h"

#include <algorithm>
#include <cstdio>

#include "core/dras_agent.h"
#include "exec/async_writer.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/binio.h"
#include "util/format.h"
#include "util/fs.h"
#include "util/logging.h"

namespace dras::ckpt {

namespace {

constexpr std::string_view kPrefix = "ckpt-";
constexpr int kEpisodeDigits = 8;

obs::Counter& corrupt_skipped_counter() {
  static obs::Counter& counter =
      obs::Registry::global().counter("ckpt.corrupt_skipped");
  return counter;
}

/// Full checkpoint write latency (serialize + atomic rename + prune).
obs::HdrHistogram& write_us_hdr() {
  static obs::HdrHistogram& hdr = obs::Registry::global().hdr("ckpt.write_us");
  return hdr;
}

}  // namespace

CheckpointManager::CheckpointManager(CheckpointManagerOptions options)
    : options_(std::move(options)) {
  if (options_.dir.empty())
    throw std::invalid_argument("CheckpointManager needs a directory");
}

CheckpointManager::~CheckpointManager() {
  // Pending async jobs capture `this` (for the pointer update + prune);
  // drain them before the members they touch go away.
  if (options_.writer != nullptr) options_.writer->wait_idle();
}

bool CheckpointManager::should_save(
    std::size_t episodes_done) const noexcept {
  return options_.every != 0 && episodes_done != 0 &&
         episodes_done % options_.every == 0;
}

std::filesystem::path CheckpointManager::path_for(std::size_t episode) const {
  char name[64];
  std::snprintf(name, sizeof(name), "%.*s%0*zu%.*s",
                static_cast<int>(kPrefix.size()), kPrefix.data(),
                kEpisodeDigits, episode, static_cast<int>(kExtension.size()),
                kExtension.data());
  return options_.dir / name;
}

std::optional<std::size_t> CheckpointManager::parse_episode(
    const std::filesystem::path& path) {
  const std::string name = path.filename().string();
  if (name.size() <= kPrefix.size() + kExtension.size()) return std::nullopt;
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return std::nullopt;
  if (name.compare(name.size() - kExtension.size(), kExtension.size(),
                   kExtension) != 0)
    return std::nullopt;
  const std::string digits = name.substr(
      kPrefix.size(), name.size() - kPrefix.size() - kExtension.size());
  if (digits.empty()) return std::nullopt;
  std::size_t episode = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    episode = episode * 10 + static_cast<std::size_t>(c - '0');
  }
  return episode;
}

std::vector<std::filesystem::path> CheckpointManager::list() const {
  std::vector<std::filesystem::path> found;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (util::is_atomic_temp_file(entry.path())) continue;
    if (parse_episode(entry.path())) found.push_back(entry.path());
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) {
              return *parse_episode(a) < *parse_episode(b);
            });
  return found;
}

std::filesystem::path CheckpointManager::save(const TrainingState& state,
                                              std::size_t episode) {
  obs::Span save_span(
      "ckpt.save", {obs::targ("episode", static_cast<std::uint64_t>(episode))},
      &write_us_hdr());
  const std::filesystem::path path = path_for(episode);
  if (options_.writer == nullptr) {
    write_checkpoint_file(path, state);
    write_latest_pointer(path);
    last_saved_ = episode;
    util::log_info("checkpoint written: {}", path.string());
    prune();
    return path;
  }
  // Background checkpointing: serialize *here*, on the trainer thread —
  // the bytes capture the state at this exact episode boundary, so the
  // file is byte-identical to a synchronous save.  Only the durability
  // work (atomic write, pointer update, prune) rides the writer thread,
  // and jobs run in submission order so the pointer can never get ahead
  // of its checkpoint.
  std::string framed = frame_payload(encode_checkpoint(state));
  last_saved_ = episode;
  options_.writer->submit(
      util::format("ckpt {}", path.string()),
      [this, path, bytes = std::move(framed)] {
        util::atomic_write_file(path, bytes);
        write_latest_pointer(path);
        util::log_info("checkpoint written (async): {}", path.string());
        prune();
      });
  return path;
}

void CheckpointManager::write_latest_pointer(
    const std::filesystem::path& just_written) {
  // Strictly after the snapshot is fully on disk, so a reader that
  // follows the pointer can never open a partially-renamed checkpoint.
  // The pointer itself is atomic_write_file'd: it reads as either the
  // old name or the new one, never a torn mix.
  util::atomic_write_file(options_.dir / kLatestPointerName,
                          just_written.filename().string() + "\n");
}

void CheckpointManager::prune() {
  if (options_.keep_last == 0) return;
  std::vector<std::filesystem::path> files = list();
  if (files.size() <= options_.keep_last) return;
  const std::size_t excess = files.size() - options_.keep_last;
  for (std::size_t i = 0; i < excess; ++i) {
    std::error_code ec;
    std::filesystem::remove(files[i], ec);
    if (ec) {
      util::log_warn("cannot prune checkpoint {}: {}", files[i].string(),
                     ec.message());
    }
  }
}

std::optional<std::filesystem::path> newest_checkpoint(
    const std::filesystem::path& dir) {
  CheckpointManager manager({.dir = dir});
  std::vector<std::filesystem::path> files = manager.list();
  if (files.empty()) return std::nullopt;
  return files.back();
}

std::optional<std::filesystem::path> read_latest_pointer(
    const std::filesystem::path& dir) {
  std::string contents;
  try {
    contents = util::read_file(dir / kLatestPointerName);
  } catch (const std::exception&) {
    return std::nullopt;  // no pointer yet (or unreadable): fall back
  }
  // First line, trimmed — the writer appends a newline.
  const std::size_t end = contents.find_first_of("\r\n");
  std::string name =
      end == std::string::npos ? contents : contents.substr(0, end);
  while (!name.empty() && (name.back() == ' ' || name.back() == '\t'))
    name.pop_back();
  if (name.empty()) return std::nullopt;
  const std::filesystem::path path = dir / name;
  if (!CheckpointManager::parse_episode(path)) return std::nullopt;
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) return std::nullopt;
  return path;
}

void load_agent_from_checkpoint(const std::filesystem::path& path,
                                core::DrasAgent& agent, bool relaxed) {
  std::string bytes;
  try {
    bytes = util::read_file(path);
  } catch (const std::exception& e) {
    throw CheckpointError(util::format("cannot read checkpoint {}: {}",
                                       path.string(), e.what()));
  }
  util::BinaryReader in(unframe_payload(bytes));
  // "AGNT" leads the payload in every format version; the sections after
  // it (trainer cursor, telemetry, recovery, ...) are deliberately left
  // unread — a warm start adopts the parameters, not the run.
  agent.load_state(in, relaxed);
  util::log_info("warm start: loaded agent from {}", path.string());
}

std::optional<std::filesystem::path> CheckpointManager::restore_latest(
    const TrainingState& state) {
  // With background checkpointing an in-process rollback must not race
  // a write that is still in the writer's queue: quiesce first so the
  // directory reflects every save() this manager has issued.
  if (options_.writer != nullptr) options_.writer->wait_idle();
  std::vector<std::filesystem::path> files = list();
  if (files.empty()) return std::nullopt;
  std::string last_error;
  // Counted, not just logged: recovery drills assert that skips actually
  // happened.  The count is applied only after the winning restore (or
  // the final failure) because a successful restore rewinds the
  // telemetry registry ("OBSC" section) to the snapshot's values —
  // per-skip increments made before it would be silently erased.
  std::uint64_t skipped = 0;
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    try {
      read_checkpoint_file(*it, state);
      if (skipped > 0) corrupt_skipped_counter().add(skipped);
      return *it;
    } catch (const CheckpointError& e) {
      last_error = e.what();
    } catch (const util::SerializationError& e) {
      last_error = e.what();
    }
    ++skipped;
    util::log_warn("skipping unusable checkpoint {}: {}", it->string(),
                   last_error);
  }
  corrupt_skipped_counter().add(skipped);
  throw CheckpointError(util::format(
      "all {} checkpoints in {} are unreadable (last error: {})",
      files.size(), options_.dir.string(), last_error));
}

}  // namespace dras::ckpt
