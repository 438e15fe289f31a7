// An immutable, versioned serving model loaded from a checkpoint.
//
// A ModelSnapshot is the unit the hot-swap protocol moves around: the
// ModelWatcher loads one from the newest checkpoint file, the
// DecisionService clones a private replica per inference worker and
// flips a shared_ptr to it, so batched forwards never share mutable
// network scratch across threads.  The snapshot itself is never
// forwarded through after construction — it is a frozen parameter
// source, safe to share read-only between any number of workers.
//
// The version is the episode number encoded in the checkpoint filename
// (ckpt-<episode>.dras), which is exactly the trainer's progress
// counter — so "every response attributable to one snapshot version"
// means attributable to one training episode boundary.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>

#include "core/dras_agent.h"

namespace dras::serve {

class ModelSnapshot {
 public:
  /// Build an agent from `config`, load the agent slice of the
  /// checkpoint at `path` (fingerprint-guarded — a checkpoint written
  /// by a differently configured agent is rejected), disable training
  /// and freeze.  `version` defaults to the episode parsed from the
  /// filename (0 when the name is not a managed checkpoint name).
  /// Throws ckpt::CheckpointError / util::SerializationError on any
  /// framing or content defect — the caller keeps serving the old
  /// snapshot.
  static std::shared_ptr<const ModelSnapshot> load(
      const std::filesystem::path& path, const core::DrasConfig& config);

  [[nodiscard]] const core::DrasConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// Deep copy for one inference worker: parameters and the (disabled)
  /// training flag carry over, so replica decisions are bit-identical
  /// to decisions made directly on the loaded agent.
  [[nodiscard]] std::unique_ptr<core::DrasAgent> make_replica() const {
    return agent_->clone_agent();
  }

  /// The pristine loaded agent (single-threaded use only — tests and
  /// the in-trainer determinism oracle).
  [[nodiscard]] const core::DrasAgent& agent() const noexcept {
    return *agent_;
  }

 private:
  ModelSnapshot(core::DrasConfig config, std::filesystem::path path,
                std::uint64_t version, std::unique_ptr<core::DrasAgent> agent)
      : config_(std::move(config)),
        path_(std::move(path)),
        version_(version),
        agent_(std::move(agent)) {}

  core::DrasConfig config_;
  std::filesystem::path path_;
  std::uint64_t version_ = 0;
  std::unique_ptr<core::DrasAgent> agent_;
};

}  // namespace dras::serve
