// An immutable, versioned serving model loaded from a checkpoint.
//
// A ModelSnapshot is the unit the hot-swap protocol moves around: the
// ModelWatcher loads one from the newest checkpoint file and the
// DecisionService flips a shared_ptr to it.  It is the only model
// serving reads: every inference worker and the client's degraded
// fallback decide on agent() directly, shared read-only, through the
// const batched forward (its activations are per thread), so a swap
// copies nothing.
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

  /// A private deep copy for serve::reference_decision, the
  /// single-sample oracle that needs a mutable agent: parameters and the
  /// (disabled) training flag carry over, so its decisions are
  /// bit-identical to decisions made on agent().  No serving path uses it.
  [[nodiscard]] std::unique_ptr<core::DrasAgent> make_replica() const {
    return agent_->clone_agent();
  }

  /// The loaded agent, frozen.  Any number of threads may serve from it
  /// at once through its const interface (serve::decide).
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
