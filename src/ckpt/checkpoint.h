// Versioned, checksummed training snapshots (robustness layer).
//
// A checkpoint file is a single atomic unit:
//
//   +-----------+-----------+---------------------+-----------+
//   | "DRASCKP1"| u32 fmt   | payload (sections)  | u32 CRC32 |
//   |  8 bytes  | version   |                     | of all ^  |
//   +-----------+-----------+---------------------+-----------+
//
// The CRC covers magic + version + payload, so truncation, bit rot and
// short writes are all detected before a single payload byte is decoded.
// The payload is a sequence of tagged sections (see util/binio.h)
// produced by the save_state hooks on DrasAgent, Trainer, Curriculum and
// ConvergenceMonitor, plus an "OBSC" section holding the telemetry
// counters — everything needed to continue training bit-identically
// after a crash.
//
// Changing any section layout requires bumping that section's version;
// changing the container framing requires bumping kFormatVersion.  Both
// are pinned by golden-file tests in tests/ckpt.
//
// Format history:
//   v1 — agent + optional trainer/curriculum/monitor + telemetry.
//   v2 — v1 plus an optional trailing "RCVR" recovery-state section
//        (self-healing training: rollback count, LR backoff, RNG nonce).
//        v1 files are still read; they migrate by resetting any supplied
//        RecoveryState to its defaults (tests/ckpt/test_migration.cpp
//        restores a committed v1 golden through this path).
//   v3 — v2 plus an optional trailing "FALT" failure-scenario section
//        (sim/fault.h: the injected fault configuration + cumulative
//        failure/waste statistics), so a crash-resumed faulty run keeps
//        exact waste accounting and re-derives the same failure streams.
//        v1/v2 files migrate by zeroing a supplied scenario's statistics
//        while leaving its (caller-supplied) configuration untouched.
#pragma once

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <string_view>

namespace dras::util {
class BinaryWriter;
class BinaryReader;
}  // namespace dras::util

namespace dras::core {
class DrasAgent;
}  // namespace dras::core

namespace dras::train {
class Trainer;
class Curriculum;
class ConvergenceMonitor;
}  // namespace dras::train

namespace dras::sim {
struct FaultScenario;
}  // namespace dras::sim

namespace dras::ckpt {

/// First 8 bytes of every checkpoint file.
inline constexpr std::string_view kMagic = "DRASCKP1";
/// Container format version (framing, not section layout).
inline constexpr std::uint32_t kFormatVersion = 3;
/// Checkpoint files written by CheckpointManager use this extension.
inline constexpr std::string_view kExtension = ".dras";

/// A checkpoint could not be read: wrong magic, unsupported version,
/// checksum mismatch, or a payload its sections refuse to decode.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Self-healing training state carried by format v2+ ("RCVR" section):
/// how many divergence rollbacks the run has absorbed, the cumulative
/// learning-rate backoff, and the RNG-perturbation nonce — persisted so
/// a crash during recovery resumes with the same retry discipline.
struct RecoveryState {
  std::uint64_t rollbacks = 0;  ///< Divergence rollbacks absorbed so far.
  double lr_scale = 1.0;        ///< Product of per-rollback LR backoffs.
  std::uint64_t rng_nonce = 0;  ///< Perturbs the agent's episode stream.
  /// Consecutive healthy episodes since the last rollback (or the last
  /// LR-recovery step) — feeds the geometric lr_scale decay back toward
  /// 1.0.  "RCVR" section v2; v1 files read as 0.
  std::uint64_t healthy_streak = 0;

  void save_state(util::BinaryWriter& out) const;
  void load_state(util::BinaryReader& in);

  friend bool operator==(const RecoveryState&,
                         const RecoveryState&) = default;
};

/// The set of live objects a checkpoint captures / restores.  All
/// pointers are non-owning; `agent` is required, the rest are optional
/// — but a checkpoint written with a trainer/curriculum/monitor present
/// can only be restored with that component supplied (and vice versa),
/// so save and restore sites must agree.  `recovery` is the deliberate
/// exception: presence may differ between save and restore, so toggling
/// --guard between runs never strands a checkpoint directory.
struct TrainingState {
  core::DrasAgent* agent = nullptr;
  train::Trainer* trainer = nullptr;
  train::Curriculum* curriculum = nullptr;
  train::ConvergenceMonitor* monitor = nullptr;
  /// Self-healing recovery state (format v2).  Restoring a checkpoint
  /// without a stored "RCVR" section (v1 file, or v2 written unguarded)
  /// with this supplied resets it to defaults; a stored section with no
  /// slice supplied is decoded and discarded.
  RecoveryState* recovery = nullptr;
  /// Failure-scenario state (format v3, "FALT" section): the injected
  /// fault configuration plus cumulative failure/waste statistics.  As
  /// loose as `recovery`: presence may differ between save and restore.
  /// Restoring a stored section overwrites both config and stats (the
  /// resumed run continues the captured scenario even if flags changed);
  /// restoring a file without one zeroes the supplied scenario's stats
  /// but keeps its caller-supplied config.  Non-owning.
  sim::FaultScenario* faults = nullptr;
  /// Capture/restore the global obs::Registry counters ("OBSC" section)
  /// so resumed runs report cumulative telemetry.
  bool telemetry = true;
};

/// Serialize `state` into an unframed payload (section sequence) at the
/// current format version.
[[nodiscard]] std::string encode_checkpoint(const TrainingState& state);

/// Decode a payload produced by encode_checkpoint() into the objects in
/// `state`.  `format_version` selects the payload layout (1..
/// kFormatVersion); a payload with no recovery section (v1, or v2
/// written unguarded) resets a supplied `state.recovery` to defaults,
/// and a stored recovery section with no slice supplied is decoded and
/// discarded.  Throws CheckpointError when the payload's
/// trainer/curriculum/monitor set does not match `state`, and
/// util::SerializationError on malformed or mismatched section content.
void decode_checkpoint(std::string_view payload, const TrainingState& state,
                       std::uint32_t format_version = kFormatVersion);

/// Wrap a payload in magic + version + CRC framing.
[[nodiscard]] std::string frame_payload(std::string_view payload);

/// Verify framing (magic, version, checksum) and return the payload: a
/// view into `bytes`, valid while they are, so a load holds the file
/// once, not twice.  Accepts format versions 1..kFormatVersion; when
/// `format_version` is non-null it receives the stored version so
/// callers can decode version-appropriately.  Throws CheckpointError on
/// any framing defect.
[[nodiscard]] std::string_view unframe_payload(
    std::string_view bytes, std::uint32_t* format_version = nullptr);

/// encode + frame + util::atomic_write_file: the file either appears
/// complete and checksummed at `path`, or not at all.
void write_checkpoint_file(const std::filesystem::path& path,
                           const TrainingState& state);

/// Read + unframe + decode.  Throws CheckpointError (framing / missing
/// file) or util::SerializationError (section content).  The checksum is
/// verified before any object is mutated; a decode failure after that
/// point can leave `state` partially restored, so callers must either
/// retry with another checkpoint (every load_state overwrites all
/// fields) or treat the objects as unusable.
void read_checkpoint_file(const std::filesystem::path& path,
                          const TrainingState& state);

}  // namespace dras::ckpt
