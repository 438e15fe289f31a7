#include "ckpt/checkpoint.h"

#include "core/dras_agent.h"
#include "obs/metrics.h"
#include "sim/fault.h"
#include "train/convergence.h"
#include "train/curriculum.h"
#include "train/trainer.h"
#include "util/binio.h"
#include "util/format.h"
#include "util/fs.h"

namespace dras::ckpt {

namespace {

void save_counters(util::BinaryWriter& out) {
  out.section("OBSC", 2);
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  for (const obs::MetricSnapshot& metric : obs::Registry::global().snapshot()) {
    if (metric.kind != obs::MetricKind::Counter) continue;
    counters.emplace_back(metric.name,
                          static_cast<std::uint64_t>(metric.value));
  }
  out.u64(counters.size());
  for (const auto& [name, value] : counters) {
    out.str(name);
    out.u64(value);
  }
  // v2 tail: hdr histograms, so restored runs keep their latency
  // percentiles (and a divergence rollback rewinds them with the rest
  // of the registry).  hdr_names() is dump order — sorted, stable.
  obs::Registry& reg = obs::Registry::global();
  const std::vector<std::string> hdrs = reg.hdr_names();
  out.u64(hdrs.size());
  for (const std::string& name : hdrs) {
    out.str(name);
    reg.hdr(name).save_state(out);
  }
}

void load_counters(util::BinaryReader& in) {
  const std::uint32_t version = in.section("OBSC", 2);
  const std::uint64_t count = in.u64();
  obs::Registry& reg = obs::Registry::global();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string name = in.str();
    const std::uint64_t value = in.u64();
    reg.counter(name).restore(value);
  }
  if (version < 2) return;  // v1 predates hdr histograms
  const std::uint64_t hdr_count = in.u64();
  for (std::uint64_t i = 0; i < hdr_count; ++i) {
    const std::string name = in.str();
    // load_state adopts the stored config, so a registry that created
    // the metric with different bucketing still restores exactly.
    reg.hdr(name).load_state(in);
  }
}

void save_fault_scenario(util::BinaryWriter& out,
                         const sim::FaultScenario& scenario) {
  out.section("FALT", 1);
  const sim::FaultConfig& c = scenario.config;
  out.f64(c.mtbf);
  out.f64(c.repair_time);
  out.u32(static_cast<std::uint32_t>(c.requeue));
  out.f64(c.ckpt_interval);
  out.f64(c.ckpt_seconds_per_node);
  out.f64(c.io_bandwidth);
  out.f64(c.feature_window);
  out.u64(c.seed);
  out.u64(c.groups.size());
  for (const sim::FaultNodeGroup& group : c.groups) {
    out.i64(group.nodes);
    out.f64(group.mtbf);
  }
  const sim::FaultStats& s = scenario.stats;
  out.u64(s.node_failures);
  out.u64(s.job_kills);
  out.u64(s.requeues);
  out.u64(s.checkpoints);
  out.f64(s.wasted_node_seconds);
}

void load_fault_scenario(util::BinaryReader& in,
                         sim::FaultScenario& scenario) {
  in.section("FALT", 1);
  sim::FaultConfig c;
  c.mtbf = in.f64();
  c.repair_time = in.f64();
  const std::uint32_t requeue = in.u32();
  if (requeue > static_cast<std::uint32_t>(sim::RequeuePolicy::Drop))
    throw CheckpointError(util::format(
        "checkpoint FALT section names unknown requeue policy {}", requeue));
  c.requeue = static_cast<sim::RequeuePolicy>(requeue);
  c.ckpt_interval = in.f64();
  c.ckpt_seconds_per_node = in.f64();
  c.io_bandwidth = in.f64();
  c.feature_window = in.f64();
  c.seed = in.u64();
  const std::uint64_t group_count = in.u64();
  c.groups.resize(group_count);
  for (sim::FaultNodeGroup& group : c.groups) {
    group.nodes = static_cast<int>(in.i64());
    group.mtbf = in.f64();
  }
  sim::FaultStats s;
  s.node_failures = in.u64();
  s.job_kills = in.u64();
  s.requeues = in.u64();
  s.checkpoints = in.u64();
  s.wasted_node_seconds = in.f64();
  scenario.config = std::move(c);
  scenario.stats = s;
}

void require(bool stored, bool supplied, std::string_view component) {
  if (stored == supplied) return;
  throw CheckpointError(
      stored ? util::format(
                   "checkpoint contains {} state but none was supplied "
                   "to decode into",
                   component)
             : util::format(
                   "checkpoint has no {} state but one was supplied; "
                   "save and restore sites must capture the same "
                   "components",
                   component));
}

}  // namespace

void RecoveryState::save_state(util::BinaryWriter& out) const {
  out.section("RCVR", 2);
  out.u64(rollbacks);
  out.f64(lr_scale);
  out.u64(rng_nonce);
  out.u64(healthy_streak);
}

void RecoveryState::load_state(util::BinaryReader& in) {
  const std::uint32_t version = in.section("RCVR", 2);
  rollbacks = in.u64();
  lr_scale = in.f64();
  rng_nonce = in.u64();
  // v1 predates LR recovery decay: the captured run tracked no streak.
  healthy_streak = version >= 2 ? in.u64() : 0;
}

std::string encode_checkpoint(const TrainingState& state) {
  if (state.agent == nullptr)
    throw CheckpointError("checkpoint state needs an agent");
  util::BinaryWriter out;
  state.agent->save_state(out);
  out.boolean(state.trainer != nullptr);
  if (state.trainer != nullptr) state.trainer->save_state(out);
  out.boolean(state.curriculum != nullptr);
  if (state.curriculum != nullptr) state.curriculum->save_state(out);
  out.boolean(state.monitor != nullptr);
  if (state.monitor != nullptr) state.monitor->save_state(out);
  out.boolean(state.telemetry);
  if (state.telemetry) save_counters(out);
  // v2 tail: self-healing recovery state.
  out.boolean(state.recovery != nullptr);
  if (state.recovery != nullptr) state.recovery->save_state(out);
  // v3 tail: failure-scenario config + cumulative waste statistics.
  out.boolean(state.faults != nullptr);
  if (state.faults != nullptr) save_fault_scenario(out, *state.faults);
  return out.take();
}

void decode_checkpoint(std::string_view payload, const TrainingState& state,
                       std::uint32_t format_version) {
  if (state.agent == nullptr)
    throw CheckpointError("checkpoint state needs an agent");
  if (format_version == 0 || format_version > kFormatVersion)
    throw CheckpointError(util::format(
        "cannot decode payload format version {} (this build reads "
        "versions 1..{})",
        format_version, kFormatVersion));
  util::BinaryReader in(payload);
  state.agent->load_state(in);
  require(in.boolean(), state.trainer != nullptr, "trainer");
  if (state.trainer != nullptr) state.trainer->load_state(in);
  require(in.boolean(), state.curriculum != nullptr, "curriculum");
  if (state.curriculum != nullptr) state.curriculum->load_state(in);
  require(in.boolean(), state.monitor != nullptr, "convergence-monitor");
  if (state.monitor != nullptr) state.monitor->load_state(in);
  if (in.boolean()) load_counters(in);
  // Recovery is deliberately looser than the require()d components
  // above: toggling --guard between runs must not strand an existing
  // checkpoint directory in either direction.
  if (format_version >= 2) {
    const bool stored = in.boolean();
    if (stored && state.recovery != nullptr) {
      state.recovery->load_state(in);
    } else if (stored) {
      // Guarded checkpoint read by an unguarded run: decode and discard
      // the "RCVR" section so the stream stays aligned.
      RecoveryState discarded;
      discarded.load_state(in);
    } else if (state.recovery != nullptr) {
      // Unguarded checkpoint read by a guarded run: the captured run
      // absorbed no rollbacks — same reset as the v1 migration.
      *state.recovery = RecoveryState{};
    }
  } else if (state.recovery != nullptr) {
    // v1→v2 migration: the file predates self-healing, so the run it
    // captures has absorbed no rollbacks and carries no LR backoff.
    *state.recovery = RecoveryState{};
  }
  // Failure scenario ("FALT", v3) — as loose as recovery: toggling fault
  // injection between runs must not strand a checkpoint directory.
  if (format_version >= 3) {
    const bool stored = in.boolean();
    if (stored && state.faults != nullptr) {
      load_fault_scenario(in, *state.faults);
    } else if (stored) {
      // Faulty checkpoint read by a fault-free run: decode and discard
      // the section so the stream stays aligned.
      sim::FaultScenario discarded;
      load_fault_scenario(in, discarded);
    } else if (state.faults != nullptr) {
      // Fault-free checkpoint read by a faulty run: the captured run
      // accumulated no waste; keep the caller's config.
      state.faults->stats = sim::FaultStats{};
    }
  } else if (state.faults != nullptr) {
    // v1/v2 migration: the file predates fault injection.
    state.faults->stats = sim::FaultStats{};
  }
  in.expect_exhausted();
}

std::string frame_payload(std::string_view payload) {
  std::string bytes;
  bytes.reserve(kMagic.size() + sizeof(std::uint32_t) * 2 + payload.size());
  bytes.append(kMagic);
  util::BinaryWriter header;
  header.u32(kFormatVersion);
  bytes.append(header.buffer());
  bytes.append(payload);
  const std::uint32_t checksum = util::crc32(bytes);
  util::BinaryWriter trailer;
  trailer.u32(checksum);
  bytes.append(trailer.buffer());
  return bytes;
}

std::string_view unframe_payload(std::string_view bytes,
                                 std::uint32_t* format_version) {
  constexpr std::size_t kHeader = 8 + sizeof(std::uint32_t);
  constexpr std::size_t kTrailer = sizeof(std::uint32_t);
  if (bytes.size() < kHeader + kTrailer)
    throw CheckpointError(util::format(
        "checkpoint is {} bytes — too short to hold the {}-byte "
        "header and checksum; file is truncated",
        bytes.size(), kHeader + kTrailer));
  if (bytes.substr(0, kMagic.size()) != kMagic)
    throw CheckpointError(
        "not a DRAS checkpoint (magic bytes \"DRASCKP1\" missing)");

  const std::string_view checked = bytes.substr(0, bytes.size() - kTrailer);
  util::BinaryReader trailer(bytes.substr(bytes.size() - kTrailer));
  const std::uint32_t stored_crc = trailer.u32();
  const std::uint32_t actual_crc = util::crc32(checked);
  if (stored_crc != actual_crc)
    throw CheckpointError(util::format(
        "checkpoint checksum mismatch (stored {}, computed {}) — "
        "file is corrupt or was truncated mid-write",
        stored_crc, actual_crc));

  util::BinaryReader header(bytes.substr(kMagic.size(), sizeof(std::uint32_t)));
  const std::uint32_t version = header.u32();
  if (version == 0 || version > kFormatVersion)
    throw CheckpointError(util::format(
        "checkpoint format version {} unsupported (this build reads "
        "versions 1..{})",
        version, kFormatVersion));
  if (format_version != nullptr) *format_version = version;

  return checked.substr(kHeader);
}

void write_checkpoint_file(const std::filesystem::path& path,
                           const TrainingState& state) {
  util::atomic_write_file(path, frame_payload(encode_checkpoint(state)));
}

void read_checkpoint_file(const std::filesystem::path& path,
                          const TrainingState& state) {
  std::string bytes;
  try {
    bytes = util::read_file(path);
  } catch (const std::exception& e) {
    throw CheckpointError(
        util::format("cannot read checkpoint {}: {}", path.string(),
                     e.what()));
  }
  std::uint32_t version = 0;
  const std::string_view payload = unframe_payload(bytes, &version);
  decode_checkpoint(payload, state, version);
}

}  // namespace dras::ckpt
