// Mergeable log-bucketed percentile histogram (HDR-histogram style) —
// the registry's one histogram type.
//
// A fixed-bucket histogram answers "how many observations fell below
// X" for a handful of hand-picked bounds; it cannot answer "what is p99
// round time" without guessing bounds up front.  HdrHistogram covers
// the whole range [lowest, highest] with log-spaced buckets at a fixed
// relative resolution, so percentile queries are accurate to
// ~2^-(precision_bits+1) relative error (<= 0.4% at the default 7 bits)
// over ~18 decades, in fixed memory (~8 KiB per decade at 7 bits).
//
// Bucketing uses the IEEE-754 bit pattern directly: for a positive
// normal double v,
//
//     index_raw(v) = bit_cast<uint64_t>(v) >> (52 - precision_bits)
//
// keeps the biased exponent plus the top `precision_bits` mantissa bits.
// The mapping is monotone in v, needs no log() or division on the hot
// path, and slices every octave into 2^precision_bits equal-ratio
// sub-buckets.  Values are clamped to [lowest, highest] before bucketing
// (and before the running sum/min/max, so a stray NaN or negative value
// cannot poison the aggregates).
//
// Merging adds bucket counts — associative and, for the integer state
// (counts, buckets, percentiles), exactly order-independent.  The
// double-precision `sum` is merged by addition, so shard merges follow
// the rollout engine's slot-order discipline to stay deterministic (see
// obs::MetricShard).  All mutating ops on the shared instrument are
// lock-free atomics; a thread-confined copy (MetricShard cell,
// RunRecorder) can use the same type without contention.
//
// Serialization ("HDRH" section) is sparse — config + aggregates +
// (index, count) pairs for non-zero buckets — and round-trips exactly.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

namespace dras::util {
class BinaryReader;
class BinaryWriter;
}  // namespace dras::util

namespace dras::obs {

/// Value range + resolution of an HdrHistogram.  `lowest` must be a
/// positive normal double; observations outside [lowest, highest] are
/// clamped.  `precision_bits` mantissa bits per bucket index give
/// 2^precision_bits sub-buckets per octave (relative bucket width
/// 2^-precision_bits).
struct HdrConfig {
  double lowest = 1e-9;
  double highest = 1e9;
  std::uint32_t precision_bits = 7;

  friend bool operator==(const HdrConfig&, const HdrConfig&) = default;
};

class HdrHistogram {
 public:
  explicit HdrHistogram(HdrConfig config = {});

  /// Relaxed-snapshot copy (no torn aggregates are possible per-field;
  /// cross-field consistency needs external quiescence, which every
  /// caller that copies — tests, shard cells, reports — has).
  HdrHistogram(const HdrHistogram& other);
  HdrHistogram& operator=(const HdrHistogram& other);

  /// Gated observation: no-op unless obs::enabled(); routed through the
  /// current thread's MetricShard when one is active (rollout tasks).
  void observe(double v) noexcept;

  /// Unconditional observation (shard cells, RunRecorder's private
  /// round-time series, tests).
  void record(double v) noexcept;

  /// Unconditional fold-in of `other` (MetricShard::merge, checkpoint
  /// restore).  Same-config merges add bucket counts directly; a
  /// mismatched config re-buckets `other`'s representative values.
  void merge(const HdrHistogram& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const noexcept {
    const auto n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  /// +inf / -inf when empty.
  [[nodiscard]] double min() const noexcept {
    return min_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }

  /// Value at quantile `q` in [0, 100]: the representative (geometric
  /// midpoint) of the bucket holding the ceil(q/100 * count)-th
  /// observation, clamped to the observed [min, max].  0 when empty.
  [[nodiscard]] double percentile(double q) const noexcept;

  void reset() noexcept;

  [[nodiscard]] const HdrConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return buckets_.size();
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Bucket index a value lands in (after clamping); exposed for tests.
  [[nodiscard]] std::size_t index_of(double v) const noexcept;
  /// Representative value reported for bucket `i` (geometric midpoint).
  [[nodiscard]] double bucket_value(std::size_t i) const noexcept;

  /// Checkpoint hooks: "HDRH" section, sparse (index, count) encoding.
  /// load_state adopts the stored config (buckets are re-sized), so a
  /// restore reproduces the saved histogram exactly regardless of how
  /// the in-memory instrument was first registered.
  void save_state(util::BinaryWriter& out) const;
  void load_state(util::BinaryReader& in);

 private:
  void configure(HdrConfig config);
  void copy_from(const HdrHistogram& other) noexcept;
  /// Clamp + bucket + aggregate update; shared by record() and the
  /// write-through path of observe().
  void record_direct(double v) noexcept;

  HdrConfig config_;
  std::uint64_t base_ = 0;  ///< index_raw(lowest); subtracted from indices.
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

}  // namespace dras::obs
