// Process-wide metrics registry: named counters, gauges and mergeable
// percentile histograms (HdrHistogram), plus a scoped RAII timer.
//
// Design goals, in order:
//   1. Near-zero cost when telemetry is disabled.  Every hot operation
//      (Counter::add, HdrHistogram::observe, ScopedTimer) first checks one
//      relaxed atomic bool; when it is false the operation touches no
//      shared state, performs no allocation and reads no clock.
//   2. Thread safety.  Metric values are atomics; registration takes a
//      mutex but instruments hold stable pointers, so steady-state use is
//      lock-free.
//   3. Registration is always allowed (even while disabled) so handles
//      acquired at startup stay valid when telemetry is toggled later.
//
// Typical use:
//
//   auto& started = obs::Registry::global().counter("sim.jobs.started");
//   ...
//   started.add();                      // no-op unless obs::set_enabled(true)
//
//   auto& lat = obs::Registry::global().hdr("sim.schedule_us");
//   { obs::ScopedTimer t(lat); policy.schedule(ctx); }
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/hdr_histogram.h"

namespace dras::obs {

class Counter;
class Gauge;

/// Thread-confined buffer of metric writes (the rollout engine's
/// per-task telemetry shard).  While a ShardScope is active on a
/// thread, every Counter::add / Gauge::set / Gauge::add /
/// HdrHistogram::observe on that thread lands here instead of in the
/// shared atomics; merge() later folds the buffered writes into the
/// real instruments in one deterministic, single-threaded pass.
///
/// Why: concurrent clones hammering shared CAS loops would make
/// double-precision gauge/histogram sums depend on interleaving order,
/// and a half-flushed registry could not be rewound cleanly on a
/// divergence rollback.  Shards confine each task's writes until the
/// round boundary; merging in ascending task index makes the registry
/// content a pure function of the batch, not of scheduling.
///
/// Lookup is a linear scan in insertion order — deterministic, and
/// cheap at the ~dozen instruments a rollout episode touches.
class MetricShard {
 public:
  void counter_add(Counter* counter, std::uint64_t n);
  void gauge_set(Gauge* gauge, double v);
  void gauge_add(Gauge* gauge, double delta);
  void hdr_observe(HdrHistogram* hdr, double v);

  /// Fold every buffered write into the real instruments, then clear.
  /// Callers own the ordering contract: merge shards in ascending task
  /// index (the obs half of the rollout reduction-order discipline).
  void merge();

  [[nodiscard]] bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && hdrs_.empty();
  }

 private:
  struct CounterCell {
    Counter* counter;
    std::uint64_t value;
  };
  struct GaugeCell {
    Gauge* gauge;
    bool has_set;      // a set() clobbers earlier deltas
    double set_value;
    double delta;      // adds since the last set (or since the start)
  };
  struct HdrCell {
    HdrHistogram* target;
    // Heap cell: HdrHistogram holds atomics and cannot be moved with
    // the vector; the local copy shares the target's config.
    std::unique_ptr<HdrHistogram> local;
  };

  std::vector<CounterCell> counters_;
  std::vector<GaugeCell> gauges_;
  std::vector<HdrCell> hdrs_;
};

namespace detail {
extern std::atomic<bool> g_enabled;
/// The active shard of the current thread (null = write through to the
/// shared instruments).  Managed by ShardScope; checked only inside the
/// enabled() branch, so the disabled fast path is untouched.
extern thread_local MetricShard* t_shard;
}  // namespace detail

/// RAII: route the current thread's metric writes into `shard` for the
/// scope's lifetime (nests; the previous target is restored on exit).
class ShardScope {
 public:
  explicit ShardScope(MetricShard& shard) noexcept
      : previous_(detail::t_shard) {
    detail::t_shard = &shard;
  }
  ~ShardScope() { detail::t_shard = previous_; }
  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;

 private:
  MetricShard* previous_;
};

/// Runtime master switch; starts disabled.
void set_enabled(bool on) noexcept;

/// Is telemetry active?  One relaxed load.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!enabled()) return;
    if (detail::t_shard != nullptr) {
      detail::t_shard->counter_add(this, n);
      return;
    }
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }
  /// Overwrite the count (checkpoint restore); unconditional like reset(),
  /// so restored telemetry survives a disabled→enabled toggle.
  void restore(std::uint64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  /// Unconditional fold-in (MetricShard::merge); not gated on enabled()
  /// so a mid-round toggle cannot drop writes already buffered.
  void absorb(std::uint64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept {
    if (!enabled()) return;
    if (detail::t_shard != nullptr) {
      detail::t_shard->gauge_set(this, v);
      return;
    }
    value_.store(v, std::memory_order_relaxed);
  }
  void add(double delta) noexcept;
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }
  /// Unconditional fold-ins (MetricShard::merge).
  void absorb_set(double v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void absorb_add(double delta) noexcept;

 private:
  std::atomic<double> value_{0.0};
};

/// RAII wall-clock timer recording elapsed microseconds into an hdr
/// histogram on destruction.  When telemetry is disabled at construction
/// time the clock is never read.
class ScopedTimer {
 public:
  explicit ScopedTimer(HdrHistogram& target) noexcept
      : target_(enabled() ? &target : nullptr),
        start_(target_ ? std::chrono::steady_clock::now()
                       : std::chrono::steady_clock::time_point{}) {}
  ~ScopedTimer() {
    if (target_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    target_->observe(
        std::chrono::duration<double, std::micro>(elapsed).count());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  HdrHistogram* target_;
  std::chrono::steady_clock::time_point start_;
};

enum class MetricKind { Counter, Gauge, Hdr };

/// Point-in-time copy of one metric, for dumps and tests.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  double value = 0.0;           ///< counter / gauge value; hdr sum.
  std::uint64_t count = 0;      ///< hdr observation count.
  double min = 0.0, max = 0.0, mean = 0.0;             ///< hdr only.
  double p50 = 0.0, p90 = 0.0, p99 = 0.0, p999 = 0.0;  ///< hdr only.
};

/// Name → metric registry.  Lookup creates on first use; names are
/// namespaced by convention ("sim.jobs.started").  A name maps to exactly
/// one kind; re-registering under a different kind throws.
class Registry {
 public:
  /// The process-wide registry used by all built-in instrumentation.
  [[nodiscard]] static Registry& global();

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  /// Log-bucketed percentile histogram; `config` is consulted only on
  /// first registration.
  [[nodiscard]] HdrHistogram& hdr(std::string_view name,
                                  HdrConfig config = {});

  /// Names of every hdr-kind metric, in dump order (checkpoint
  /// telemetry serialization).
  [[nodiscard]] std::vector<std::string> hdr_names() const;

  [[nodiscard]] bool contains(std::string_view name) const;
  [[nodiscard]] std::size_t size() const;

  /// Zero every value, keep registrations.
  void reset_values();
  /// Drop all metrics (invalidates outstanding handles; tests only).
  void clear();

  [[nodiscard]] std::vector<MetricSnapshot> snapshot() const;

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HdrHistogram> hdr;
  };

  mutable std::mutex mutex_;
  // Sorted map keeps dumps deterministic.
  std::vector<std::pair<std::string, Entry>> entries_;

  Entry* find_locked(std::string_view name);
  Entry& emplace_locked(std::string_view name, MetricKind kind);
};

/// Serialize a snapshot of `registry` as JSON ({"metrics":[...]}).
[[nodiscard]] std::string metrics_to_json(const Registry& registry);
/// Serialize as CSV (name,kind,value,count,min,max,mean).
[[nodiscard]] std::string metrics_to_csv(const Registry& registry);
/// Human-readable table for --profile output.
[[nodiscard]] std::string metrics_to_text(const Registry& registry);

}  // namespace dras::obs
