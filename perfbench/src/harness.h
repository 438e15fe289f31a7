// Measurement helpers shared by every perfbench workload: clocks, sample
// statistics, the tail-percentile rule, in-memory spans with self-time
// attribution, process probes (/proc/self/status) and the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] std::int64_t now_ns() noexcept;
[[nodiscard]] double seconds_since(Clock::time_point start) noexcept;

// --- Sample statistics -----------------------------------------------------

/// Linear-interpolated percentile (p in [0, 100]) of `values`; 0 when
/// empty.  The library's own, shared with its evaluation metrics.
using dras::metrics::percentile;
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);

/// Samples strictly above the `percentile` rank of `samples` values:
/// floor(samples * (1 - percentile / 100)).
[[nodiscard]] std::size_t samples_beyond(std::size_t samples,
                                         double percentile) noexcept;

/// Fewest samples for which `percentile` has `min_beyond` samples beyond:
/// a tail is only reported where at least ten samples lie beyond it.
[[nodiscard]] std::size_t samples_needed(double percentile,
                                         std::size_t min_beyond = 10);

// --- Spans -----------------------------------------------------------------

/// One timed call into a layer, recorded from the benchmark's own code.
struct Span {
  std::string name;        ///< "<layer>.<call>", e.g. "sim.run".
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< Index of the enclosing span; -1 = root.
  std::uint64_t op = 0;      ///< Operation the span belongs to.
};

/// Self time of every span in `spans`: its duration minus the part of
/// it that the union of its direct children covers (children may overlap
/// each other, e.g. parallel slots, and are clipped to the parent).
[[nodiscard]] std::vector<double> self_seconds(const std::vector<Span>& spans);

/// The layer a span belongs to: its name up to the first '.'.
[[nodiscard]] std::string layer_of(std::string_view span_name);

/// Thread-safe in-memory span store.  Disabled recorders cost one branch.
class Recorder {
 public:
  explicit Recorder(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Record a finished span and return its index (or -1 when disabled).
  std::int64_t add(std::string_view name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent = -1,
                   std::uint64_t op = 0);
  /// Open a span whose end is set later by close(); returns its index.
  std::int64_t open(std::string_view name, std::int64_t parent = -1,
                    std::uint64_t op = 0);
  void close(std::int64_t index);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Write every span as CSV (name,start_ns,end_ns,parent,op).
  void write_csv(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Closes a span of a Recorder on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Recorder& recorder, std::string_view name,
             std::int64_t parent = -1, std::uint64_t op = 0)
      : recorder_(recorder), index_(recorder.open(name, parent, op)) {}
  ~ScopedSpan() { recorder_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::int64_t index() const noexcept { return index_; }

 private:
  Recorder& recorder_;
  std::int64_t index_;
};

/// Self seconds per layer, plus "unattributed" for the self time of the
/// root spans (parent -1), which no layer call covers.
[[nodiscard]] std::map<std::string, double> attribute(
    const std::vector<Span>& spans);

// --- Process probes --------------------------------------------------------

/// Integer value of `key` ("Threads", "VmHWM", ...) in a
/// /proc/<pid>/status-formatted text; -1 when absent.
[[nodiscard]] long status_field(std::string_view status_text,
                                std::string_view key);
/// The same field read from /proc/self/status.
[[nodiscard]] long self_status_field(std::string_view key);
[[nodiscard]] double peak_rss_mb();

/// Tracks the peak of /proc/self/status "Threads:" over sample() calls.
class ThreadPeak {
 public:
  void sample();
  [[nodiscard]] long peak() const noexcept { return peak_; }

 private:
  std::mutex mutex_;
  long peak_ = 0;
};

// --- Digests ---------------------------------------------------------------

/// FNV-1a over raw bytes, chained through `seed`.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t bytes,
                                  std::uint64_t seed = 0xcbf29ce484222325ULL);

// --- Result ----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  std::string note;  ///< Sample count / percentile, printed in the table.
};

/// Everything one invocation reports.
struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< First few failure messages.
  std::map<std::string, Metric> metrics;

  /// Count `operations` failed operations, keeping `why` for the report.
  void fail(const std::string& why, std::size_t operations = 1);
  void set(const std::string& name, double value, std::string unit,
           std::string note = {});
  /// A printed line that is not a metric of this mode.
  void info(const std::string& name, const std::string& value);
  std::vector<std::pair<std::string, std::string>> infos;
  /// Print the human-readable table, then the one-line JSON result.
  void print(std::string_view workload, bool traced) const;
};

}  // namespace perfbench
