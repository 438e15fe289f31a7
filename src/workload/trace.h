// Trace-level statistics: the inputs to Fig. 2 (job characterisation) and
// Fig. 3 (training-set job patterns).
#pragma once

#include <array>
#include <span>
#include <string>
#include <vector>

#include "sim/job.h"

namespace dras::workload {

/// Aggregate over one job-size bucket [lo, hi].
struct SizeBucketStat {
  int lo = 0;
  int hi = 0;
  std::size_t jobs = 0;
  double core_hours = 0.0;  ///< node-hours of actual runtime.

  [[nodiscard]] std::string label() const;
};

/// Bucket jobs by size.  `boundaries` are inclusive upper edges in
/// ascending order; a final open bucket catches anything larger.
[[nodiscard]] std::vector<SizeBucketStat> size_distribution(
    const sim::Trace& trace, std::span<const int> boundaries);

/// Arrivals per hour-of-day / day-of-week (Fig. 3).
[[nodiscard]] std::array<std::size_t, 24> hourly_arrivals(
    const sim::Trace& trace);
[[nodiscard]] std::array<std::size_t, 7> daily_arrivals(
    const sim::Trace& trace);

/// Job-count histogram over runtime buckets with the given inclusive
/// upper edges (seconds); a final open bucket catches the rest.
[[nodiscard]] std::vector<std::size_t> runtime_histogram(
    const sim::Trace& trace, std::span<const double> edges);

struct TraceSummary {
  std::size_t jobs = 0;
  double span_seconds = 0.0;  ///< First to last submission.
  int max_size = 0;
  double max_runtime = 0.0;
  double total_node_hours = 0.0;
  double mean_interarrival = 0.0;
};
[[nodiscard]] TraceSummary summarize_trace(const sim::Trace& trace);

}  // namespace dras::workload
