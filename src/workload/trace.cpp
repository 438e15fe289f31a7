#include "workload/trace.h"

#include <algorithm>
#include <cmath>

#include "util/format.h"

namespace dras::workload {

std::string SizeBucketStat::label() const {
  if (hi == std::numeric_limits<int>::max())
    return util::format(">{}", lo - 1);
  if (lo == hi) return util::format("{}", lo);
  return util::format("{}-{}", lo, hi);
}

std::vector<SizeBucketStat> size_distribution(
    const sim::Trace& trace, std::span<const int> boundaries) {
  std::vector<SizeBucketStat> buckets;
  int lo = 1;
  for (const int edge : boundaries) {
    buckets.push_back(SizeBucketStat{lo, edge, 0, 0.0});
    lo = edge + 1;
  }
  buckets.push_back(
      SizeBucketStat{lo, std::numeric_limits<int>::max(), 0, 0.0});

  for (const sim::Job& job : trace) {
    const auto it = std::find_if(
        buckets.begin(), buckets.end(), [&](const SizeBucketStat& b) {
          return job.size >= b.lo && job.size <= b.hi;
        });
    if (it == buckets.end()) continue;  // size 0 impossible post-validation
    ++it->jobs;
    it->core_hours += job.size * job.runtime_actual / 3600.0;
  }
  return buckets;
}

std::array<std::size_t, 24> hourly_arrivals(const sim::Trace& trace) {
  std::array<std::size_t, 24> histogram{};
  for (const sim::Job& job : trace) {
    const auto hour = static_cast<std::size_t>(
        std::fmod(job.submit_time, 86400.0) / 3600.0);
    ++histogram[std::min<std::size_t>(hour, 23)];
  }
  return histogram;
}

std::array<std::size_t, 7> daily_arrivals(const sim::Trace& trace) {
  std::array<std::size_t, 7> histogram{};
  for (const sim::Job& job : trace) {
    const auto day = static_cast<std::size_t>(
        std::fmod(job.submit_time, 7.0 * 86400.0) / 86400.0);
    ++histogram[std::min<std::size_t>(day, 6)];
  }
  return histogram;
}

std::vector<std::size_t> runtime_histogram(const sim::Trace& trace,
                                           std::span<const double> edges) {
  std::vector<std::size_t> histogram(edges.size() + 1, 0);
  for (const sim::Job& job : trace) {
    std::size_t slot = edges.size();
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (job.runtime_actual <= edges[i]) {
        slot = i;
        break;
      }
    }
    ++histogram[slot];
  }
  return histogram;
}

TraceSummary summarize_trace(const sim::Trace& trace) {
  TraceSummary s;
  s.jobs = trace.size();
  if (trace.empty()) return s;
  double first = trace.front().submit_time, last = first;
  for (const sim::Job& job : trace) {
    first = std::min(first, job.submit_time);
    last = std::max(last, job.submit_time);
    s.max_size = std::max(s.max_size, job.size);
    s.max_runtime = std::max(s.max_runtime, job.runtime_actual);
    s.total_node_hours += job.size * job.runtime_actual / 3600.0;
  }
  s.span_seconds = last - first;
  s.mean_interarrival =
      trace.size() > 1
          ? s.span_seconds / static_cast<double>(trace.size() - 1)
          : 0.0;
  return s;
}

}  // namespace dras::workload
