// Node pool with estimated-release accounting.
//
// The paper's state encoding (§III-A) treats nodes as interchangeable:
// each node contributes an availability bit plus the delta between its
// estimated release time and "now".  The cluster therefore tracks counts
// and the set of running jobs (size + estimated / actual end), and only
// materialises per-node rows on demand for the neural-network input.
//
// Estimated end times come from user runtime estimates (upper bounds); the
// actual end, driven by the trace runtime, is never later than the
// estimate.  Reservation and EASY-backfill arithmetic deliberately use the
// *estimated* ends, exactly as production backfilling schedulers do.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "sim/job.h"

namespace dras::sim {

/// A running-job record inside the cluster.
struct RunningJob {
  JobId id = kInvalidJob;
  int size = 0;
  Time start = 0.0;
  Time estimated_end = 0.0;  ///< start + runtime_estimate.
  Time actual_end = 0.0;     ///< start + effective_runtime.
};

/// One materialised node row of the paper's state encoding:
/// (available bit, estimated-release minus now; zero when available).
struct NodeRow {
  float available = 1.0f;
  float release_delta = 0.0f;
};

/// Fixed pool of `total_nodes` interchangeable nodes.
class Cluster {
 public:
  explicit Cluster(int total_nodes);

  [[nodiscard]] int total_nodes() const noexcept { return total_nodes_; }
  [[nodiscard]] int free_nodes() const noexcept { return free_nodes_; }
  [[nodiscard]] int down_nodes() const noexcept {
    return static_cast<int>(down_.size());
  }
  [[nodiscard]] int used_nodes() const noexcept {
    return total_nodes_ - free_nodes_ - down_nodes();
  }
  [[nodiscard]] double utilization() const noexcept {
    return static_cast<double>(used_nodes()) / total_nodes_;
  }
  [[nodiscard]] bool fits(int size) const noexcept {
    return size <= free_nodes_;
  }
  [[nodiscard]] std::size_t running_count() const noexcept {
    return running_.size();
  }

  /// Allocate `job.size` nodes at time `now`.  Returns false (no change)
  /// when the job does not fit.
  bool allocate(const Job& job, Time now);

  /// Release the nodes held by `id`.  Returns the record, or nullopt if the
  /// job was not running.
  std::optional<RunningJob> release(JobId id);

  /// All running jobs, unordered.
  [[nodiscard]] std::vector<RunningJob> running_jobs() const;

  /// Look up one running job.
  [[nodiscard]] const RunningJob* find_running(JobId id) const noexcept;

  /// Take one *free* node out of service until `repair_end` (node
  /// failure; see sim/fault.h).  Requires free_nodes() > 0.  A down node
  /// is neither free nor used: it cannot be allocated and does not count
  /// toward utilization.
  void fail_free_node(Time repair_end);

  /// Return the earliest-due down node to service.  Requires
  /// down_nodes() > 0.  Repairs complete in repair-end order, so the
  /// NodeRepair event stream and this FIFO always agree.
  void repair_node();

  /// Repair-end times of down nodes, ascending.
  [[nodiscard]] const std::vector<Time>& down_until() const noexcept {
    return down_;
  }

  /// Earliest time at which `size` nodes are simultaneously free, assuming
  /// running jobs end at their *estimated* ends.  Returns `now` when the
  /// job already fits.  Requires size <= total_nodes().
  [[nodiscard]] Time earliest_start(int size, Time now) const;

  /// Nodes whose estimated release is <= `when` (excludes already-free).
  /// O(1) when `when` equals the previous query's time (the EASY
  /// reservation start, asked once per backfill check); any other time
  /// recounts the running set and becomes the new remembered horizon.
  [[nodiscard]] int released_by(Time when) const noexcept;

  /// Materialise the N node rows of the state encoding at time `now`,
  /// appending into `out` (resized to total_nodes()).  Busy nodes are
  /// listed first in increasing estimated-release order, then free nodes;
  /// the ordering is deterministic so identical states encode identically.
  void encode_nodes(Time now, std::vector<NodeRow>& out) const;

  /// Reset to an empty (all idle) cluster.
  void clear();

 private:
  int total_nodes_;
  int free_nodes_;
  std::unordered_map<JobId, RunningJob> running_;
  std::vector<Time> down_;  // repair-end times, ascending
  // released_by() at horizon_, kept exact by every allocate, release,
  // fail and repair whose release or repair time is <= horizon_.  Not
  // thread-safe: a Cluster belongs to one Simulator.
  mutable std::optional<Time> horizon_;
  mutable int released_at_horizon_ = 0;

  /// Add `nodes` (negative to remove) releasing at `when` to the count.
  void note_release_time(Time when, int nodes) noexcept;
};

}  // namespace dras::sim
