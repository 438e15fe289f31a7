// State encoding (paper §III-A).
//
// Each waiting job becomes a [2,2] block:
//     [ job size          , runtime estimate ]
//     [ priority (0/1)    , queued time      ]
// Each node becomes a [1,2] row:
//     [ availability (0/1), estimated-release minus now (0 if available) ]
//
// DRAS-PG concatenates W job blocks (zero-padded when fewer jobs are in the
// window) with the N node rows → input [2W+N, 2].
// DRAS-DQL concatenates one job block with the node rows → input [2+N, 2].
//
// With failure features enabled (sim/fault.h) two extra rows describe the
// fault state of the machine:
//     [ recent fault rate  , fraction of nodes down ]
//     [ requeued backlog   , 0                      ]
// so a fault-aware agent sees degraded capacity and the killed-work debt
// it is scheduling against.  Off by default — the fault-free encoding is
// bit-identical to the historical one.
//
// With fairness features enabled (src/fair) two further rows summarise
// the fair-share state of the candidate jobs:
//     [ mean user share over the candidates, max user share ]
//     [ queued-user diversity (distinct users / queued jobs), 0 ]
// so a fairness-aware agent can tell whether the window is dominated by
// already-well-served users.  Also off by default and bit-identical when
// disabled.
//
// The paper feeds raw values; we additionally scale sizes by the machine
// size and times by a per-system time scale so the network inputs stay
// O(1) — a standard conditioning detail that does not change what the
// agent observes.
#pragma once

#include <span>
#include <vector>

#include "sim/cluster.h"
#include "sim/scheduler.h"

namespace dras::core {

class StateEncoder {
 public:
  /// Extra input rows appended when failure features are enabled.
  static constexpr std::size_t kFailureRows = 2;
  /// Extra input rows appended when fairness features are enabled.
  static constexpr std::size_t kFairnessRows = 2;

  /// `time_scale` is the characteristic time (seconds) used to normalise
  /// runtimes, queued times and release deltas (e.g. the system's maximum
  /// walltime).
  StateEncoder(int total_nodes, double time_scale,
               bool failure_features = false,
               bool fairness_features = false);

  [[nodiscard]] int total_nodes() const noexcept { return total_nodes_; }
  [[nodiscard]] double time_scale() const noexcept { return time_scale_; }
  [[nodiscard]] bool failure_features() const noexcept {
    return failure_features_;
  }
  [[nodiscard]] bool fairness_features() const noexcept {
    return fairness_features_;
  }

  /// Network input rows for `jobs` job blocks (W for PG, 1 for DQL) on a
  /// `nodes`-node machine: 2 rows per job, 1 per node, then the enabled
  /// feature rows.  The one place the layout's row count is written.
  [[nodiscard]] static constexpr std::size_t input_rows(
      std::size_t jobs, int nodes, bool failure_features,
      bool fairness_features) noexcept {
    return 2 * jobs + static_cast<std::size_t>(nodes) +
           (failure_features ? kFailureRows : 0) +
           (fairness_features ? kFairnessRows : 0);
  }

  /// Flat input length (two floats per row) for a PG network over a
  /// W-job window.
  [[nodiscard]] std::size_t pg_input_size(std::size_t window) const noexcept {
    return 2 * input_rows(window, total_nodes_, failure_features_,
                          fairness_features_);
  }
  /// Flat input length for a DQL network (one job).
  [[nodiscard]] std::size_t dql_input_size() const noexcept {
    return 2 * input_rows(1, total_nodes_, failure_features_,
                          fairness_features_);
  }

  /// Encode a W-slot window (PG).  `window` holds the jobs actually present
  /// (size <= window_slots); missing slots are zero blocks.  `out` is
  /// resized to pg_input_size(window_slots).
  void encode_window(const sim::SchedulingContext& ctx,
                     std::span<const sim::Job* const> window,
                     std::size_t window_slots, std::vector<float>& out) const;

  /// Encode a single job plus the node rows (DQL).  `out` is resized to
  /// dql_input_size().
  void encode_job(const sim::SchedulingContext& ctx, const sim::Job& job,
                  std::vector<float>& out) const;

 private:
  void write_job_block(const sim::Job& job, sim::Time now,
                       float* out) const noexcept;
  /// The rows after the job blocks: the node rows, then the enabled
  /// feature rows (fairness over `candidates`), from `out` on.
  void write_tail(const sim::SchedulingContext& ctx,
                  std::span<const sim::Job* const> candidates,
                  float* out) const;
  void append_nodes(const sim::SchedulingContext& ctx, float* out) const;
  void append_failure_rows(const sim::SchedulingContext& ctx,
                           float* out) const noexcept;
  void append_fairness_rows(const sim::SchedulingContext& ctx,
                            std::span<const sim::Job* const> candidates,
                            float* out) const noexcept;

  int total_nodes_;
  double time_scale_;
  bool failure_features_;
  bool fairness_features_;
  mutable std::vector<sim::NodeRow> node_scratch_;
};

}  // namespace dras::core
