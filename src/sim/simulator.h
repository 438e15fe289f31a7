// Trace-driven, event-based scheduling simulator (CQSim substrate, §IV-B).
//
// "A real system takes jobs from user submission, while CQSim takes jobs
//  by reading the job arrival information in the trace.  Rather than
//  executing jobs on system, CQSim simulates the execution by advancing
//  the simulation clock according to the job runtime information."
//
// The simulator owns the per-run copy of the trace, the cluster, the wait
// queue, the event queue, the (single) reservation ledger and the metrics
// collector.  A Scheduler is invoked at every scheduling instance and acts
// through SchedulingContext.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fair/share_tracker.h"
#include "sim/cluster.h"
#include "sim/event_queue.h"
#include "sim/fault.h"
#include "sim/job.h"
#include "sim/metrics_collector.h"
#include "sim/profile.h"
#include "sim/reservation.h"
#include "sim/scheduler.h"
#include "sim/wait_queue.h"
#include "util/rng.h"

namespace dras::obs {
class EventTracer;
}  // namespace dras::obs

namespace dras::sim {

/// Outcome of one full simulation run.
struct SimulationResult {
  std::vector<JobRecord> jobs;        ///< Completed jobs.
  std::size_t unfinished_jobs = 0;    ///< Jobs never started (policy bug or
                                      ///< unsatisfiable dependency).
  double used_node_seconds = 0.0;
  double elapsed_node_seconds = 0.0;
  double utilization = 0.0;           ///< §IV-E system-level metric.
  Time makespan = 0.0;                ///< First submit to last completion.
  std::size_t scheduling_instances = 0;
  FaultStats faults;                  ///< All zero in fault-free runs.
};

class Simulator {
 public:
  /// `reservation_depth` = 1 gives the paper's single-reservation EASY
  /// behaviour; larger depths enable the conservative-backfilling
  /// extension where several queued jobs hold future node claims planned
  /// through the AvailabilityProfile (see reservation.h / profile.h).
  explicit Simulator(int total_nodes, int reservation_depth = 1);

  /// Run `trace` to completion under `policy`.  The trace is copied; the
  /// caller's jobs are untouched.  Throws std::invalid_argument when a job
  /// is larger than the machine or references an unknown dependency.
  SimulationResult run(const Trace& trace, Scheduler& policy);

  [[nodiscard]] int total_nodes() const noexcept {
    return cluster_.total_nodes();
  }

  /// Install the failure / checkpoint-I/O scenario for subsequent runs
  /// (sim/fault.h).  A config with enabled() == false — the default —
  /// leaves every code path byte-identical to the fault-free simulator.
  /// The failure stream derives from config.seed, so a given (config,
  /// trace, policy) triple is reproducible at any parallelism.
  void set_fault_config(FaultConfig config) { faults_ = std::move(config); }
  [[nodiscard]] const FaultConfig& fault_config() const noexcept {
    return faults_;
  }

  /// Invoked after every successful start / reserve / backfill action with
  /// the post-action state and the acting job.  Lets evaluation code
  /// account per-action rewards for policies that do not compute them
  /// (the Fig. 5 reward curves of the heuristic methods).  Any number of
  /// observers may be registered; they are notified in registration order.
  using ActionObserver =
      std::function<void(const SchedulingContext&, const Job&)>;
  void add_action_observer(ActionObserver observer) {
    observers_.push_back(std::move(observer));
  }
  /// Replace all registered observers with `observer` (historical
  /// single-observer semantics).  Prefer add_action_observer.
  void set_action_observer(ActionObserver observer) {
    observers_.clear();
    observers_.push_back(std::move(observer));
  }

  /// Attach a telemetry tracer (non-owning; nullptr detaches).  New
  /// simulators pick up obs::default_tracer() automatically; this
  /// overrides that choice.  The tracer receives one instant event per
  /// scheduling instance, one complete event per started job, queue-depth
  /// and used-node counter tracks, and reservation / walltime-kill
  /// instants — all stamped with simulation time.
  void set_tracer(obs::EventTracer* tracer) noexcept { tracer_ = tracer; }
  [[nodiscard]] obs::EventTracer* tracer() const noexcept { return tracer_; }

 private:
  friend class SchedulingContext;

  // --- SchedulingContext backing operations ---
  bool action_start(JobId id, bool as_backfill);
  bool action_reserve(JobId id);
  /// The visible-queue entry for `id`, or nullptr: jobs not yet
  /// submitted, held by a dependency, running or finished are not queued.
  [[nodiscard]] Job* find_queued(JobId id) const noexcept;

  /// Starting `job` now keeps every outstanding reservation satisfiable.
  [[nodiscard]] bool start_is_reservation_safe(const Job& job) const;
  /// All outstanding reservations except the one for `excluded`.
  [[nodiscard]] std::vector<Reservation> reservations_except(
      JobId excluded) const;
  /// Start any reserved jobs that now fit without jeopardising the rest.
  void auto_start_reserved(const SchedulingContext& ctx);

  /// Start `job` now.  Returns false, changing nothing, when it is not in
  /// the visible queue.
  [[nodiscard]] bool start_job(Job& job, ExecMode mode);
  void handle_event(const Event& event);
  void reset(const Trace& trace);
  void notify_observers(const SchedulingContext& ctx, const Job& job);

  // --- Fault engine (active only when faults_.enabled()) ---
  /// Per-running-job compute/checkpoint phase state.
  struct JobRun {
    Time segment_start = 0.0;       ///< Wall time compute last resumed.
    Time progress_at_segment = 0.0; ///< Compute-seconds done at that point.
    Time initial_progress = 0.0;    ///< progress_saved when this
                                    ///< incarnation started.
    Time pending_saved = 0.0;       ///< Progress a CkptDone will commit.
    bool in_ckpt = false;           ///< Currently writing a checkpoint.
  };
  /// Schedule the next phase boundary (CkptStart or final JobEnd) for a
  /// job whose compute just (re)started at now_.
  void schedule_next_phase(Job& job, JobRun& run);
  /// Push the next failure event of fault group `group` (constant-rate
  /// exponential chain), unless no job progress is possible any more.
  void schedule_group_failure(std::size_t group);
  void handle_node_failure(const Event& event);
  void handle_ckpt_start(Job& job);
  void handle_ckpt_done(Job& job);
  /// Kill `job` (node failure), account the lost work, and apply the
  /// configured requeue policy.
  void kill_running_job(Job& job);
  /// Can any job still make progress?  False once every trace job has
  /// been submitted and nothing is visible or running — the run-loop
  /// exit that keeps an infinite failure chain from spinning forever.
  [[nodiscard]] bool job_progress_possible() const noexcept;

  // --- Fault state-feature accessors (SchedulingContext backing) ---
  [[nodiscard]] double fraction_down() const noexcept;
  [[nodiscard]] double recent_fault_rate() const noexcept;
  [[nodiscard]] double requeued_backlog() const noexcept {
    return requeued_backlog_;
  }

  // --- Fairness accessors (SchedulingContext backing, src/fair) ---
  [[nodiscard]] double user_share(int user) const noexcept {
    return shares_.fraction(user, now_);
  }
  [[nodiscard]] std::size_t queued_user_count() const noexcept;

  Cluster cluster_;
  EventQueue events_;
  WaitQueue queue_;
  ReservationLedger ledger_;
  MetricsCollector metrics_;
  fair::ShareTracker shares_;

  std::vector<Job> jobs_;                       // per-run trace copy
  std::unordered_map<JobId, std::size_t> index_;  // id -> jobs_ slot
  std::unordered_set<JobId> ever_reserved_;
  Time now_ = 0.0;
  Time first_submit_ = 0.0;
  Time last_end_ = 0.0;
  std::size_t instances_ = 0;
  std::size_t started_jobs_ = 0;
  std::vector<ActionObserver> observers_;
  obs::EventTracer* tracer_ = nullptr;

  FaultConfig faults_;
  bool faults_enabled_ = false;               // cached per run
  util::Rng fault_rng_{1};
  std::vector<FaultNodeGroup> fault_groups_;  // resolved at reset
  std::unordered_map<JobId, JobRun> runstate_;
  Time io_busy_until_ = 0.0;     // shared checkpoint channel
  std::vector<Time> recent_failures_;
  double requeued_backlog_ = 0.0;  // node-seconds of killed work queued
  std::size_t submits_pending_ = 0;
};

}  // namespace dras::sim
