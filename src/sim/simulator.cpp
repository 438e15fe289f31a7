#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/format.h"

namespace dras::sim {

namespace {

// Registered once per process; every op is a no-op unless obs::enabled().
struct SimMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& instances = reg.counter("sim.scheduling_instances");
  obs::Counter& submits = reg.counter("sim.jobs.submitted");
  obs::Counter& completions = reg.counter("sim.jobs.completed");
  obs::Counter& starts_ready = reg.counter("sim.jobs.started_ready");
  obs::Counter& starts_backfill = reg.counter("sim.jobs.started_backfill");
  obs::Counter& starts_reserved = reg.counter("sim.jobs.started_reserved");
  obs::Counter& reservations = reg.counter("sim.reservations");
  obs::Counter& kills = reg.counter("sim.jobs.killed_walltime");
  obs::Counter& runs = reg.counter("sim.runs");
  obs::Counter& node_failures = reg.counter("sim.node_failures");
  obs::Counter& fault_kills = reg.counter("sim.jobs.killed_fault");
  obs::Counter& requeues = reg.counter("sim.jobs.requeued");
  obs::Counter& checkpoints = reg.counter("sim.checkpoints");
  obs::HdrHistogram& wait_s = reg.hdr("sim.job_wait_s");
  obs::HdrHistogram& queue_depth = reg.hdr("sim.queue_depth");
  obs::HdrHistogram& schedule_us = reg.hdr("sim.schedule_us");

  static SimMetrics& get() {
    static SimMetrics metrics;
    return metrics;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// SchedulingContext
// ---------------------------------------------------------------------------

Time SchedulingContext::now() const noexcept { return sim_.now_; }

const Cluster& SchedulingContext::cluster() const noexcept {
  return sim_.cluster_;
}

const std::vector<Job*>& SchedulingContext::queue() const noexcept {
  return sim_.queue_.visible();
}

const ReservationLedger& SchedulingContext::reservation() const noexcept {
  return sim_.ledger_;
}

bool SchedulingContext::is_reserved(JobId id) const noexcept {
  return sim_.ledger_.holds(id);
}

std::size_t SchedulingContext::instance() const noexcept {
  return sim_.instances_;
}

Time SchedulingContext::max_queued_time() const noexcept {
  return sim_.queue_.max_queued_time(sim_.now_);
}

double SchedulingContext::fraction_down() const noexcept {
  return sim_.fraction_down();
}

double SchedulingContext::recent_fault_rate() const noexcept {
  return sim_.recent_fault_rate();
}

double SchedulingContext::requeued_backlog() const noexcept {
  return sim_.requeued_backlog();
}

double SchedulingContext::user_share(int user) const noexcept {
  return sim_.user_share(user);
}

std::size_t SchedulingContext::queued_user_count() const noexcept {
  return sim_.queued_user_count();
}

bool SchedulingContext::start_now(JobId id) {
  return sim_.action_start(id, /*as_backfill=*/false);
}

bool SchedulingContext::reserve(JobId id) { return sim_.action_reserve(id); }

bool SchedulingContext::backfill(JobId id) {
  return sim_.action_start(id, /*as_backfill=*/true);
}

std::vector<Job*> SchedulingContext::backfill_candidates() const {
  if (!sim_.ledger_.active()) return {};
  if (sim_.ledger_.depth() == 1) {
    return dras::sim::backfill_candidates(sim_.cluster_, sim_.ledger_.get(),
                                          sim_.queue_.visible(), sim_.now_);
  }
  // Multi-reservation path: plan against the availability profile.
  const AvailabilityProfile profile(sim_.cluster_, sim_.ledger_.all(),
                                    sim_.now_);
  std::vector<Job*> candidates;
  for (Job* job : sim_.queue_.visible()) {
    if (sim_.ledger_.holds(job->id)) continue;
    if (profile.can_start_now(job->size, job->runtime_estimate))
      candidates.push_back(job);
  }
  return candidates;
}

// ---------------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------------

Simulator::Simulator(int total_nodes, int reservation_depth)
    : cluster_(total_nodes),
      ledger_(static_cast<std::size_t>(std::max(reservation_depth, 1))),
      metrics_(total_nodes),
      tracer_(obs::default_tracer()) {}

void Simulator::notify_observers(const SchedulingContext& ctx,
                                 const Job& job) {
  for (const ActionObserver& observer : observers_) observer(ctx, job);
}

std::vector<Reservation> Simulator::reservations_except(
    JobId excluded) const {
  std::vector<Reservation> others;
  for (const Reservation& r : ledger_.all())
    if (r.job != excluded) others.push_back(r);
  return others;
}

bool Simulator::start_is_reservation_safe(const Job& job) const {
  if (!ledger_.active()) return true;
  if (ledger_.depth() == 1)
    return backfill_legal(cluster_, ledger_.get(), job, now_);
  const AvailabilityProfile profile(cluster_, ledger_.all(), now_);
  return profile.can_start_now(job.size, job.runtime_estimate);
}

Job* Simulator::find_queued(JobId id) noexcept {
  const auto it = index_.find(id);
  if (it == index_.end()) return nullptr;
  Job& job = jobs_[it->second];
  if (job.started()) return nullptr;
  return &job;
}

bool Simulator::action_start(JobId id, bool as_backfill) {
  Job* job = find_queued(id);
  if (job == nullptr) return false;
  if (ledger_.holds(id)) return false;  // reserved jobs start automatically
  if (as_backfill && !ledger_.active()) return false;
  if (!cluster_.fits(job->size)) return false;
  // Starting a job while reservations are outstanding must not delay any
  // of them, whatever the policy chooses to call the action.
  if (!start_is_reservation_safe(*job)) return false;
  ExecMode mode;
  if (ever_reserved_.contains(id)) {
    mode = ExecMode::Reserved;
  } else if (as_backfill) {
    mode = ExecMode::Backfilled;
  } else {
    mode = ExecMode::Ready;
  }
  start_job(*job, mode);
  if (!observers_.empty()) {
    SchedulingContext ctx(*this);
    notify_observers(ctx, *job);
  }
  return true;
}

bool Simulator::action_reserve(JobId id) {
  if (ledger_.full()) return false;
  Job* job = find_queued(id);
  if (job == nullptr) return false;
  if (ledger_.holds(id)) return false;
  // A job that can legally start right now must be started instead.
  if (cluster_.fits(job->size) && start_is_reservation_safe(*job))
    return false;
  Reservation r;
  r.job = id;
  r.size = job->size;
  r.duration = job->runtime_estimate;
  if (ledger_.depth() == 1) {
    r.start = cluster_.earliest_start(job->size, now_);
  } else {
    const AvailabilityProfile profile(cluster_, ledger_.all(), now_);
    r.start = profile.earliest_start(job->size, job->runtime_estimate);
  }
  const bool added = ledger_.add(r);
  assert(added);
  (void)added;
  ever_reserved_.insert(id);
  // Guarantee a scheduling instance at the reserved start even if no job
  // event lands there (the job usually starts earlier via auto-start).
  if (r.start > now_)
    events_.push(Event{r.start, EventType::ReservationReady, id});
  SimMetrics::get().reservations.add();
  if (tracer_ != nullptr) {
    tracer_->instant("reserve", now_,
                     {obs::targ("job", job->id), obs::targ("size", job->size),
                      obs::targ("reserved_start", r.start)});
  }
  if (!observers_.empty()) {
    SchedulingContext ctx(*this);
    notify_observers(ctx, *job);
  }
  return true;
}

void Simulator::auto_start_reserved(const SchedulingContext& ctx) {
  bool progress = true;
  while (progress && ledger_.active()) {
    progress = false;
    for (const Reservation& r : ledger_.all()) {
      Job& job = jobs_[index_.at(r.job)];
      if (!cluster_.fits(job.size)) continue;
      if (ledger_.depth() > 1) {
        // Starting this reserved job must not jeopardise the others.
        const auto others = reservations_except(r.job);
        const AvailabilityProfile profile(cluster_, others, now_);
        if (!profile.can_start_now(job.size, job.runtime_estimate)) continue;
      }
      ledger_.remove(r.job);
      start_job(job, ExecMode::Reserved);
      notify_observers(ctx, job);
      progress = true;
      break;  // ledger mutated; restart the scan
    }
  }
}

void Simulator::start_job(Job& job, ExecMode mode) {
  const bool removed = queue_.remove(job.id);
  assert(removed);
  (void)removed;
  const bool allocated = cluster_.allocate(job, now_);
  assert(allocated);
  (void)allocated;
  job.start_time = now_;
  job.mode = mode;
  ++started_jobs_;
  // Fair-share ledger: charge the work this incarnation will perform
  // (remaining runtime after any durably checkpointed progress) at start
  // time.  Unknown users pool under the sentinel key.
  shares_.charge(job.user_id,
                 static_cast<double>(job.size) *
                     (job.effective_runtime() - job.progress_saved),
                 now_);
  if (!faults_enabled_) {
    job.end_time = now_ + job.effective_runtime();
    events_.push(Event{job.end_time, EventType::JobEnd, job.id});
  } else {
    // Restarted work leaves the requeued backlog as it starts.
    if (job.incarnation > 0) {
      requeued_backlog_ -= static_cast<double>(job.size) *
                           (job.effective_runtime() - job.progress_saved);
      if (requeued_backlog_ < 0.0) requeued_backlog_ = 0.0;
    }
    JobRun& run = runstate_[job.id];
    run = JobRun{};
    run.segment_start = now_;
    run.progress_at_segment = job.progress_saved;
    run.initial_progress = job.progress_saved;
    schedule_next_phase(job, run);
  }

  SimMetrics& m = SimMetrics::get();
  switch (mode) {
    case ExecMode::Backfilled: m.starts_backfill.add(); break;
    case ExecMode::Reserved: m.starts_reserved.add(); break;
    default: m.starts_ready.add(); break;
  }
  m.wait_s.observe(job.wait_time());
  if (tracer_ != nullptr) {
    tracer_->complete(to_string(mode), job.start_time,
                      job.effective_runtime(),
                      {obs::targ("job", job.id), obs::targ("size", job.size),
                       obs::targ("wait_s", job.wait_time())});
  }
}

void Simulator::handle_event(const Event& event) {
  switch (event.type) {
    case EventType::JobSubmit: {
      Job& job = jobs_[index_.at(event.job)];
      queue_.submit(&job);
      if (submits_pending_ > 0) --submits_pending_;
      SimMetrics::get().submits.add();
      break;
    }
    case EventType::JobEnd: {
      Job& job = jobs_[index_.at(event.job)];
      // A kill bumps the incarnation; completion events scheduled for a
      // dead incarnation are stale and ignored (always 0 == 0 when
      // fault-free).
      if (event.aux != job.incarnation) break;
      const auto rec = cluster_.release(job.id);
      assert(rec.has_value());
      (void)rec;
      runstate_.erase(job.id);
      metrics_.record_completion(job);
      queue_.on_job_finished(job.id);
      last_end_ = std::max(last_end_, job.end_time);
      SimMetrics::get().completions.add();
      // A job whose true runtime exceeds its estimate was cut short at the
      // walltime bound (§II-A): surface those kills distinctly.
      if (job.runtime_actual > job.runtime_estimate) {
        SimMetrics::get().kills.add();
        if (tracer_ != nullptr) {
          tracer_->instant(
              "kill_walltime", now_,
              {obs::targ("job", job.id),
               obs::targ("walltime_s", job.runtime_estimate),
               obs::targ("overrun_s",
                         job.runtime_actual - job.runtime_estimate)});
        }
      }
      break;
    }
    case EventType::ReservationReady:
      // Pure trigger: forces a scheduling instance at the reserved start.
      break;
    case EventType::NodeFailure:
      handle_node_failure(event);
      break;
    case EventType::NodeRepair:
      cluster_.repair_node();
      break;
    case EventType::CkptStart: {
      Job& job = jobs_[index_.at(event.job)];
      if (event.aux != job.incarnation) break;
      handle_ckpt_start(job);
      break;
    }
    case EventType::CkptDone: {
      Job& job = jobs_[index_.at(event.job)];
      if (event.aux != job.incarnation) break;
      handle_ckpt_done(job);
      break;
    }
  }
}

void Simulator::schedule_next_phase(Job& job, JobRun& run) {
  const Time total = job.effective_runtime();
  const Time progress = run.progress_at_segment;
  Time boundary = total;
  if (faults_.checkpoints_active()) {
    // Progress is accumulated as differences of absolute event times, so
    // a segment that ends on a checkpoint boundary can land a hair below
    // it (e.g. 799.999999999998 for boundary 800).  Both callers reach
    // here with any boundary at or within that hair already banked, so a
    // relative tolerance of 1e-6 intervals snaps to the NEXT boundary —
    // without it the job re-checkpoints the same boundary forever,
    // advancing by one float ulp per write.
    const double k =
        std::floor(progress / faults_.ckpt_interval + 1e-6) + 1.0;
    boundary = k * faults_.ckpt_interval;
  }
  if (boundary >= total) {
    job.end_time = now_ + std::max(0.0, total - progress);
    events_.push(
        Event{job.end_time, EventType::JobEnd, job.id, job.incarnation});
  } else {
    events_.push(Event{now_ + (boundary - progress), EventType::CkptStart,
                       job.id, job.incarnation});
  }
}

void Simulator::handle_ckpt_start(Job& job) {
  JobRun& run = runstate_.at(job.id);
  // Compute reached the checkpoint boundary; I/O now queues on the
  // shared channel, during which no compute progress is made.
  run.progress_at_segment += now_ - run.segment_start;
  run.segment_start = now_;
  run.in_ckpt = true;
  run.pending_saved = run.progress_at_segment;
  const double duration = static_cast<double>(job.size) *
                          faults_.ckpt_seconds_per_node /
                          faults_.io_bandwidth;
  const Time io_start = std::max(now_, io_busy_until_);
  io_busy_until_ = io_start + duration;
  events_.push(
      Event{io_busy_until_, EventType::CkptDone, job.id, job.incarnation});
  if (tracer_ != nullptr) {
    tracer_->instant("ckpt_start", now_,
                     {obs::targ("job", job.id),
                      obs::targ("io_wait_s", io_start - now_),
                      obs::targ("io_s", duration)});
  }
}

void Simulator::handle_ckpt_done(Job& job) {
  JobRun& run = runstate_.at(job.id);
  run.in_ckpt = false;
  job.progress_saved = run.pending_saved;
  run.segment_start = now_;
  metrics_.record_checkpoint();
  SimMetrics::get().checkpoints.add();
  schedule_next_phase(job, run);
}

void Simulator::schedule_group_failure(std::size_t group) {
  if (!job_progress_possible()) return;  // nothing left to disturb
  const FaultNodeGroup& g = fault_groups_[group];
  const double rate = static_cast<double>(g.nodes) / g.mtbf;
  const Time when = now_ + fault_rng_.exponential(rate);
  events_.push(Event{when, EventType::NodeFailure, kInvalidJob,
                     static_cast<std::int64_t>(group)});
}

void Simulator::handle_node_failure(const Event& event) {
  // Constant-rate chain: drawing the group's next failure first keeps
  // the stream independent of what this failure does below.
  schedule_group_failure(static_cast<std::size_t>(event.aux));
  metrics_.record_failure();
  SimMetrics::get().node_failures.add();
  recent_failures_.push_back(now_);
  // Trim entries that fell out of the feature window.
  const Time horizon = now_ - faults_.feature_window;
  std::size_t stale = 0;
  while (stale < recent_failures_.size() && recent_failures_[stale] < horizon)
    ++stale;
  if (stale > 0)
    recent_failures_.erase(recent_failures_.begin(),
                           recent_failures_.begin() + stale);

  // The struck node is uniform over the (interchangeable) machine:
  // [0, down) already-down nodes absorb the hit, [down, down+free) free
  // nodes go down quietly, the rest kill the owning job.
  const int down = cluster_.down_nodes();
  const int free = cluster_.free_nodes();
  const int victim = static_cast<int>(fault_rng_.uniform_index(
      static_cast<std::uint64_t>(cluster_.total_nodes())));
  if (victim < down) return;
  if (victim >= down + free) {
    auto running = cluster_.running_jobs();
    std::sort(running.begin(), running.end(),
              [](const RunningJob& a, const RunningJob& b) {
                return a.id < b.id;
              });
    int cursor = down + free;
    Job* owner = nullptr;
    for (const RunningJob& rec : running) {
      if (victim < cursor + rec.size) {
        owner = &jobs_[index_.at(rec.id)];
        break;
      }
      cursor += rec.size;
    }
    assert(owner != nullptr);
    kill_running_job(*owner);
  }
  cluster_.fail_free_node(now_ + faults_.repair_time);
  events_.push(Event{now_ + faults_.repair_time, EventType::NodeRepair,
                     kInvalidJob, 0});
  if (tracer_ != nullptr) {
    tracer_->instant("node_failure", now_,
                     {obs::targ("down_nodes", cluster_.down_nodes())});
  }
}

void Simulator::kill_running_job(Job& job) {
  const auto rec = cluster_.release(job.id);
  assert(rec.has_value());
  (void)rec;
  const JobRun run = runstate_.at(job.id);
  runstate_.erase(job.id);
  // Everything this incarnation computed beyond its last durable
  // checkpoint is lost; the wall time it occupied nodes minus the
  // durable progress it banked is the waste.
  const double durable_gain = job.progress_saved - run.initial_progress;
  const double waste =
      static_cast<double>(job.size) *
      std::max(0.0, (now_ - job.start_time) - durable_gain);
  job.wasted_node_seconds += waste;
  job.incarnation += 1;
  job.start_time = kUnsetTime;
  job.end_time = kUnsetTime;
  job.mode = ExecMode::None;
  metrics_.record_kill(waste);
  SimMetrics::get().fault_kills.add();
  if (tracer_ != nullptr) {
    tracer_->instant("kill_node_failure", now_,
                     {obs::targ("job", job.id), obs::targ("size", job.size),
                      obs::targ("wasted_node_s", waste)});
  }
  switch (faults_.requeue) {
    case RequeuePolicy::Resubmit:
      job.submit_time = now_;
      [[fallthrough]];
    case RequeuePolicy::Requeue:
      ++job.requeues;
      requeued_backlog_ += static_cast<double>(job.size) *
                           (job.effective_runtime() - job.progress_saved);
      metrics_.record_requeue();
      SimMetrics::get().requeues.add();
      queue_.submit(&job);
      break;
    case RequeuePolicy::Drop:
      break;  // counted as unfinished at the end of the run
  }
}

bool Simulator::job_progress_possible() const noexcept {
  return submits_pending_ > 0 || cluster_.running_count() > 0 ||
         queue_.visible_count() > 0;
}

double Simulator::fraction_down() const noexcept {
  return static_cast<double>(cluster_.down_nodes()) /
         static_cast<double>(cluster_.total_nodes());
}

std::size_t Simulator::queued_user_count() const noexcept {
  // The visible queue is small (tens of jobs); a linear distinct-count
  // avoids allocating on the scheduling hot path.
  const auto& visible = queue_.visible();
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < visible.size(); ++i) {
    bool seen = false;
    for (std::size_t j = 0; j < i && !seen; ++j)
      seen = visible[j]->user_id == visible[i]->user_id;
    if (!seen) ++distinct;
  }
  return distinct;
}

double Simulator::recent_fault_rate() const noexcept {
  if (recent_failures_.empty()) return 0.0;
  const Time horizon = now_ - faults_.feature_window;
  std::size_t count = 0;
  for (auto it = recent_failures_.rbegin(); it != recent_failures_.rend();
       ++it) {
    if (*it < horizon) break;
    ++count;
  }
  return static_cast<double>(count) /
         static_cast<double>(cluster_.total_nodes());
}

void Simulator::reset(const Trace& trace) {
  cluster_.clear();
  events_.clear();
  queue_.clear();
  ledger_.clear();
  metrics_.clear();
  shares_.reset();
  ever_reserved_.clear();
  jobs_ = trace;
  index_.clear();
  index_.reserve(jobs_.size());
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    Job& job = jobs_[i];
    job.start_time = kUnsetTime;
    job.end_time = kUnsetTime;
    job.mode = ExecMode::None;
    job.incarnation = 0;
    job.requeues = 0;
    job.progress_saved = 0.0;
    job.wasted_node_seconds = 0.0;
    if (!index_.emplace(job.id, i).second)
      throw std::invalid_argument(
          util::format("duplicate job id {} in trace", job.id));
  }
  for (const Job& job : jobs_) {
    if (job.size > cluster_.total_nodes())
      throw std::invalid_argument(
          util::format("job {} needs {} nodes but the machine has {}", job.id,
                      job.size, cluster_.total_nodes()));
    for (const JobId dep : job.dependencies) {
      if (!index_.contains(dep))
        throw std::invalid_argument(util::format(
            "job {} depends on unknown job {}", job.id, dep));
    }
  }
  now_ = jobs_.empty() ? 0.0 : jobs_.front().submit_time;
  first_submit_ = now_;
  last_end_ = now_;
  instances_ = 0;
  started_jobs_ = 0;
  for (const Job& job : jobs_)
    events_.push(Event{job.submit_time, EventType::JobSubmit, job.id});

  // Fault engine state (all dormant when the config is fault-free).
  faults_enabled_ = faults_.enabled();
  runstate_.clear();
  io_busy_until_ = 0.0;
  recent_failures_.clear();
  requeued_backlog_ = 0.0;
  submits_pending_ = jobs_.size();
  fault_groups_.clear();
  if (faults_.failures_active()) {
    fault_rng_ = util::Rng(util::derive_seed(faults_.seed, "sim-fault"));
    if (faults_.groups.empty()) {
      fault_groups_.push_back(
          FaultNodeGroup{cluster_.total_nodes(), faults_.mtbf});
    } else {
      for (const FaultNodeGroup& group : faults_.groups)
        if (group.nodes > 0 && group.mtbf > 0.0)
          fault_groups_.push_back(group);
    }
    for (std::size_t i = 0; i < fault_groups_.size(); ++i)
      schedule_group_failure(i);
  }
}

SimulationResult Simulator::run(const Trace& trace, Scheduler& policy) {
  {
    Trace sorted = trace;
    normalize_trace(sorted);
    reset(sorted);
  }
  policy.begin_episode();
  SimMetrics& m = SimMetrics::get();
  m.runs.add();

  SchedulingContext ctx(*this);
  while (!events_.empty()) {
    // Under faults the failure/repair chain can outlive the workload;
    // once no job can ever make progress again the run is over.
    if (faults_enabled_ && !job_progress_possible()) break;
    const Time batch_time = events_.top().time;
    metrics_.advance(now_, batch_time, cluster_.used_nodes());
    now_ = batch_time;
    while (!events_.empty() && events_.top().time == batch_time)
      handle_event(events_.pop());

    // Reservations are system commitments ("reserves a set of nodes for
    // its execution at the earliest available time", §III-B): they persist
    // until the reserved job starts, and the environment starts a reserved
    // job as soon as it fits — which may be before the reserved time when
    // running jobs finish under their estimates.
    auto_start_reserved(ctx);

    if (queue_.visible_count() > 0) {
      ++instances_;
      m.instances.add();
      m.queue_depth.observe(static_cast<double>(queue_.visible_count()));
      if (tracer_ != nullptr) {
        tracer_->instant(
            "scheduling_instance", now_,
            {obs::targ("instance", static_cast<std::uint64_t>(instances_)),
             obs::targ("queue_depth",
                       static_cast<std::uint64_t>(queue_.visible_count())),
             obs::targ("free_nodes", cluster_.free_nodes())});
      }
      {
        const obs::ScopedTimer timer(m.schedule_us);
        policy.schedule(ctx);
      }
      if (tracer_ != nullptr) {
        // Post-decision samples: these render as counter tracks showing
        // queue pressure and machine utilization over simulated time.
        tracer_->counter("queue_depth", now_,
                         static_cast<double>(queue_.visible_count()));
        tracer_->counter("used_nodes", now_,
                         static_cast<double>(cluster_.used_nodes()));
      }
    }
  }
  if (tracer_ != nullptr) {
    tracer_->counter("queue_depth", now_, 0.0);
    tracer_->counter("used_nodes", now_,
                     static_cast<double>(cluster_.used_nodes()));
  }
  policy.end_episode();

  SimulationResult result;
  result.jobs = metrics_.records();
  result.unfinished_jobs = jobs_.size() - result.jobs.size();
  result.used_node_seconds = metrics_.used_node_seconds();
  result.elapsed_node_seconds = metrics_.elapsed_node_seconds();
  result.utilization = metrics_.utilization();
  result.makespan = last_end_ - first_submit_;
  result.scheduling_instances = instances_;
  result.faults = metrics_.faults();
  return result;
}

}  // namespace dras::sim
