#include "exec/thread_pool.h"

#include <stdexcept>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "obs/metrics.h"
#include "obs/trace.h"

namespace dras::exec {
namespace {

// Stable handles into the global registry, resolved once.  Safe because
// tests exercise registries through local instances and never clear the
// global one (same pattern as TrainMetrics in trainer.cpp).
struct ExecMetrics {
  obs::Counter& tasks_submitted;
  obs::Counter& tasks_completed;
  obs::Counter& tasks_failed;
  obs::Gauge& queue_depth;
  obs::Gauge& workers;
  obs::Gauge& worker_utilization;
  // Log-bucketed percentile histograms (p50/p90/p99/p999 in snapshots);
  // mergeable across shards and serialized with run telemetry.
  obs::HdrHistogram& task_wait_us;
  obs::HdrHistogram& task_run_us;
  /// Queue depth sampled at every enqueue/dequeue edge — the depth
  /// *distribution*, complementing the instantaneous gauge above.
  obs::HdrHistogram& pool_queue_depth;

  static ExecMetrics& get() {
    static ExecMetrics metrics = [] {
      auto& registry = obs::Registry::global();
      return ExecMetrics{
          registry.counter("exec.tasks.submitted"),
          registry.counter("exec.tasks.completed"),
          registry.counter("exec.tasks.failed"),
          registry.gauge("exec.queue_depth"),
          registry.gauge("exec.workers"),
          registry.gauge("exec.worker_utilization"),
          registry.hdr("exec.task_wait_us"),
          registry.hdr("exec.task_run_us"),
          registry.hdr("exec.pool.queue_depth"),
      };
    }();
    return metrics;
  }
};

double micros(std::chrono::steady_clock::duration d) noexcept {
  return std::chrono::duration<double, std::micro>(d).count();
}

}  // namespace

namespace detail {
void note_task_failed() noexcept { ExecMetrics::get().tasks_failed.add(); }
}  // namespace detail

std::size_t default_concurrency() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(Options options) : options_(options) {
  if (options_.workers == 0) options_.workers = default_concurrency();
  if (options_.queue_capacity == 0)
    options_.queue_capacity = 4 * options_.workers;
  started_ = std::chrono::steady_clock::now();
  ExecMetrics::get().workers.set(static_cast<double>(options_.workers));
  threads_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  space_ready_.notify_all();
  for (auto& thread : threads_) thread.join();
  // Utilisation over the pool's lifetime: busy worker-time / available
  // worker-time.  Meaningful only once the pool winds down, so set here.
  if (obs::enabled() && !threads_.empty()) {
    const double wall = micros(std::chrono::steady_clock::now() - started_);
    const double available = wall * static_cast<double>(threads_.size());
    if (available > 0.0) {
      const double busy =
          static_cast<double>(busy_us_.load(std::memory_order_relaxed));
      ExecMetrics::get().worker_utilization.set(busy / available);
    }
  }
  ExecMetrics::get().queue_depth.set(0.0);
}

std::size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void ThreadPool::enqueue(Task task) {
  auto& metrics = ExecMetrics::get();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    space_ready_.wait(lock, [this] {
      return stopping_ || queue_.size() < options_.queue_capacity;
    });
    if (stopping_)
      throw std::runtime_error("ThreadPool::submit after shutdown began");
    task.enqueued = std::chrono::steady_clock::now();
    queue_.push_back(std::move(task));
    metrics.queue_depth.set(static_cast<double>(queue_.size()));
    metrics.pool_queue_depth.observe(static_cast<double>(queue_.size()));
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  metrics.tasks_submitted.add();
  task_ready_.notify_one();
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  auto& metrics = ExecMetrics::get();
#ifdef _OPENMP
  // A default team per worker would put workers x cores compute threads
  // on the cores: rollout training ran slower at 2 workers than at 1.
  if (options_.workers > 1) omp_set_num_threads(1);
#endif
  // One swim-lane per worker on the exec pid: spans opened inside tasks
  // (e.g. rollout slot spans) inherit this lane automatically.
  obs::set_thread_trace_lane(
      {obs::kExecPid, static_cast<int>(worker_index) + 1});
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
      metrics.queue_depth.set(static_cast<double>(queue_.size()));
      metrics.pool_queue_depth.observe(static_cast<double>(queue_.size()));
    }
    space_ready_.notify_one();

    obs::EventTracer* tracer = obs::default_tracer();
    const bool timed = obs::enabled() || tracer != nullptr;
    const auto run_start =
        timed ? std::chrono::steady_clock::now()
              : std::chrono::steady_clock::time_point{};
    if (timed) metrics.task_wait_us.observe(micros(run_start - task.enqueued));

    task.run();

    if (timed) {
      const auto run_end = std::chrono::steady_clock::now();
      const double run_us = micros(run_end - run_start);
      metrics.task_run_us.observe(run_us);
      busy_us_.fetch_add(static_cast<std::uint64_t>(run_us),
                         std::memory_order_relaxed);
      if (tracer != nullptr) {
        // One swim-lane per worker on the exec pid; timestamps are this
        // tracer's wall clock.
        const double dur = run_us * 1e-6;
        tracer->complete(
            task.label, tracer->wall_seconds() - dur, dur,
            {obs::targ("worker", static_cast<std::uint64_t>(worker_index))},
            obs::kExecPid, static_cast<int>(worker_index) + 1);
      }
    }
  }
}

void ThreadPool::note_completed() noexcept {
  completed_.fetch_add(1, std::memory_order_relaxed);
  ExecMetrics::get().tasks_completed.add();
}

}  // namespace dras::exec
