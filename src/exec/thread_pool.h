// Fixed-size worker thread pool with a bounded task queue and futures —
// the substrate of the parallel execution subsystem (src/exec).
//
// Design goals, in order:
//   1. Determinism stays with the caller.  The pool never leaks worker
//      identity or execution order into task results: tasks receive no
//      worker index, and anything stochastic inside a task must derive
//      its randomness from a stable task id (see exec::task_seed), so a
//      parallel run is bit-identical to the serial one.
//   2. Bounded memory.  submit() blocks while `queue_capacity` tasks are
//      already waiting, giving natural backpressure when producers out-run
//      the workers (large benchmark sweeps submit thousands of cells).
//   3. Dependency-free.  Plain <thread>/<mutex>/<future>; no third-party
//      runtime.
//
// OpenMP: in a pool of two or more workers every worker thread runs its
// OpenMP regions (the nn kernels) on a team of one, so N workers keep N
// compute threads instead of N full teams.  A one-worker pool keeps the
// default team.  Kernel results do not depend on the team size.
//
// Telemetry: every pool feeds the exec.* instruments of the global
// obs::Registry (tasks submitted/completed/failed, queue-depth gauge,
// task wait/run latency histograms, worker utilisation) and, when a
// tracer is installed, emits one Chrome-trace 'X' event per task on the
// obs::kExecPid lane with tid = worker index — so a sweep renders as one
// swim-lane per worker in chrome://tracing.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace dras::exec {

/// std::thread::hardware_concurrency with a floor of 1 (the standard
/// allows it to return 0 when undetectable).
[[nodiscard]] std::size_t default_concurrency() noexcept;

namespace detail {
/// Telemetry hook for task bodies that ended in an exception (defined in
/// thread_pool.cpp next to the other exec.* instruments).
void note_task_failed() noexcept;
}  // namespace detail

class ThreadPool {
 public:
  struct Options {
    std::size_t workers = 0;         ///< 0 = default_concurrency().
    std::size_t queue_capacity = 0;  ///< 0 = 4 × workers.
  };

  ThreadPool() : ThreadPool(Options{}) {}
  explicit ThreadPool(Options options);
  explicit ThreadPool(std::size_t workers)
      : ThreadPool(Options{workers, 0}) {}
  /// Drains every submitted task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue `fn` and return a future for its result.  Blocks while the
  /// queue is at capacity; throws std::runtime_error once shutdown has
  /// begun.  `fn` must be copy-constructible (std::function limitation)
  /// and an exception it throws is delivered through the future.  `label`
  /// names the task's Chrome-trace event.
  template <typename Fn>
  auto submit(Fn fn, std::string label = "task")
      -> std::future<std::invoke_result_t<Fn&>> {
    using R = std::invoke_result_t<Fn&>;
    auto promise = std::make_shared<std::promise<R>>();
    std::future<R> future = promise->get_future();
    // The task counts as completed before its future becomes ready, so
    // tasks_completed() read right after get() already includes it.
    enqueue(Task{[this, promise, fn = std::move(fn)]() mutable {
                   try {
                     if constexpr (std::is_void_v<R>) {
                       fn();
                       note_completed();
                       promise->set_value();
                     } else {
                       R result = fn();
                       note_completed();
                       promise->set_value(std::forward<R>(result));
                     }
                   } catch (...) {
                     detail::note_task_failed();
                     note_completed();
                     promise->set_exception(std::current_exception());
                   }
                 },
                 std::move(label),
                 {}});
    return future;
  }

  [[nodiscard]] std::size_t workers() const noexcept {
    return threads_.size();
  }
  [[nodiscard]] std::size_t queue_capacity() const noexcept {
    return options_.queue_capacity;
  }
  /// Tasks currently waiting (excludes tasks being executed).
  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] std::uint64_t tasks_submitted() const noexcept {
    return submitted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t tasks_completed() const noexcept {
    return completed_.load(std::memory_order_relaxed);
  }

 private:
  struct Task {
    std::function<void()> run;
    std::string label;
    std::chrono::steady_clock::time_point enqueued{};
  };

  void enqueue(Task task);
  void worker_loop(std::size_t worker_index);
  void note_completed() noexcept;

  Options options_;
  mutable std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable space_ready_;
  std::deque<Task> queue_;
  std::vector<std::thread> threads_;
  bool stopping_ = false;
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> busy_us_{0};
  std::chrono::steady_clock::time_point started_;
};

}  // namespace dras::exec
