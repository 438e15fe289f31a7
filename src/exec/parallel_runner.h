// ParallelRunner: deterministic map of an index range across a worker
// pool.
//
// The determinism contract (shared by everything built on src/exec):
//   * Results come back in submission (index) order, regardless of which
//     worker ran which task or in what order tasks finished.
//   * A task that needs randomness must seed it from a stable task id —
//     use exec::task_seed(master, stream, index) — never from worker
//     identity, thread ids, or completion order.
//   * With jobs <= 1 (or a single task) the runner executes the tasks
//     inline on the calling thread: the serial path is not merely
//     equivalent, it IS the plain loop, so `--jobs 1` output is the
//     byte-for-byte baseline that any `--jobs N` must reproduce.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "util/format.h"

namespace dras::exec {

/// Seed for task `task_index` of the stream named `stream`, derived from
/// `master`.  Stable across runs, worker counts, and execution order;
/// distinct indices give decorrelated streams (splitmix64 finalizer over
/// a golden-ratio stride, the same construction as util::Rng::spawn).
[[nodiscard]] std::uint64_t task_seed(std::uint64_t master,
                                      std::string_view stream,
                                      std::uint64_t task_index) noexcept;

class ParallelRunner {
 public:
  /// `jobs` = maximum concurrent tasks; 0 = hardware concurrency.
  explicit ParallelRunner(std::size_t jobs = 0)
      : jobs_(jobs == 0 ? default_concurrency() : jobs) {}

  [[nodiscard]] std::size_t jobs() const noexcept { return jobs_; }

  /// Evaluate `fn(0) .. fn(count-1)` with up to jobs() in flight and
  /// return the results indexed by task.  `fn` must be safe to invoke
  /// concurrently from several threads for distinct indices.  If any task
  /// throws, the exception of the lowest-indexed failing task is
  /// rethrown (after all tasks finished).  `label` prefixes the per-task
  /// Chrome-trace event names.
  template <typename Fn>
  auto map(std::size_t count, Fn fn, std::string_view label = "task")
      -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    std::vector<R> results;
    results.reserve(count);
    if (jobs_ <= 1 || count <= 1) {
      for (std::size_t i = 0; i < count; ++i) results.push_back(fn(i));
      return results;
    }
    std::vector<std::optional<R>> slots(count);
    {
      ThreadPool pool({std::min(jobs_, count), 0});
      std::vector<std::future<void>> futures;
      futures.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        futures.push_back(
            pool.submit([&slots, &fn, i] { slots[i].emplace(fn(i)); },
                        util::format("{} {}", label, i)));
      }
      // Collect in submission order so the first failure *by index* is
      // the one reported, matching what the serial loop would throw.
      std::exception_ptr first_error;
      for (auto& future : futures) {
        try {
          future.get();
        } catch (...) {
          if (!first_error) first_error = std::current_exception();
        }
      }
      if (first_error) std::rethrow_exception(first_error);
    }
    for (auto& slot : slots) results.push_back(std::move(*slot));
    return results;
  }

 private:
  std::size_t jobs_;
};

}  // namespace dras::exec
