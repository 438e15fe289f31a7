#include "exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "obs/metrics.h"

namespace dras::exec {
namespace {

TEST(ThreadPool, DefaultConcurrencyIsPositive) {
  EXPECT_GE(default_concurrency(), 1u);
}

#ifdef _OPENMP
TEST(ThreadPool, SideBySideWorkersRunOneThreadOpenMPTeams) {
  const int caller_team = omp_get_max_threads();
  ThreadPool pair({2, 0});
  EXPECT_EQ(pair.submit([] { return omp_get_max_threads(); }).get(), 1);
  ThreadPool lone({1, 0});
  EXPECT_EQ(lone.submit([] { return omp_get_max_threads(); }).get(),
            caller_team);
}
#endif

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool({4, 0});
    for (int i = 0; i < 100; ++i)
      (void)pool.submit([&ran] { ran.fetch_add(1); });
  }  // destructor drains
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, FuturesDeliverReturnValues) {
  ThreadPool pool({2, 0});
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 16; ++i)
    futures.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 16; ++i) EXPECT_EQ(futures[i].get(), i * i);
  EXPECT_EQ(pool.tasks_submitted(), 16u);
  EXPECT_EQ(pool.tasks_completed(), 16u);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool pool({2, 0});
  auto ok = pool.submit([] { return 7; });
  auto bad = pool.submit(
      []() -> int { throw std::runtime_error("task exploded"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPool, BoundedQueueStillCompletesEverything) {
  // Capacity far below the task count forces submit() to block on
  // backpressure; every task must still run exactly once.
  std::atomic<int> ran{0};
  ThreadPool pool({2, 2});
  EXPECT_EQ(pool.queue_capacity(), 2u);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i)
    futures.push_back(pool.submit([&ran] {
      ran.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, WorkerCountMatchesOptions) {
  ThreadPool pool({3, 0});
  EXPECT_EQ(pool.workers(), 3u);
  ThreadPool defaults;
  EXPECT_EQ(defaults.workers(), default_concurrency());
}

TEST(ThreadPool, RecordsExecMetricsWhenEnabled) {
  auto& registry = obs::Registry::global();
  auto& submitted = registry.counter("exec.tasks.submitted");
  auto& completed = registry.counter("exec.tasks.completed");
  auto& failed = registry.counter("exec.tasks.failed");
  const auto base_submitted = submitted.value();
  const auto base_completed = completed.value();
  const auto base_failed = failed.value();

  obs::set_enabled(true);
  {
    ThreadPool pool({2, 0});
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 10; ++i)
      futures.push_back(pool.submit([] {}));
    futures.push_back(pool.submit([] { throw std::runtime_error("boom"); }));
    for (auto& f : futures) {
      try {
        f.get();
      } catch (const std::runtime_error&) {
      }
    }
  }
  obs::set_enabled(false);

  EXPECT_EQ(submitted.value() - base_submitted, 11u);
  EXPECT_EQ(completed.value() - base_completed, 11u);
  EXPECT_EQ(failed.value() - base_failed, 1u);
  EXPECT_GE(registry.hdr("exec.task_run_us").count(), 11u);
  // Queue depth is sampled on every enqueue and dequeue edge.
  EXPECT_GE(registry.hdr("exec.pool.queue_depth").count(), 22u);
}

}  // namespace
}  // namespace dras::exec
