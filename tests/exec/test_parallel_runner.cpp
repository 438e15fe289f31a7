#include "exec/parallel_runner.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace dras::exec {
namespace {

TEST(ParallelRunner, ResultsComeBackInIndexOrder) {
  for (const std::size_t jobs : {1u, 2u, 8u}) {
    ParallelRunner runner(jobs);
    // Stagger the work so later indices tend to finish first: order must
    // still follow submission, not completion.
    const auto results = runner.map(12, [](std::size_t i) {
      std::this_thread::sleep_for(std::chrono::microseconds((12 - i) * 50));
      return i * 10;
    });
    ASSERT_EQ(results.size(), 12u) << "jobs=" << jobs;
    for (std::size_t i = 0; i < results.size(); ++i)
      EXPECT_EQ(results[i], i * 10) << "jobs=" << jobs;
  }
}

TEST(ParallelRunner, JobsOneRunsInlineOnCallingThread) {
  ParallelRunner runner(1);
  const auto caller = std::this_thread::get_id();
  const auto ids = runner.map(
      4, [caller](std::size_t) { return std::this_thread::get_id(); });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(ParallelRunner, SingleTaskRunsInlineEvenWithManyJobs) {
  ParallelRunner runner(8);
  const auto caller = std::this_thread::get_id();
  const auto ids = runner.map(
      1, [](std::size_t) { return std::this_thread::get_id(); });
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], caller);
}

TEST(ParallelRunner, ZeroJobsMeansHardwareConcurrency) {
  ParallelRunner runner(0);
  EXPECT_EQ(runner.jobs(), default_concurrency());
}

TEST(ParallelRunner, LowestIndexedFailureWins) {
  ParallelRunner runner(4);
  try {
    (void)runner.map(8, [](std::size_t i) -> int {
      if (i == 2) throw std::runtime_error("task 2");
      if (i == 5) throw std::logic_error("task 5");
      return 0;
    });
    FAIL() << "map() should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 2");
  }
}

TEST(ParallelRunner, EmptyMapReturnsEmpty) {
  ParallelRunner runner(4);
  const auto results = runner.map(0, [](std::size_t i) { return i; });
  EXPECT_TRUE(results.empty());
}

TEST(TaskSeed, StableAndDistinct) {
  const auto a = task_seed(42, "eval", 0);
  EXPECT_EQ(a, task_seed(42, "eval", 0));  // deterministic
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 100; ++i)
    seen.insert(task_seed(42, "eval", i));
  EXPECT_EQ(seen.size(), 100u);  // no collisions across indices
  EXPECT_NE(task_seed(42, "eval", 1), task_seed(43, "eval", 1));
  EXPECT_NE(task_seed(42, "eval", 1), task_seed(42, "other", 1));
}

TEST(TaskSeed, IndependentOfRunnerWidth) {
  // The seed depends only on (master, stream, index) — the whole point of
  // the determinism contract.  Evaluate tasks under different jobs counts
  // and check the streams they would derive are identical.
  for (const std::size_t jobs : {1u, 2u, 8u}) {
    ParallelRunner runner(jobs);
    const auto seeds = runner.map(
        16, [](std::size_t i) { return task_seed(7, "sweep", i); });
    for (std::size_t i = 0; i < seeds.size(); ++i)
      EXPECT_EQ(seeds[i], task_seed(7, "sweep", i));
  }
}

}  // namespace
}  // namespace dras::exec
