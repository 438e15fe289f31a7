#include "sim/cluster.h"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>

#include "../test_helpers.h"
#include "util/rng.h"

namespace dras::sim {
namespace {

using dras::testing::make_job;

TEST(Cluster, StartsIdle) {
  Cluster cluster(100);
  EXPECT_EQ(cluster.total_nodes(), 100);
  EXPECT_EQ(cluster.free_nodes(), 100);
  EXPECT_EQ(cluster.used_nodes(), 0);
  EXPECT_DOUBLE_EQ(cluster.utilization(), 0.0);
}

TEST(Cluster, RejectsNonPositiveSize) {
  EXPECT_THROW(Cluster(0), std::invalid_argument);
  EXPECT_THROW(Cluster(-5), std::invalid_argument);
}

TEST(Cluster, AllocateAndRelease) {
  Cluster cluster(10);
  const Job job = make_job(1, 0, 6, 100);
  EXPECT_TRUE(cluster.allocate(job, 0.0));
  EXPECT_EQ(cluster.free_nodes(), 4);
  EXPECT_EQ(cluster.running_count(), 1u);
  const auto rec = cluster.release(1);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->size, 6);
  EXPECT_EQ(cluster.free_nodes(), 10);
}

TEST(Cluster, AllocationFailsWhenTooBig) {
  Cluster cluster(10);
  EXPECT_TRUE(cluster.allocate(make_job(1, 0, 8, 100), 0.0));
  EXPECT_FALSE(cluster.allocate(make_job(2, 0, 3, 100), 0.0));
  EXPECT_EQ(cluster.free_nodes(), 2);  // unchanged by the failure
}

TEST(Cluster, ReleaseUnknownJobReturnsNullopt) {
  Cluster cluster(10);
  EXPECT_FALSE(cluster.release(99).has_value());
}

TEST(Cluster, RunningRecordTracksEstimatedAndActualEnd) {
  Cluster cluster(10);
  cluster.allocate(make_job(1, 0, 2, /*runtime=*/50, /*estimate=*/80), 100.0);
  const RunningJob* rec = cluster.find_running(1);
  ASSERT_NE(rec, nullptr);
  EXPECT_DOUBLE_EQ(rec->start, 100.0);
  EXPECT_DOUBLE_EQ(rec->estimated_end, 180.0);
  EXPECT_DOUBLE_EQ(rec->actual_end, 150.0);
}

TEST(Cluster, EarliestStartNowWhenFits) {
  Cluster cluster(10);
  cluster.allocate(make_job(1, 0, 4, 100), 0.0);
  EXPECT_DOUBLE_EQ(cluster.earliest_start(6, 5.0), 5.0);
}

TEST(Cluster, EarliestStartWaitsForReleases) {
  Cluster cluster(10);
  cluster.allocate(make_job(1, 0, 6, 100), 0.0);   // est end 100
  cluster.allocate(make_job(2, 0, 4, 200), 0.0);   // est end 200
  // 8 nodes: 4 free after job1 (t=100) is not enough... free=0 now;
  // after job1 ends: 6 free; after job2: 10 free.
  EXPECT_DOUBLE_EQ(cluster.earliest_start(6, 0.0), 100.0);
  EXPECT_DOUBLE_EQ(cluster.earliest_start(8, 0.0), 200.0);
}

TEST(Cluster, EarliestStartUsesEstimatesNotActuals) {
  Cluster cluster(4);
  cluster.allocate(make_job(1, 0, 4, /*runtime=*/10, /*estimate=*/100), 0.0);
  EXPECT_DOUBLE_EQ(cluster.earliest_start(4, 0.0), 100.0);
}

TEST(Cluster, EarliestStartThrowsForOversizedJob) {
  Cluster cluster(4);
  EXPECT_THROW((void)cluster.earliest_start(5, 0.0), std::invalid_argument);
}

TEST(Cluster, ReleasedByCountsEstimatedReleases) {
  Cluster cluster(10);
  cluster.allocate(make_job(1, 0, 3, 100), 0.0);
  cluster.allocate(make_job(2, 0, 4, 200), 0.0);
  EXPECT_EQ(cluster.released_by(50.0), 0);
  EXPECT_EQ(cluster.released_by(100.0), 3);
  EXPECT_EQ(cluster.released_by(250.0), 7);
}

// --- released_by() horizon count against a recount ----------------------
//
// The cluster remembers released_by() for the last time it was asked
// about and adjusts that count on every allocate, release, fail and
// repair.  A shadow of the running set and the down nodes recounts every
// answer.  Times sit on a half-second grid and horizons are often an
// existing estimated end or repair time, so the <= boundary is hit
// exactly.
TEST(SimulatorHorizonCount, MatchesRecountUnderRandomMutations) {
  constexpr int kNodes = 300;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    Cluster cluster(kNodes);
    std::map<JobId, std::pair<Time, int>> running;  // (estimated end, size)
    std::multiset<Time> down;                        // repair ends
    JobId next_id = 0;

    const auto recount = [&](Time when) {
      int released = 0;
      for (const auto& [id, rec] : running)
        if (rec.first <= when) released += rec.second;
      for (const Time repair : down)
        if (repair <= when) ++released;
      return released;
    };
    const auto grid_time = [&] {
      return static_cast<Time>(rng.uniform_index(2000));
    };
    // An estimated end or repair time in use, a grid time, or one between.
    const auto pick_time = [&]() -> Time {
      switch (rng.uniform_index(4)) {
        case 0:
          if (!running.empty())
            return std::next(running.begin(),
                             static_cast<std::ptrdiff_t>(
                                 rng.uniform_index(running.size())))
                ->second.first;
          break;
        case 1:
          if (!down.empty())
            return *std::next(down.begin(),
                              static_cast<std::ptrdiff_t>(
                                  rng.uniform_index(down.size())));
          break;
        case 2:
          return rng.uniform(0.0, 2000.0);
        default:
          break;
      }
      return grid_time();
    };

    Time horizon = pick_time();
    for (int step = 0; step < 4000; ++step) {
      const auto op = rng.uniform_index(100);
      if (op < 35) {
        const Time now = grid_time() / 2.0;
        const auto size = static_cast<int>(1 + rng.uniform_index(40));
        const auto estimate = static_cast<Time>(1 + rng.uniform_index(1000));
        const Job job = make_job(next_id++, now, size, estimate);
        if (cluster.allocate(job, now))
          running.emplace(job.id, std::pair{now + estimate, size});
      } else if (op < 65) {
        if (!running.empty()) {
          const auto it = std::next(
              running.begin(), static_cast<std::ptrdiff_t>(
                                   rng.uniform_index(running.size())));
          ASSERT_TRUE(cluster.release(it->first).has_value());
          running.erase(it);
        }
      } else if (op < 80) {
        if (cluster.free_nodes() > 0) {
          const Time repair_end = pick_time();
          cluster.fail_free_node(repair_end);
          down.insert(repair_end);
        }
      } else if (op < 92) {
        if (!down.empty()) {
          cluster.repair_node();
          down.erase(down.begin());
        }
      } else if (op < 93) {
        cluster.clear();
        running.clear();
        down.clear();
      } else if (op < 97) {
        horizon = pick_time();
      } else {
        const Time fresh = pick_time();
        ASSERT_EQ(cluster.released_by(fresh), recount(fresh))
            << "fresh time " << fresh << " at step " << step;
      }
      int used = 0;
      for (const auto& [id, rec] : running) used += rec.second;
      ASSERT_EQ(cluster.free_nodes(),
                kNodes - used - static_cast<int>(down.size()));
      ASSERT_EQ(cluster.released_by(horizon), recount(horizon))
          << "horizon " << horizon << " at step " << step;
    }
  }
}

TEST(Cluster, EncodeNodesLayout) {
  Cluster cluster(5);
  cluster.allocate(make_job(1, 0, 2, 100), 0.0);
  std::vector<NodeRow> rows;
  cluster.encode_nodes(10.0, rows);
  ASSERT_EQ(rows.size(), 5u);
  // Busy nodes first, with release delta 90.
  EXPECT_EQ(rows[0].available, 0.0f);
  EXPECT_FLOAT_EQ(rows[0].release_delta, 90.0f);
  EXPECT_EQ(rows[1].available, 0.0f);
  // Free nodes afterwards with zero delta (§III-A).
  for (std::size_t i = 2; i < 5; ++i) {
    EXPECT_EQ(rows[i].available, 1.0f);
    EXPECT_EQ(rows[i].release_delta, 0.0f);
  }
}

TEST(Cluster, EncodeNodesOrdersByReleaseTime) {
  Cluster cluster(4);
  cluster.allocate(make_job(1, 0, 1, 300), 0.0);
  cluster.allocate(make_job(2, 0, 1, 100), 0.0);
  std::vector<NodeRow> rows;
  cluster.encode_nodes(0.0, rows);
  EXPECT_FLOAT_EQ(rows[0].release_delta, 100.0f);
  EXPECT_FLOAT_EQ(rows[1].release_delta, 300.0f);
}

TEST(Cluster, EncodeNodesClampsPastDueReleases) {
  Cluster cluster(2);
  cluster.allocate(make_job(1, 0, 1, 100), 0.0);
  std::vector<NodeRow> rows;
  cluster.encode_nodes(500.0, rows);  // "now" is past the estimated end
  EXPECT_FLOAT_EQ(rows[0].release_delta, 0.0f);
}

TEST(Cluster, ClearResetsEverything) {
  Cluster cluster(8);
  cluster.allocate(make_job(1, 0, 8, 100), 0.0);
  cluster.clear();
  EXPECT_EQ(cluster.free_nodes(), 8);
  EXPECT_EQ(cluster.running_count(), 0u);
}

TEST(Cluster, UtilizationReflectsUsage) {
  Cluster cluster(10);
  cluster.allocate(make_job(1, 0, 5, 100), 0.0);
  EXPECT_DOUBLE_EQ(cluster.utilization(), 0.5);
}

}  // namespace
}  // namespace dras::sim
