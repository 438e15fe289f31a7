#include "serve/decision_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "serve/snapshot.h"
#include "serve_test_util.h"
#include "util/rng.h"

namespace dras::serve {
namespace {

using testing::ServeScratchTest;
using testing::perturb_parameters;
using testing::tiny_serve_config;
using testing::write_snapshot;

class DecisionServiceTest : public ServeScratchTest {
 protected:
  /// A snapshot file + loaded ModelSnapshot for `episode`, with the
  /// agent's parameters nudged per episode so versions are
  /// distinguishable by their decisions.
  std::shared_ptr<const ModelSnapshot> make_snapshot(
      core::DrasAgent& agent, std::size_t episode,
      const core::DrasConfig& config) {
    perturb_parameters(agent, /*seed=*/1000 + episode);
    const auto path = write_snapshot(dir_, agent, episode);
    return ModelSnapshot::load(path, config);
  }
};

TEST_F(DecisionServiceTest, RequestsSubmittedBeforeInstallWaitForModel) {
  const auto config = tiny_serve_config(core::AgentKind::PG);
  core::DrasAgent agent(config);
  DecisionService service({.policy = {.max_batch = 4}, .workers = 1});

  util::Rng rng(1);
  auto future = service.submit(make_synthetic_request(config, rng));
  // No model yet: the future must still be pending, not failed.
  EXPECT_EQ(future.wait_for(std::chrono::milliseconds(20)),
            std::future_status::timeout);

  service.install(make_snapshot(agent, 3, config));
  const Decision decision = future.get();
  EXPECT_EQ(decision.model_version, 3u);
  EXPECT_EQ(service.stats().requests, 1u);
  EXPECT_EQ(service.stats().failures, 0u);
}

TEST_F(DecisionServiceTest, BatchClosesAtMaxBatch) {
  const auto config = tiny_serve_config(core::AgentKind::PG);
  core::DrasAgent agent(config);
  // One worker, so the 8 requests queued before the model lands are
  // drained as exactly two full batches of max_batch=4.
  DecisionService service(
      {.policy = {.max_batch = 4, .max_wait = std::chrono::microseconds(
                                      500'000)},
       .workers = 1});

  util::Rng rng(2);
  std::vector<std::future<Decision>> futures;
  for (int i = 0; i < 8; ++i)
    futures.push_back(service.submit(make_synthetic_request(config, rng)));
  service.install(make_snapshot(agent, 1, config));

  for (auto& future : futures) {
    const Decision decision = future.get();
    EXPECT_EQ(decision.batch_size, 4u);
    EXPECT_GE(decision.latency_us, 0.0);
  }
  const DecisionService::Stats stats = service.stats();
  EXPECT_EQ(stats.requests, 8u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.max_batch, 4u);
}

TEST_F(DecisionServiceTest, MaxWaitClosesPartialBatch) {
  const auto config = tiny_serve_config(core::AgentKind::PG);
  core::DrasAgent agent(config);
  // max_batch far above the offered load: only the max_wait timer can
  // close these batches.  The requests must not hang.
  DecisionService service(
      {.policy = {.max_batch = 64,
                  .max_wait = std::chrono::microseconds(1000)},
       .workers = 1});
  service.install(make_snapshot(agent, 1, config));

  util::Rng rng(3);
  std::vector<std::future<Decision>> futures;
  for (int i = 0; i < 3; ++i)
    futures.push_back(service.submit(make_synthetic_request(config, rng)));
  for (auto& future : futures) {
    const Decision decision = future.get();
    EXPECT_LE(decision.batch_size, 3u);
    EXPECT_GE(decision.batch_size, 1u);
  }
  EXPECT_EQ(service.stats().requests, 3u);
  EXPECT_EQ(service.stats().failures, 0u);
}

// The determinism oracle: a served decision is bit-identical to the
// in-trainer greedy decision from the same snapshot.
TEST_F(DecisionServiceTest, ServedDecisionsMatchReferencePG) {
  const auto config = tiny_serve_config(core::AgentKind::PG);
  core::DrasAgent agent(config);
  DecisionService service({.policy = {.max_batch = 8}, .workers = 2});
  const auto snapshot = make_snapshot(agent, 5, config);
  service.install(snapshot);
  const auto replica = snapshot->make_replica();

  util::Rng rng(4);
  std::vector<DecisionRequest> requests;
  std::vector<std::future<Decision>> futures;
  for (int i = 0; i < 48; ++i) {
    requests.push_back(make_synthetic_request(config, rng));
    futures.push_back(service.submit(requests.back()));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Decision decision = futures[i].get();
    EXPECT_EQ(decision.job_index, reference_decision(*replica, requests[i]))
        << "request " << i;
    EXPECT_EQ(decision.model_version, 5u);
  }
}

TEST_F(DecisionServiceTest, ServedDecisionsMatchReferenceDQL) {
  const auto config = tiny_serve_config(core::AgentKind::DQL);
  core::DrasAgent agent(config);
  DecisionService service({.policy = {.max_batch = 8}, .workers = 2});
  const auto snapshot = make_snapshot(agent, 2, config);
  service.install(snapshot);
  const auto replica = snapshot->make_replica();

  util::Rng rng(5);
  std::vector<DecisionRequest> requests;
  std::vector<std::future<Decision>> futures;
  for (int i = 0; i < 48; ++i) {
    requests.push_back(make_synthetic_request(config, rng));
    futures.push_back(service.submit(requests.back()));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Decision decision = futures[i].get();
    EXPECT_EQ(decision.job_index, reference_decision(*replica, requests[i]))
        << "request " << i;
  }
}

TEST_F(DecisionServiceTest, MalformedRequestFailsAloneInItsBatch) {
  const auto config = tiny_serve_config(core::AgentKind::PG);
  core::DrasAgent agent(config);
  DecisionService service({.policy = {.max_batch = 4}, .workers = 1});

  util::Rng rng(6);
  std::vector<std::future<Decision>> good;
  good.push_back(service.submit(make_synthetic_request(config, rng)));
  DecisionRequest bad = make_synthetic_request(config, rng);
  bad.state.resize(bad.state.size() / 2);  // wrong encoding length
  auto bad_future = service.submit(std::move(bad));
  good.push_back(service.submit(make_synthetic_request(config, rng)));
  good.push_back(service.submit(make_synthetic_request(config, rng)));
  // All four queued before install, so they ride one batch of 4.
  service.install(make_snapshot(agent, 1, config));

  EXPECT_THROW(bad_future.get(), std::invalid_argument);
  for (auto& future : good) {
    const Decision decision = future.get();
    EXPECT_EQ(decision.batch_size, 4u);
  }
  EXPECT_EQ(service.stats().requests, 3u);
  EXPECT_EQ(service.stats().failures, 1u);
}

TEST_F(DecisionServiceTest, ZeroValidActionsIsRejected) {
  const auto config = tiny_serve_config(core::AgentKind::PG);
  core::DrasAgent agent(config);
  DecisionService service({.policy = {.max_batch = 1}, .workers = 1});
  service.install(make_snapshot(agent, 1, config));

  util::Rng rng(7);
  DecisionRequest request = make_synthetic_request(config, rng);
  request.valid = 0;
  EXPECT_THROW(service.submit(std::move(request)).get(),
               std::invalid_argument);
  EXPECT_EQ(service.stats().failures, 1u);
}

TEST_F(DecisionServiceTest, SubmitAfterStopFailsFast) {
  const auto config = tiny_serve_config(core::AgentKind::PG);
  DecisionService service({.policy = {.max_batch = 1}, .workers = 1});
  service.stop();
  util::Rng rng(8);
  EXPECT_THROW(service.submit(make_synthetic_request(config, rng)).get(),
               std::runtime_error);
}

TEST_F(DecisionServiceTest, StopBeforeAnyInstallFailsPendingRequests) {
  const auto config = tiny_serve_config(core::AgentKind::PG);
  DecisionService service({.policy = {.max_batch = 4}, .workers = 1});
  util::Rng rng(9);
  auto future = service.submit(make_synthetic_request(config, rng));
  service.stop();
  EXPECT_THROW(future.get(), std::runtime_error);
  EXPECT_EQ(service.stats().failures, 1u);
}

TEST_F(DecisionServiceTest, InstallNullptrThrows) {
  DecisionService service({.policy = {.max_batch = 1}, .workers = 1});
  EXPECT_THROW(service.install(nullptr), std::invalid_argument);
}

// A worker must pick up every install(), also when the new snapshot sits
// at the address of an earlier one that has since been freed: snapshots
// are all one size, so the allocator tends to hand that address out again.
TEST_F(DecisionServiceTest, EveryInstallReachesTheWorkerAfterAddressReuse) {
  const auto config = tiny_serve_config(core::AgentKind::PG);
  core::DrasAgent agent(config);
  std::vector<std::filesystem::path> paths;
  for (std::size_t e = 1; e <= 3; ++e) {
    perturb_parameters(agent, /*seed=*/2000 + e);
    paths.push_back(write_snapshot(dir_, agent, e));
  }
  DecisionService service({.policy = {.max_batch = 8}, .workers = 1});
  util::Rng rng(31);
  const auto serve_and_check = [&](const ModelSnapshot& snapshot) {
    const auto replica = snapshot.make_replica();
    for (int i = 0; i < 32; ++i) {
      const DecisionRequest request = make_synthetic_request(config, rng);
      const Decision decision = service.submit(request).get();
      ASSERT_EQ(decision.model_version, snapshot.version());
      ASSERT_EQ(decision.job_index, reference_decision(*replica, request))
          << "version " << snapshot.version() << ", request " << i;
    }
  };
  for (int round = 0; round < 16; ++round) {
    auto first = ModelSnapshot::load(paths[0], config);
    service.install(first);
    serve_and_check(*first);  // the worker now serves `first`
    service.install(ModelSnapshot::load(paths[1], config));
    first.reset();  // its address is free again
    const auto third = ModelSnapshot::load(paths[2], config);
    service.install(third);
    serve_and_check(*third);
  }
}

// Satellite: N client threads × M snapshot versions under live swaps.
// Zero failed requests; every response attributable to exactly one
// installed snapshot version — verified by replaying each request
// against that version's own replica; post-swap decisions match the
// new snapshot's in-trainer decisions.
TEST_F(DecisionServiceTest, ConcurrentClientsAcrossHotSwaps) {
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRequestsPerClient = 200;
  constexpr std::size_t kVersions = 5;

  const auto config = tiny_serve_config(core::AgentKind::PG);
  core::DrasAgent agent(config);
  std::vector<std::shared_ptr<const ModelSnapshot>> snapshots;
  for (std::size_t e = 1; e <= kVersions; ++e)
    snapshots.push_back(make_snapshot(agent, e, config));

  DecisionService service(
      {.policy = {.max_batch = 8,
                  .max_wait = std::chrono::microseconds(100)},
       .workers = 2});
  service.install(snapshots.front());

  struct ClientLog {
    std::vector<DecisionRequest> requests;
    std::vector<Decision> decisions;
  };
  std::vector<ClientLog> logs(kClients);
  std::atomic<std::uint64_t> failed{0};

  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(100 + c);
      std::vector<std::future<Decision>> futures;
      for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
        logs[c].requests.push_back(make_synthetic_request(config, rng));
        futures.push_back(service.submit(logs[c].requests.back()));
      }
      for (auto& future : futures) {
        try {
          logs[c].decisions.push_back(future.get());
        } catch (const std::exception&) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Swap through the remaining versions while the clients hammer away.
  for (std::size_t v = 1; v < kVersions; ++v) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    service.install(snapshots[v]);
  }
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(service.stats().failures, 0u);
  EXPECT_EQ(service.stats().requests, kClients * kRequestsPerClient);
  EXPECT_EQ(service.stats().swaps, kVersions);

  // Attribution: replay every request against the replica of the
  // version its response claims, and demand the identical decision.
  std::map<std::uint64_t, std::unique_ptr<core::DrasAgent>> replicas;
  for (const auto& snapshot : snapshots)
    replicas[snapshot->version()] = snapshot->make_replica();
  for (const ClientLog& log : logs) {
    ASSERT_EQ(log.decisions.size(), kRequestsPerClient);
    for (std::size_t i = 0; i < log.decisions.size(); ++i) {
      const Decision& decision = log.decisions[i];
      const auto replica = replicas.find(decision.model_version);
      ASSERT_NE(replica, replicas.end())
          << "response claims uninstalled version "
          << decision.model_version;
      EXPECT_EQ(decision.job_index,
                reference_decision(*replica->second, log.requests[i]));
    }
  }

  // Post-swap: with all in-flight work drained, fresh requests must be
  // served by — and decide exactly like — the final snapshot.
  const auto final_replica = snapshots.back()->make_replica();
  util::Rng rng(999);
  for (int i = 0; i < 16; ++i) {
    const DecisionRequest request = make_synthetic_request(config, rng);
    const Decision decision = service.submit(request).get();
    EXPECT_EQ(decision.model_version, snapshots.back()->version());
    EXPECT_EQ(decision.job_index,
              reference_decision(*final_replica, request));
  }
}

}  // namespace
}  // namespace dras::serve
