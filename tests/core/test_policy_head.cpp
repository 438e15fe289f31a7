#include "core/policy_head.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "../test_helpers.h"
#include "core/dras_agent.h"
#include "nn/grad_accumulator.h"
#include "sim/simulator.h"

namespace dras::core {
namespace {

using dras::testing::make_job;

DrasConfig flush_only_config(AgentKind kind) {
  DrasConfig cfg;
  cfg.kind = kind;
  cfg.total_nodes = 8;
  cfg.window = 4;
  cfg.fc1 = 16;
  cfg.fc2 = 8;
  cfg.time_scale = 1000.0;
  cfg.seed = 9;
  // Far more than the episode's scheduling instances: the only update
  // is the end-of-episode flush.
  cfg.update_every = 100000;
  return cfg;
}

sim::Trace episode_trace() {
  sim::Trace trace;
  for (int i = 0; i < 40; ++i)
    trace.push_back(make_job(i, i * 12.0, 1 + (i * 5) % 8, 70));
  return trace;
}

void expect_same_bits(std::span<const float> actual,
                      std::span<const float> expected, const char* what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < actual.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(actual[i]),
              std::bit_cast<std::uint32_t>(expected[i]))
        << what << " " << i;
}

class PolicyHeadKinds : public ::testing::TestWithParam<AgentKind> {};

// The rollout path — deposit the update into a sink, reduce it, apply it
// to the original — must leave an agent exactly where the in-place update
// of the same episode leaves it.
TEST_P(PolicyHeadKinds, DeferredUpdateMatchesInPlaceUpdate) {
  const DrasAgent start(flush_only_config(GetParam()));
  const sim::Trace trace = episode_trace();

  const auto in_place = start.clone_agent();
  (void)sim::Simulator(8).run(trace, *in_place);
  ASSERT_EQ(in_place->updates_done(), 1u);

  const auto deferred = start.clone_agent();
  nn::GradientAccumulator sink(start.network().parameter_count());
  deferred->set_gradient_sink(&sink);
  (void)sim::Simulator(8).run(trace, *deferred);
  deferred->set_gradient_sink(nullptr);
  ASSERT_EQ(sink.updates(), 1u);
  std::vector<float> gradient(sink.parameter_count());
  sink.reduce(gradient);

  const auto reduced = start.clone_agent();
  reduced->apply_reduced_update(gradient, sink.mean_loss(), sink.updates());

  expect_same_bits(reduced->network().parameters(),
                   in_place->network().parameters(), "parameter");
  expect_same_bits(reduced->optimizer().first_moment(),
                   in_place->optimizer().first_moment(), "first moment");
  expect_same_bits(reduced->optimizer().second_moment(),
                   in_place->optimizer().second_moment(), "second moment");
  EXPECT_EQ(reduced->optimizer().steps_taken(),
            in_place->optimizer().steps_taken());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(reduced->last_update_loss()),
            std::bit_cast<std::uint64_t>(in_place->last_update_loss()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(reduced->last_update_grad_norm()),
            std::bit_cast<std::uint64_t>(in_place->last_update_grad_norm()));
  EXPECT_EQ(reduced->updates_done(), in_place->updates_done());
  EXPECT_EQ(reduced->epsilon(), in_place->epsilon());
}

// A deferred update takes no gradient norm (the round reports its
// sink's reduced_norm()): last_grad_norm() keeps the last step's value
// while the loss, update count and ε advance as usual.
TEST_P(PolicyHeadKinds, DeferredUpdateLeavesGradNormUnchanged) {
  const DrasAgent start(flush_only_config(GetParam()));
  const sim::Trace trace = episode_trace();
  const auto agent = start.clone_agent();
  (void)sim::Simulator(8).run(trace, *agent);
  ASSERT_EQ(agent->updates_done(), 1u);
  const double stepped_norm = agent->last_update_grad_norm();
  ASSERT_GT(stepped_norm, 0.0);
  const double stepped_epsilon = agent->epsilon();

  nn::GradientAccumulator sink(agent->network().parameter_count());
  agent->set_gradient_sink(&sink);
  (void)sim::Simulator(8).run(trace, *agent);
  agent->set_gradient_sink(nullptr);
  ASSERT_EQ(sink.updates(), 1u);
  EXPECT_EQ(agent->updates_done(), 2u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(agent->last_update_loss()),
            std::bit_cast<std::uint64_t>(sink.mean_loss()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(agent->last_update_grad_norm()),
            std::bit_cast<std::uint64_t>(stepped_norm));
  if (GetParam() == AgentKind::DQL) {
    EXPECT_LT(agent->epsilon(), stepped_epsilon);
  }
  for (const float g : agent->network().gradients()) ASSERT_EQ(g, 0.0f);
}

INSTANTIATE_TEST_SUITE_P(BothKinds, PolicyHeadKinds,
                         ::testing::Values(AgentKind::PG, AgentKind::DQL),
                         [](const auto& info) {
                           return info.param == AgentKind::PG ? "PG" : "DQL";
                         });

}  // namespace
}  // namespace dras::core
