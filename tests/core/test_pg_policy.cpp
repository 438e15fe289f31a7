#include "core/pg_policy.h"

#include <gtest/gtest.h>

#include <numeric>

#include "util/rng.h"

namespace dras::core {
namespace {

PGConfig tiny_config(std::size_t inputs = 4, std::size_t outputs = 3) {
  PGConfig cfg;
  cfg.net.input_rows = inputs;
  cfg.net.fc1 = 8;
  cfg.net.fc2 = 8;
  cfg.net.outputs = outputs;
  cfg.adam.learning_rate = 0.01;
  return cfg;
}

std::vector<float> state_for(const PGConfig& cfg, float fill) {
  return std::vector<float>(2 * cfg.net.input_rows, fill);
}

TEST(PGPolicy, ProbabilitiesSumToOneAndRespectMask) {
  PGPolicy policy(tiny_config(), 1);
  const auto state = state_for(tiny_config(), 0.5f);
  std::vector<float> probs;
  policy.action_probabilities(state, 2, probs);
  ASSERT_EQ(probs.size(), 3u);
  EXPECT_NEAR(probs[0] + probs[1], 1.0f, 1e-6);
  EXPECT_FLOAT_EQ(probs[2], 0.0f);
}

TEST(PGPolicy, InvalidActionCountThrows) {
  PGPolicy policy(tiny_config(), 1);
  const auto state = state_for(tiny_config(), 0.5f);
  std::vector<float> probs;
  EXPECT_THROW(policy.action_probabilities(state, 0, probs),
               std::invalid_argument);
  EXPECT_THROW(policy.action_probabilities(state, 4, probs),
               std::invalid_argument);
}

TEST(PGPolicy, SampledActionsWithinMask) {
  PGPolicy policy(tiny_config(), 2);
  const auto state = state_for(tiny_config(), 0.1f);
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i)
    EXPECT_LT(policy.sample_action(state, 2, rng), 2u);
}

TEST(PGPolicy, GreedyPicksArgmax) {
  PGPolicy policy(tiny_config(), 5);
  const auto state = state_for(tiny_config(), 0.7f);
  std::vector<float> probs;
  policy.action_probabilities(state, 3, probs);
  const auto greedy = policy.greedy_action(state, 3);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_GE(probs[greedy], probs[i]);
}

TEST(PGPolicy, GreedyIndexTakesTheFirstMaximum) {
  std::vector<float> probs;
  // Tied logits give tied probabilities: the first of them wins.
  const std::vector<float> tied = {0.5f, 2.0f, 2.0f, -1.0f};
  EXPECT_EQ(PGPolicy::greedy_index(tied, 4, probs), 1u);
  const std::vector<float> flat(5, 0.25f);
  EXPECT_EQ(PGPolicy::greedy_index(flat, 5, probs), 0u);
  // A larger logit past `valid` is masked out, not picked.
  const std::vector<float> masked = {0.1f, 0.3f, 0.2f, 9.0f};
  EXPECT_EQ(PGPolicy::greedy_index(masked, 3, probs), 1u);
  ASSERT_EQ(probs.size(), masked.size());
  EXPECT_EQ(probs[3], 0.0f);
}

TEST(PGPolicy, UpdateOnEmptyMemoryIsNoop) {
  PGPolicy policy(tiny_config(), 7);
  const auto before = std::vector<float>(policy.network().parameters().begin(),
                                         policy.network().parameters().end());
  policy.update();
  EXPECT_EQ(policy.updates_done(), 0u);
  const auto after = policy.network().parameters();
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(before[i], after[i]);
}

TEST(PGPolicy, UpdateClearsMemoryAndCounts) {
  PGPolicy policy(tiny_config(), 7);
  const auto state = state_for(tiny_config(), 0.2f);
  policy.record(state, 3, 1, 1.0);
  policy.record(state, 3, 0, -1.0);
  EXPECT_EQ(policy.pending_steps(), 2u);
  policy.update();
  EXPECT_EQ(policy.pending_steps(), 0u);
  EXPECT_EQ(policy.updates_done(), 1u);
}

TEST(PGPolicy, DiscardMemoryDropsExperience) {
  PGPolicy policy(tiny_config(), 7);
  policy.record(state_for(tiny_config(), 0.2f), 3, 1, 1.0);
  policy.discard_memory();
  EXPECT_EQ(policy.pending_steps(), 0u);
}

// Contextual bandit: action 0 always pays 1, others pay 0.  REINFORCE
// must shift probability mass toward action 0.
TEST(PGPolicy, LearnsBanditPreference) {
  PGConfig cfg = tiny_config();
  cfg.adam.learning_rate = 0.02;
  PGPolicy policy(cfg, 11);
  const auto state = state_for(cfg, 0.5f);
  util::Rng rng(13);

  std::vector<float> probs;
  policy.action_probabilities(state, 3, probs);
  const float before = probs[0];

  for (int update = 0; update < 60; ++update) {
    for (int step = 0; step < 10; ++step) {
      const auto action = policy.sample_action(state, 3, rng);
      policy.record({state.begin(), state.end()}, 3, action,
                    action == 0 ? 1.0 : 0.0);
    }
    policy.update();
  }
  policy.action_probabilities(state, 3, probs);
  EXPECT_GT(probs[0], before);
  EXPECT_GT(probs[0], 0.6f);
}

// Two-state bandit: the optimal action depends on the state, which can
// only be solved by actually reading the input.
TEST(PGPolicy, LearnsStateDependentPolicy) {
  PGConfig cfg = tiny_config();
  cfg.adam.learning_rate = 0.02;
  PGPolicy policy(cfg, 17);
  const auto state_a = state_for(cfg, 1.0f);
  auto state_b = state_for(cfg, 1.0f);
  for (std::size_t i = 0; i < state_b.size(); i += 2) state_b[i] = -1.0f;
  util::Rng rng(19);

  // One-step episodes: a contextual bandit has no cross-step credit, so
  // each update carries a single (state, action, reward) step.
  for (int update = 0; update < 400; ++update) {
    const bool in_a = rng.bernoulli(0.5);
    const auto& state = in_a ? state_a : state_b;
    const auto action = policy.sample_action(state, 2, rng);
    const double reward = (in_a ? action == 0 : action == 1) ? 1.0 : 0.0;
    policy.record(state, 2, action, reward);
    policy.update();
  }
  std::vector<float> probs;
  policy.action_probabilities(state_a, 2, probs);
  EXPECT_GT(probs[0], 0.6f);
  policy.action_probabilities(state_b, 2, probs);
  EXPECT_GT(probs[1], 0.6f);
}

// The update loop batches every recorded state through one
// forward_batch_retained call (see nn::Network::stage_batch_sample); the
// resulting parameters must not depend on anything but the experiences.
TEST(PGPolicy, BatchedUpdateIsDeterministicOverVariedExperiences) {
  PGPolicy a(tiny_config(), 29), b(tiny_config(), 29);
  // 9 steps: a partial lane block in gemm_batch plus varied states,
  // actions and rewards so every batched sample is distinct.
  for (int step = 0; step < 9; ++step) {
    const auto state =
        state_for(tiny_config(), -0.8f + 0.2f * static_cast<float>(step));
    const std::size_t action = static_cast<std::size_t>(step) % 3;
    const double reward = (step % 2 == 0) ? 1.0 : -0.5;
    a.record(state, 3, action, reward);
    b.record(state, 3, action, reward);
  }
  a.update();
  b.update();
  EXPECT_EQ(a.updates_done(), 1u);
  const auto pa = a.network().parameters();
  const auto pb = b.network().parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_EQ(pa[i], pb[i]) << "parameter " << i;
}

TEST(PGPolicy, SameSeedIsReproducible) {
  PGPolicy a(tiny_config(), 23), b(tiny_config(), 23);
  const auto state = state_for(tiny_config(), 0.4f);
  util::Rng rng_a(5), rng_b(5);
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(a.sample_action(state, 3, rng_a),
              b.sample_action(state, 3, rng_b));
}

}  // namespace
}  // namespace dras::core
