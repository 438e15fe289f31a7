#include "core/dql_policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/binio.h"
#include "util/rng.h"

namespace dras::core {
namespace {

DQLConfig tiny_config() {
  DQLConfig cfg;
  cfg.net.input_rows = 4;
  cfg.net.fc1 = 8;
  cfg.net.fc2 = 8;
  cfg.net.outputs = 1;
  cfg.adam.learning_rate = 0.02;
  cfg.gamma = 0.9;
  return cfg;
}

std::vector<float> state(float fill) { return std::vector<float>(8, fill); }

std::vector<float> random_state(util::Rng& rng, std::size_t size) {
  std::vector<float> s(size);
  for (float& v : s) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return s;
}

struct RecordedStep {
  std::vector<std::vector<float>> candidates;
  std::size_t action = 0;
  double reward = 0.0;
};

TEST(DQLPolicy, RejectsMultiOutputNetwork) {
  DQLConfig cfg = tiny_config();
  cfg.net.outputs = 2;
  EXPECT_THROW(DQLPolicy(cfg, 1), std::invalid_argument);
}

TEST(DQLPolicy, EpsilonStartsAtInitAndDecaysPerUpdate) {
  DQLConfig cfg = tiny_config();
  cfg.epsilon_init = 1.0;
  cfg.epsilon_decay = 0.5;
  cfg.epsilon_min = 0.1;
  DQLPolicy policy(cfg, 1);
  EXPECT_DOUBLE_EQ(policy.epsilon(), 1.0);
  policy.record({state(0.1f)}, 0, 1.0);
  policy.update();
  EXPECT_DOUBLE_EQ(policy.epsilon(), 0.5);
  policy.record({state(0.1f)}, 0, 1.0);
  policy.update();
  EXPECT_DOUBLE_EQ(policy.epsilon(), 0.25);
  for (int i = 0; i < 10; ++i) {
    policy.record({state(0.1f)}, 0, 1.0);
    policy.update();
  }
  EXPECT_DOUBLE_EQ(policy.epsilon(), 0.1);  // clamped at epsilon_min
}

TEST(DQLPolicy, UpdateOnEmptyMemoryIsNoop) {
  DQLPolicy policy(tiny_config(), 3);
  policy.update();
  EXPECT_EQ(policy.updates_done(), 0u);
  EXPECT_DOUBLE_EQ(policy.epsilon(), tiny_config().epsilon_init);
}

/// First-max argmax of serial q_value, strict > over doubles.
std::size_t serial_argmax(DQLPolicy& policy,
                          const std::vector<std::vector<float>>& candidates) {
  std::size_t best = 0;
  double best_q = policy.q_value(candidates[0]);
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    const double q = policy.q_value(candidates[i]);
    if (q > best_q) {
      best_q = q;
      best = i;
    }
  }
  return best;
}

TEST(DQLPolicy, SelectWithoutExploreIsArgmax) {
  DQLPolicy policy(tiny_config(), 5);
  util::Rng rng(7);
  const std::vector<std::vector<float>> candidates = {
      state(0.1f), state(0.9f), state(-0.5f)};
  const auto pick = policy.select_action(candidates, rng, /*explore=*/false);
  double best = policy.q_value(candidates[pick]);
  for (const auto& c : candidates) EXPECT_GE(best + 1e-9, policy.q_value(c));

  // The batched pick is exactly the serial first-max argmax, ties
  // included, for every window size up to past one lane block.
  util::Rng states(8);
  for (std::size_t window = 1; window <= 17; ++window) {
    std::vector<std::vector<float>> window_states(window);
    for (auto& s : window_states) s = random_state(states, 8);
    if (window >= 3) window_states[window - 1] = window_states[window / 2];
    EXPECT_EQ(policy.select_action(window_states, rng, /*explore=*/false),
              serial_argmax(policy, window_states))
        << "window " << window;
  }
  const std::vector<std::vector<float>> tied = {state(0.9f), state(0.9f)};
  EXPECT_EQ(policy.select_action(tied, rng, /*explore=*/false), 0u);
}

TEST(DQLPolicy, GreedyIndexTakesTheFirstMaximum) {
  const std::vector<float> q = {-1.0f, 2.5f, 0.0f, 2.5f};
  EXPECT_EQ(DQLPolicy::greedy_index(q), 1u);
  const std::vector<float> one = {-3.0f};
  EXPECT_EQ(DQLPolicy::greedy_index(one), 0u);
}

/// The serial Eq. 4 update the batched one replaces: one forward per
/// candidate for each bootstrap max, one forward/backward per recorded
/// transition.  `policy` supplies the network and optimiser only.
struct SerialUpdate {
  double loss = 0.0;
  double grad_norm = 0.0;
};
SerialUpdate serial_update(DQLPolicy& policy, double gamma,
                           const std::vector<RecordedStep>& memory) {
  nn::Network& net = policy.network();
  const auto q_of = [&](const std::vector<float>& s) {
    return static_cast<double>(net.forward(s)[0]);
  };
  std::vector<double> targets(memory.size());
  for (std::size_t k = 0; k < memory.size(); ++k) {
    double target = memory[k].reward;
    if (k + 1 < memory.size()) {
      const auto& next = memory[k + 1].candidates;
      double best = q_of(next.front());
      for (std::size_t i = 1; i < next.size(); ++i)
        best = std::max(best, q_of(next[i]));
      target += gamma * best;
    }
    targets[k] = target;
  }
  net.zero_gradients();
  double loss_acc = 0.0;
  for (std::size_t k = 0; k < memory.size(); ++k) {
    const double td_error =
        q_of(memory[k].candidates[memory[k].action]) - targets[k];
    loss_acc += 0.5 * td_error * td_error;
    const float grad[1] = {static_cast<float>(td_error)};
    net.backward(grad);
  }
  const auto scale = 1.0f / static_cast<float>(memory.size());
  for (float& g : net.gradients()) g *= scale;
  double grad_sq = 0.0;
  for (const float g : net.gradients())
    grad_sq += static_cast<double>(g) * static_cast<double>(g);
  policy.optimizer().step(net.parameters(), net.gradients());
  net.zero_gradients();
  return {loss_acc / static_cast<double>(memory.size()), std::sqrt(grad_sq)};
}

/// `batched` after its update() against the serial reference's result:
/// loss, gradient norm and every parameter, bit for bit.
void expect_matches_serial(const DQLPolicy& batched, const DQLPolicy& serial,
                           const SerialUpdate& expected,
                           const std::string& label) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(batched.last_loss()),
            std::bit_cast<std::uint64_t>(expected.loss))
      << label;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(batched.last_grad_norm()),
            std::bit_cast<std::uint64_t>(expected.grad_norm))
      << label;
  const auto a = batched.network().parameters();
  const auto b = serial.network().parameters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
              std::bit_cast<std::uint32_t>(b[i]))
        << label << ", parameter " << i;
}

DQLConfig odd_shape_config() {
  DQLConfig cfg = tiny_config();
  cfg.net.input_rows = 23;
  cfg.net.fc1 = 19;
  cfg.net.fc2 = 13;
  return cfg;
}

/// ε held at ½, so greedy and exploring picks mix.
DQLConfig half_epsilon_config() {
  DQLConfig cfg = odd_shape_config();
  cfg.epsilon_init = 0.5;
  cfg.epsilon_decay = 1.0;
  return cfg;
}

std::vector<std::vector<float>> random_window(util::Rng& rng,
                                              std::size_t window,
                                              std::size_t size) {
  std::vector<std::vector<float>> candidates(window);
  for (auto& c : candidates) c = random_state(rng, size);
  return candidates;
}

/// Forwards run through Network::forward_batch so far (telemetry on).
std::uint64_t batch_forwards() {
  return obs::Registry::global().hdr("nn.batch_forward_us").count();
}

/// `steps` transitions the way the agent makes them: select_action over a
/// window of 1–16 random candidates (exploring at `policy`'s ε), then
/// record() of that window.  `explored`, when given, gets whether each
/// pick ran no forward (telemetry must be on).
std::vector<RecordedStep> select_and_record(
    DQLPolicy& policy, util::Rng& rng, std::size_t steps,
    std::vector<bool>* explored = nullptr) {
  const std::size_t size = policy.network().config().input_size();
  std::vector<RecordedStep> memory(steps);
  for (std::size_t k = 0; k < steps; ++k) {
    memory[k].candidates = random_window(rng, 1 + (k * 7) % 16, size);
    const std::uint64_t before = batch_forwards();
    memory[k].action =
        policy.select_action(memory[k].candidates, rng, /*explore=*/true);
    if (explored != nullptr) explored->push_back(batch_forwards() == before);
    memory[k].reward = rng.uniform(-1.0, 1.0);
    policy.record(memory[k].candidates, memory[k].action, memory[k].reward);
  }
  return memory;
}

// update() batches its forwards (a window per bootstrap, TD rows in
// chunks of 16); parameters, loss and gradient norm must still match the
// serial algorithm bit for bit.  The memories mix 1-candidate windows, a
// 16-candidate window and more transitions than one TD chunk.
TEST(DQLPolicy, BatchedUpdateBitIdenticalToSerialReference) {
  const DQLConfig cfg = odd_shape_config();
  DQLPolicy batched(cfg, 21);
  DQLPolicy serial = batched;
  util::Rng rng(22);
  for (const std::size_t steps : {1u, 5u, 37u}) {
    std::vector<RecordedStep> memory(steps);
    for (std::size_t k = 0; k < steps; ++k) {
      const std::size_t window = k % 3 == 0 ? 1 : k == 2 ? 16 : 1 + k % 7;
      memory[k].candidates =
          random_window(rng, window, cfg.net.input_size());
      memory[k].action = rng.uniform_index(window);
      memory[k].reward = rng.uniform(-1.0, 1.0);
      batched.record(memory[k].candidates, memory[k].action,
                     memory[k].reward);
    }
    batched.update();
    const SerialUpdate expected = serial_update(serial, cfg.gamma, memory);
    expect_matches_serial(batched, serial, expected,
                          std::to_string(steps) + " steps");
  }
}

// The agent's order — select, then record the same window — lets the
// update reuse each greedy pick's max Q; greedy and exploring picks mixed,
// the result is still the serial algorithm's, bit for bit.
TEST(DQLPolicy, SelectThenRecordBitIdenticalToSerialReference) {
  const DQLConfig cfg = half_epsilon_config();
  DQLPolicy batched(cfg, 23);
  DQLPolicy serial = batched;
  util::Rng rng(24);
  for (const std::size_t steps : {1u, 2u, 5u, 37u}) {
    const auto memory = select_and_record(batched, rng, steps);
    batched.update();
    const SerialUpdate expected = serial_update(serial, cfg.gamma, memory);
    expect_matches_serial(batched, serial, expected,
                          std::to_string(steps) + " steps");
  }
}

// The update scores a next-state window only when its selection did not:
// one forward_batch per exploring successor, plus one per TD chunk.
TEST(DQLPolicy, UpdateScoresOnlyWindowsItsSelectionDidNot) {
  obs::set_enabled(true);
  DQLPolicy policy(half_epsilon_config(), 25);
  util::Rng rng(26);
  for (const std::size_t steps : {5u, 37u}) {
    std::vector<bool> explored;
    (void)select_and_record(policy, rng, steps, &explored);
    std::size_t exploring_successors = 0;
    for (std::size_t k = 1; k < steps; ++k)
      exploring_successors += explored[k] ? 1 : 0;
    EXPECT_GT(exploring_successors, 0u) << steps << " steps";
    EXPECT_LT(exploring_successors, steps - 1) << steps << " steps";

    const std::uint64_t before = batch_forwards();
    policy.update();
    const std::size_t td_chunks = (steps + 15) / 16;
    EXPECT_EQ(batch_forwards() - before, exploring_successors + td_chunks)
        << steps << " steps";
  }
  obs::set_enabled(false);
}

// A write through network().parameters() after the selections makes
// their Q stale: the update must score under the parameters it holds.
TEST(DQLPolicy, ParameterWriteAfterSelectionIsRescored) {
  const DQLConfig cfg = half_epsilon_config();
  DQLPolicy batched(cfg, 27);
  DQLPolicy serial = batched;
  util::Rng rng(28);
  const auto memory = select_and_record(batched, rng, 21);
  for (DQLPolicy* policy : {&batched, &serial}) {
    const auto params = policy->network().parameters();
    for (std::size_t i = 0; i < params.size(); i += 5) params[i] *= 1.5f;
  }
  batched.update();
  const SerialUpdate expected = serial_update(serial, cfg.gamma, memory);
  expect_matches_serial(batched, serial, expected, "written parameters");
}

// record() of a window other than the one select_action last scored
// carries no Q: the update scores it.
TEST(DQLPolicy, RecordOfAnotherWindowIsRescored) {
  const DQLConfig cfg = odd_shape_config();
  DQLPolicy batched(cfg, 29);
  DQLPolicy serial = batched;
  util::Rng rng(30);
  const std::size_t size = cfg.net.input_size();
  std::vector<RecordedStep> memory(21);
  for (std::size_t k = 0; k < memory.size(); ++k) {
    const std::size_t window = 1 + (k * 5) % 9;
    auto scored = random_window(rng, window, size);
    memory[k].candidates = random_window(rng, window, size);
    if (k % 3 == 1) {
      // Differs from the scored window in one float of its last row.
      memory[k].candidates = scored;
      memory[k].candidates.back()[k % size] += 0.25f;
    } else if (k % 3 == 2) {
      // Scored, then a second window scored after it.
      (void)batched.select_action(memory[k].candidates, rng, false);
    }
    (void)batched.select_action(scored, rng, /*explore=*/false);
    memory[k].action = rng.uniform_index(window);
    memory[k].reward = rng.uniform(-1.0, 1.0);
    batched.record(memory[k].candidates, memory[k].action, memory[k].reward);
  }
  batched.update();
  const SerialUpdate expected = serial_update(serial, cfg.gamma, memory);
  expect_matches_serial(batched, serial, expected, "other windows");
}

// Pending transitions survive save_state/load_state without their
// selection-time Q, and a network reloaded under them makes that Q stale;
// either way the update scores under the parameters it holds.
TEST(DQLPolicy, ReloadWithTransitionsPendingIsRescored) {
  const DQLConfig cfg = half_epsilon_config();
  util::Rng rng(32);
  {
    DQLPolicy source(cfg, 33);
    DQLPolicy serial = source;
    const auto memory = select_and_record(source, rng, 21);
    util::BinaryWriter out;
    source.save_state(out);
    DQLPolicy restored(cfg, 34);
    util::BinaryReader in(out.buffer());
    restored.load_state(in);
    ASSERT_EQ(restored.pending_steps(), memory.size());
    restored.update();
    const SerialUpdate expected = serial_update(serial, cfg.gamma, memory);
    expect_matches_serial(restored, serial, expected, "restored policy");
  }
  {
    DQLPolicy batched(cfg, 35);
    const DQLPolicy other(cfg, 36);
    util::BinaryWriter out;
    other.network().save_state(out);
    DQLPolicy serial = other;
    const auto memory = select_and_record(batched, rng, 21);
    util::BinaryReader in(out.buffer());
    batched.network().load_state(in);
    batched.update();
    const SerialUpdate expected = serial_update(serial, cfg.gamma, memory);
    expect_matches_serial(batched, serial, expected, "reloaded network");
  }
}

TEST(DQLPolicy, SelectOnEmptyCandidatesThrows) {
  DQLPolicy policy(tiny_config(), 5);
  util::Rng rng(7);
  EXPECT_THROW((void)policy.select_action({}, rng, true),
               std::invalid_argument);
}

TEST(DQLPolicy, FullEpsilonExploresUniformly) {
  DQLConfig cfg = tiny_config();
  cfg.epsilon_init = 1.0;
  DQLPolicy policy(cfg, 9);
  util::Rng rng(11);
  const std::vector<std::vector<float>> candidates = {
      state(0.1f), state(0.2f), state(0.3f)};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 3000; ++i)
    ++counts[policy.select_action(candidates, rng, true)];
  for (const int c : counts) EXPECT_NEAR(c, 1000, 150);
}

// One-step value regression: state A always yields reward 1, state B
// always 0 (terminal steps).  Q(A) must end up above Q(B).
TEST(DQLPolicy, LearnsValueOrdering) {
  DQLPolicy policy(tiny_config(), 13);
  const auto a = state(1.0f), b = state(-1.0f);
  for (int update = 0; update < 150; ++update) {
    // Each update batch is a short episode ending in a terminal step.
    policy.record({a}, 0, 1.0);
    policy.record({b}, 0, 0.0);
    policy.update();
  }
  EXPECT_GT(policy.q_value(a), policy.q_value(b));
}

TEST(DQLPolicy, QValuesApproachTargets) {
  DQLPolicy policy(tiny_config(), 17);
  const auto a = state(0.8f);
  for (int update = 0; update < 400; ++update) {
    policy.record({a}, 0, 2.0);  // single terminal transition, target 2.0
    policy.update();
  }
  EXPECT_NEAR(policy.q_value(a), 2.0, 0.3);
}

TEST(DQLPolicy, DiscardMemory) {
  DQLPolicy policy(tiny_config(), 19);
  policy.record({state(0.0f)}, 0, 1.0);
  EXPECT_EQ(policy.pending_steps(), 1u);
  policy.discard_memory();
  EXPECT_EQ(policy.pending_steps(), 0u);
}

}  // namespace
}  // namespace dras::core
