#include "rl/ppo.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "rl/categorical.hpp"
#include "sim/rng.hpp"

namespace pet::rl {
namespace {

PpoConfig small_config() {
  PpoConfig cfg;
  cfg.input_size = 3;
  cfg.head_sizes = {4, 2};
  cfg.hidden = {16, 16};
  cfg.seed = 7;
  return cfg;
}

PpoAgent::ActResult act_one(const PpoAgent& agent,
                            std::span<const double> state, sim::Rng& rng) {
  return agent.act(state, rng, agent.exploration_rate());
}

/// The greedy actions alone: at exploration 0 the probe never draws.
std::vector<std::int32_t> greedy_one(const PpoAgent& agent,
                                     std::span<const double> state) {
  sim::Rng unused(0);
  return agent.act_greedy(state, unused, 0.0).actions;
}

double value_one(const PpoAgent& agent, std::span<const double> state) {
  return agent.value_batch(state, 1).front();
}

TEST(PpoAgent, ActShapesAndLogProb) {
  PpoAgent agent(small_config());
  sim::Rng rng(1);
  const std::vector<double> state{0.1, 0.2, 0.3};
  const auto res = act_one(agent, state, rng);
  ASSERT_EQ(res.actions.size(), 2u);
  EXPECT_GE(res.actions[0], 0);
  EXPECT_LT(res.actions[0], 4);
  EXPECT_GE(res.actions[1], 0);
  EXPECT_LT(res.actions[1], 2);
  EXPECT_LE(res.log_prob, 0.0);  // log of a probability
  EXPECT_TRUE(std::isfinite(res.value));
}

TEST(PpoAgent, GreedyIsDeterministic) {
  PpoAgent agent(small_config());
  const std::vector<double> state{0.5, -0.5, 0.0};
  EXPECT_EQ(greedy_one(agent, state), greedy_one(agent, state));
}

TEST(PpoAgent, WeightsRoundTrip) {
  PpoAgent a(small_config());
  PpoConfig cfg2 = small_config();
  cfg2.seed = 99;
  PpoAgent b(cfg2);
  const std::vector<double> state{0.3, 0.1, -0.2};
  EXPECT_NE(value_one(a, state), value_one(b, state));
  ASSERT_TRUE(b.set_weights(a.weights()));
  EXPECT_EQ(value_one(a, state), value_one(b, state));
  EXPECT_EQ(greedy_one(a, state), greedy_one(b, state));
}

TEST(PpoAgent, ExplorationRateForcesUniformActions) {
  PpoAgent agent(small_config());
  agent.set_exploration_rate(1.0);
  sim::Rng rng(3);
  std::vector<int> counts(4, 0);
  const std::vector<double> state{0.0, 0.0, 0.0};
  for (int i = 0; i < 8000; ++i) {
    ++counts[act_one(agent, state, rng).actions[0]];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c / 8000.0, 0.25, 0.03);
  }
}

TEST(PpoAgent, UpdateOnEmptyBufferIsNoop) {
  PpoAgent agent(small_config());
  RolloutBuffer buf;
  const auto stats = agent.update(buf, 0.0);
  EXPECT_EQ(stats.minibatches, 0);
}

/// Contextual bandit: state component 0 encodes which head-0 action pays.
/// PPO must discover the mapping.
TEST(PpoAgent, LearnsContextualBandit) {
  PpoConfig cfg;
  cfg.input_size = 2;
  cfg.head_sizes = {2};
  cfg.hidden = {16};
  cfg.seed = 5;
  cfg.actor_lr = 5e-3;
  cfg.critic_lr = 5e-3;
  cfg.gamma = 0.0;  // pure bandit
  cfg.gae_lambda = 0.0;
  cfg.update_epochs = 4;
  cfg.minibatch_size = 32;
  PpoAgent agent(cfg);
  sim::Rng rng(13);

  for (int round = 0; round < 60; ++round) {
    RolloutBuffer buf;
    for (int i = 0; i < 64; ++i) {
      const double ctx = rng.bernoulli(0.5) ? 1.0 : 0.0;
      const std::vector<double> state{ctx, 1.0 - ctx};
      auto res = act_one(agent, state, rng);
      const double reward =
          (res.actions[0] == static_cast<std::int32_t>(ctx)) ? 1.0 : 0.0;
      buf.push(Transition{.state = state,
                          .actions = res.actions,
                          .log_prob = res.log_prob,
                          .value = res.value,
                          .reward = reward});
    }
    agent.update(buf, 0.0);
  }

  // Greedy policy should now match context on both contexts.
  EXPECT_EQ(greedy_one(agent, std::vector<double>{1.0, 0.0})[0], 1);
  EXPECT_EQ(greedy_one(agent, std::vector<double>{0.0, 1.0})[0], 0);
}

TEST(PpoAgent, ValueConvergesToExpectedReward) {
  PpoConfig cfg;
  cfg.input_size = 1;
  cfg.head_sizes = {2};
  cfg.hidden = {8};
  cfg.seed = 21;
  cfg.critic_lr = 1e-2;
  cfg.gamma = 0.0;
  cfg.gae_lambda = 0.0;
  PpoAgent agent(cfg);
  sim::Rng rng(2);
  const std::vector<double> state{0.5};

  for (int round = 0; round < 50; ++round) {
    RolloutBuffer buf;
    for (int i = 0; i < 32; ++i) {
      auto res = act_one(agent, state, rng);
      buf.push(Transition{.state = state,
                          .actions = res.actions,
                          .log_prob = res.log_prob,
                          .value = res.value,
                          .reward = 0.7});
    }
    agent.update(buf, 0.0);
  }
  EXPECT_NEAR(value_one(agent, state), 0.7, 0.1);
}

TEST(PpoAgent, UpdateStatsPopulated) {
  PpoAgent agent(small_config());
  sim::Rng rng(4);
  RolloutBuffer buf;
  const std::vector<double> state{0.1, 0.1, 0.1};
  for (int i = 0; i < 16; ++i) {
    auto res = act_one(agent, state, rng);
    buf.push(Transition{.state = state,
                        .actions = res.actions,
                        .log_prob = res.log_prob,
                        .value = res.value,
                        .reward = rng.uniform()});
  }
  const auto stats = agent.update(buf, 0.0);
  EXPECT_GT(stats.minibatches, 0);
  EXPECT_GT(stats.entropy, 0.0);
  EXPECT_TRUE(std::isfinite(stats.policy_loss));
  EXPECT_TRUE(std::isfinite(stats.value_loss));
}

TEST(PpoAgent, ClipEpsSetterWorks) {
  PpoAgent agent(small_config());
  agent.set_clip_eps(0.05);
  EXPECT_EQ(agent.clip_eps(), 0.05);
}

/// Critic batch rows are independent: for batch sizes 1-9, every row of
/// value_batch is bitwise the single-row value of that state.
TEST(PpoAgent, BatchRowsMatchSingleRowCallsBitwise) {
  PpoAgent agent(small_config());
  const std::size_t in = 3;
  sim::Rng data(17);
  for (std::int32_t batch = 1; batch <= 9; ++batch) {
    const auto n = static_cast<std::size_t>(batch);
    std::vector<double> states(n * in);
    for (double& v : states) v = data.uniform(-1.0, 1.0);
    const std::vector<double> values = agent.value_batch(states, batch);
    for (std::size_t r = 0; r < n; ++r) {
      SCOPED_TRACE("batch " + std::to_string(batch) + " row " +
                   std::to_string(r));
      const std::span<const double> row(&states[r * in], in);
      EXPECT_EQ(values[r], value_one(agent, row));
    }
  }
}

/// The deployed decision pass against a reference built here from each
/// actor head's own forward_batch: argmax per head, then the residual
/// probe from the agent's RNG, then the summed per-head log-prob of the
/// final actions from those logits, and the critic's value. PET's shape,
/// at exploration rates that sometimes and always probe.
TEST(PpoAgent, GreedyBatchMatchesPerHeadForwardReference) {
  PpoConfig cfg;
  cfg.input_size = 24;
  cfg.head_sizes = {10, 10, 20};
  cfg.seed = 23;
  PpoAgent agent(cfg);
  sim::Rng data(29);
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::vector<double> state(static_cast<std::size_t>(cfg.input_size));
    for (double& v : state) v = data.uniform(-1.0, 1.0);
    const double explore = round % 2 == 0 ? 1.0 : 0.02;
    sim::Rng rng(7031 + 100 * round);
    sim::Rng ref_rng(7031 + 100 * round);

    const PpoAgent::ActResult got = agent.act_greedy(state, rng, explore);

    std::vector<std::vector<double>> logits;
    std::vector<std::int32_t> want;
    for (std::size_t h = 0; h < agent.num_heads(); ++h) {
      logits.push_back(agent.actor_head(h).forward_batch(state, 1));
      want.push_back(argmax(logits.back()));
    }
    if (ref_rng.bernoulli(explore)) {
      local_exploration_step(want, cfg.head_sizes, ref_rng);
    }
    double want_logp = 0.0;
    for (std::size_t h = 0; h < want.size(); ++h) {
      want_logp += log_prob(logits[h], want[h]);
    }
    EXPECT_EQ(got.actions, want);
    EXPECT_EQ(got.log_prob, want_logp);
    EXPECT_EQ(got.value, value_one(agent, state));
    EXPECT_EQ(rng.state(), ref_rng.state());
  }
}

TEST(PpoAgent, NumParamsMatchesArchitecture) {
  PpoAgent agent(small_config());
  // Two actor heads: 3->16->16->{4,2}; critic 3->16->16->1.
  const std::size_t trunk = 3 * 16 + 16 + 16 * 16 + 16;
  const std::size_t expected =
      (trunk + 16 * 4 + 4) + (trunk + 16 * 2 + 2) + (trunk + 16 * 1 + 1);
  EXPECT_EQ(agent.num_params(), expected);
}

}  // namespace
}  // namespace pet::rl
