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

// Single-row calls of the batched API: one observation is a batch of one.
PpoAgent::ActResult act_one(PpoAgent& agent, std::span<const double> state,
                            sim::Rng& rng, double explore) {
  sim::Rng* r = &rng;
  return agent.act_batch(state, 1, {&r, 1}, {&explore, 1}).front();
}

PpoAgent::ActResult act_one(PpoAgent& agent, std::span<const double> state,
                            sim::Rng& rng) {
  return act_one(agent, state, rng, agent.exploration_rate());
}

PpoAgent::ActResult greedy_one(const PpoAgent& agent,
                               std::span<const double> state, sim::Rng& rng,
                               double explore) {
  sim::Rng* r = &rng;
  return agent.act_greedy_batch(state, 1, {&r, 1}, {&explore, 1}).front();
}

/// The greedy actions alone: at exploration 0 the probe never draws.
std::vector<std::int32_t> greedy_one(const PpoAgent& agent,
                                     std::span<const double> state) {
  sim::Rng unused(0);
  return greedy_one(agent, state, unused, 0.0).actions;
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

/// Batch rows are independent: for batch sizes 1-9, per-row exploration
/// rates of 0, 0.3 and 1 and a private RNG per row, every batched call
/// (sampled and greedy) returns bitwise what N single-row calls in row
/// order return, and leaves each row's RNG where those calls leave it.
TEST(PpoAgent, BatchRowsMatchSingleRowCallsBitwise) {
  PpoAgent agent(small_config());
  const std::size_t in = 3;
  const double rates[] = {0.0, 0.3, 1.0};
  sim::Rng data(17);
  for (std::int32_t batch = 1; batch <= 9; ++batch) {
    const auto n = static_cast<std::size_t>(batch);
    std::vector<double> states(n * in);
    for (double& v : states) v = data.uniform(-1.0, 1.0);
    std::vector<double> explore(n);
    std::vector<sim::Rng> batch_rngs;
    std::vector<sim::Rng> row_rngs;
    std::vector<sim::Rng> greedy_batch_rngs;
    std::vector<sim::Rng> greedy_row_rngs;
    for (std::size_t r = 0; r < n; ++r) {
      explore[r] = rates[(r + n) % 3];
      batch_rngs.emplace_back(100 * n + r);
      row_rngs.emplace_back(100 * n + r);
      greedy_batch_rngs.emplace_back(1000 * n + r);
      greedy_row_rngs.emplace_back(1000 * n + r);
    }
    std::vector<sim::Rng*> rng_ptrs;
    for (sim::Rng& r : batch_rngs) rng_ptrs.push_back(&r);
    std::vector<sim::Rng*> greedy_ptrs;
    for (sim::Rng& r : greedy_batch_rngs) greedy_ptrs.push_back(&r);

    const std::vector<PpoAgent::ActResult> acts =
        agent.act_batch(states, batch, rng_ptrs, explore);
    const std::vector<PpoAgent::ActResult> greedy =
        agent.act_greedy_batch(states, batch, greedy_ptrs, explore);
    const std::vector<double> values = agent.value_batch(states, batch);

    for (std::size_t r = 0; r < n; ++r) {
      SCOPED_TRACE("batch " + std::to_string(batch) + " row " +
                   std::to_string(r));
      const std::span<const double> row(&states[r * in], in);
      const PpoAgent::ActResult one =
          act_one(agent, row, row_rngs[r], explore[r]);
      EXPECT_EQ(acts[r].actions, one.actions);
      EXPECT_EQ(acts[r].log_prob, one.log_prob);
      EXPECT_EQ(acts[r].value, one.value);
      EXPECT_EQ(batch_rngs[r].state(), row_rngs[r].state());

      const PpoAgent::ActResult g =
          greedy_one(agent, row, greedy_row_rngs[r], explore[r]);
      EXPECT_EQ(greedy[r].actions, g.actions);
      EXPECT_EQ(greedy[r].log_prob, g.log_prob);
      EXPECT_EQ(greedy[r].value, g.value);
      EXPECT_EQ(greedy_batch_rngs[r].state(), greedy_row_rngs[r].state());
      EXPECT_EQ(values[r], value_one(agent, row));
    }
  }
}

/// The deployed decision pass against a reference built here from each
/// actor head's own forward_batch: argmax per head, then the row's residual
/// probe from its own RNG, then the summed per-head log-prob of the final
/// actions from those logits, and the critic's value. PET's shape, for one
/// agent and for a six-agent group sharing the policy, at exploration rates
/// that never, sometimes and always probe.
TEST(PpoAgent, GreedyBatchMatchesPerHeadForwardReference) {
  PpoConfig cfg;
  cfg.input_size = 24;
  cfg.head_sizes = {10, 10, 20};
  cfg.seed = 23;
  PpoAgent agent(cfg);
  const auto in = static_cast<std::size_t>(cfg.input_size);
  const double rates[] = {0.02, 1.0, 0.0, 0.5, 1.0, 0.3};
  sim::Rng data(29);
  for (const std::int32_t batch : {1, 6}) {
    const auto n = static_cast<std::size_t>(batch);
    for (int round = 0; round < 20; ++round) {
      std::vector<double> states(n * in);
      for (double& v : states) v = data.uniform(-1.0, 1.0);
      std::vector<double> explore(rates, rates + n);
      if (batch == 1) explore[0] = round % 2 == 0 ? 1.0 : 0.02;
      std::vector<sim::Rng> rngs;
      std::vector<sim::Rng> ref_rngs;
      for (std::size_t r = 0; r < n; ++r) {
        rngs.emplace_back(7000 + 31 * n + r + 100 * round);
        ref_rngs.emplace_back(7000 + 31 * n + r + 100 * round);
      }
      std::vector<sim::Rng*> ptrs;
      for (sim::Rng& r : rngs) ptrs.push_back(&r);

      const std::vector<PpoAgent::ActResult> got =
          agent.act_greedy_batch(states, batch, ptrs, explore);

      std::vector<std::vector<double>> logits;
      for (std::size_t h = 0; h < agent.num_heads(); ++h) {
        logits.push_back(agent.actor_head(h).forward_batch(states, batch));
      }
      const std::vector<double> values = agent.value_batch(states, batch);
      ASSERT_EQ(got.size(), n);
      for (std::size_t r = 0; r < n; ++r) {
        SCOPED_TRACE("batch " + std::to_string(batch) + " round " +
                     std::to_string(round) + " row " + std::to_string(r));
        const auto head_row = [&](std::size_t h) {
          const auto nh = static_cast<std::size_t>(cfg.head_sizes[h]);
          return std::span<const double>(&logits[h][r * nh], nh);
        };
        std::vector<std::int32_t> want(agent.num_heads());
        for (std::size_t h = 0; h < want.size(); ++h) {
          want[h] = argmax(head_row(h));
        }
        if (explore[r] > 0.0 && ref_rngs[r].bernoulli(explore[r])) {
          local_exploration_step(want, cfg.head_sizes, ref_rngs[r]);
        }
        double want_logp = 0.0;
        for (std::size_t h = 0; h < want.size(); ++h) {
          want_logp += log_prob(head_row(h), want[h]);
        }
        EXPECT_EQ(got[r].actions, want);
        EXPECT_EQ(got[r].log_prob, want_logp);
        EXPECT_EQ(got[r].value, values[r]);
        EXPECT_EQ(rngs[r].state(), ref_rngs[r].state());
      }
    }
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
