// Deployment-mode behaviour: the hybrid-training handoff where agents
// exploit the learned mode while continuing online incremental training.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <span>
#include <vector>

#include "core/pet_agent.hpp"
#include "net/network.hpp"

namespace pet::core {
namespace {

struct DeploymentFixture : ::testing::Test {
  sim::Scheduler sched;
  net::Network net{sched, 91};
  net::SwitchDevice* sw = nullptr;

  void build() {
    sw = &net.add_switch({});
    net::PortConfig nic;
    nic.rate = sim::gbps(10);
    nic.propagation_delay = sim::nanoseconds(100);
    for (int i = 0; i < 3; ++i) {
      auto& h = net.add_host(nic);
      net.connect(h.id(), sw->id(), nic.rate, nic.propagation_delay);
    }
    net.recompute_routes();
  }

  PetAgentConfig agent_config() {
    PetAgentConfig cfg = PetAgentConfig::paper_defaults();
    cfg.tuning_interval = sim::microseconds(100);
    cfg.rollout_length = 8;
    cfg.ppo.minibatch_size = 8;
    cfg.ppo.update_epochs = 1;
    cfg.ppo.hidden = {8};
    return cfg;
  }

  void run_ticks(PetAgent& agent, int n) {
    for (int i = 0; i < n; ++i) {
      agent.tick();
      sched.run_until(sched.now() + sim::microseconds(100));
    }
  }
};

TEST_F(DeploymentFixture, GreedyWithoutExplorationIsDeterministicConfig) {
  build();
  PetAgent agent(sched, *sw, agent_config(), 1);
  agent.set_deployment_mode(true);
  agent.freeze_exploration(0.0);
  run_ticks(agent, 5);
  const net::RedEcnConfig first = agent.current_config();
  // On an idle fabric the state is stable, so the mode stays put.
  run_ticks(agent, 5);
  EXPECT_EQ(agent.current_config(), first);
}

TEST_F(DeploymentFixture, ExplorationStepsStayLocal) {
  // The deployment probe changes exactly one head by exactly one level.
  const std::vector<std::int32_t> heads{10, 10, 20};
  sim::Rng rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    const std::vector<std::int32_t> base{
        static_cast<std::int32_t>(rng.uniform_int(10)),
        static_cast<std::int32_t>(rng.uniform_int(10)),
        static_cast<std::int32_t>(rng.uniform_int(20))};
    std::vector<std::int32_t> stepped = base;
    rl::local_exploration_step(stepped, heads, rng);
    int changed = 0;
    for (std::size_t h = 0; h < heads.size(); ++h) {
      EXPECT_GE(stepped[h], 0);
      EXPECT_LT(stepped[h], heads[h]);
      const int delta = std::abs(stepped[h] - base[h]);
      EXPECT_LE(delta, 1);
      changed += (delta != 0);
    }
    EXPECT_LE(changed, 1) << "at most one head moves";
  }
}

TEST_F(DeploymentFixture, ExplorationStepClampsAtBoundaries) {
  const std::vector<std::int32_t> heads{2};
  sim::Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::int32_t> low{0};
    rl::local_exploration_step(low, heads, rng);
    EXPECT_GE(low[0], 0);
    EXPECT_LE(low[0], 1);
    std::vector<std::int32_t> high{1};
    rl::local_exploration_step(high, heads, rng);
    EXPECT_GE(high[0], 0);
    EXPECT_LE(high[0], 1);
  }
}

TEST_F(DeploymentFixture, OnlineTrainingContinuesInDeployment) {
  build();
  PetAgentConfig cfg = agent_config();
  cfg.rollout_length = 4;
  PetAgent agent(sched, *sw, cfg, 3);
  agent.set_deployment_mode(true);
  agent.freeze_exploration(0.05);
  run_ticks(agent, 12);
  EXPECT_GE(agent.updates(), 1) << "deployment keeps learning online";
  EXPECT_GT(agent.reward_stats().count(), 8u);
}

TEST_F(DeploymentFixture, FreezeExplorationOverridesSchedule) {
  build();
  PetAgentConfig cfg = agent_config();
  cfg.explore_start = 0.5;
  PetAgent agent(sched, *sw, cfg, 4);
  agent.freeze_exploration(0.01);
  run_ticks(agent, 3);
  EXPECT_DOUBLE_EQ(agent.policy().exploration_rate(), 0.01);
  // Negative value restores Eq. (13).
  agent.freeze_exploration(-1.0);
  run_ticks(agent, 1);
  EXPECT_DOUBLE_EQ(agent.policy().exploration_rate(), 0.5);
}

TEST_F(DeploymentFixture, EvaluateMatchesPolicySemantics) {
  build();
  PetAgent agent(sched, *sw, agent_config(), 5);
  const auto& policy = agent.policy();
  const auto in = static_cast<std::size_t>(policy.config().input_size);
  const std::vector<double> state(in, 0.3);

  // The greedy decision, then decisions from streams that always probe (a
  // one-head, one-level step from it).
  sim::Rng unused(50);
  const auto greedy = policy.act_greedy(state, unused, 0.0);
  EXPECT_DOUBLE_EQ(greedy.value, policy.value_batch(state, 1)[0]);
  EXPECT_LE(greedy.log_prob, 0.0);
  for (std::uint64_t seed = 51; seed < 51 + policy.num_heads(); ++seed) {
    sim::Rng rng(seed);
    const auto probe = policy.act_greedy(state, rng, 1.0);
    // The argmax action is at least as probable as any single-head tweak.
    EXPECT_GE(greedy.log_prob, probe.log_prob);
    EXPECT_EQ(probe.value, greedy.value);
    std::int32_t moved = 0;
    for (std::size_t h = 0; h < probe.actions.size(); ++h) {
      EXPECT_LE(std::abs(probe.actions[h] - greedy.actions[h]), 1);
      moved += probe.actions[h] != greedy.actions[h] ? 1 : 0;
    }
    EXPECT_LE(moved, 1);
  }
}

TEST_F(DeploymentFixture, EntropyCoefAnnealsWithExploration) {
  build();
  PetAgentConfig cfg = agent_config();
  cfg.explore_start = 0.2;
  cfg.entropy_start = 0.08;
  cfg.entropy_min = 0.01;
  cfg.decay_T = 2;
  cfg.decay_rate = 0.5;
  PetAgent agent(sched, *sw, cfg, 6);
  run_ticks(agent, 1);
  EXPECT_NEAR(agent.policy().entropy_coef(), 0.08, 1e-12);
  run_ticks(agent, 30);
  EXPECT_LT(agent.policy().entropy_coef(), 0.08);
  EXPECT_GE(agent.policy().entropy_coef(), 0.01);
}

}  // namespace
}  // namespace pet::core
