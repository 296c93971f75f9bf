#include "core/pet_agent.hpp"

#include <gtest/gtest.h>

#include "core/controller.hpp"
#include "net/network.hpp"

namespace pet::core {
namespace {

struct PetFixture : ::testing::Test {
  sim::Scheduler sched;
  net::Network net{sched, 51};
  net::SwitchDevice* sw = nullptr;

  void build(int hosts = 4) {
    sw = &net.add_switch({});
    net::PortConfig nic;
    nic.rate = sim::gbps(10);
    nic.propagation_delay = sim::nanoseconds(100);
    for (int i = 0; i < hosts; ++i) {
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
    cfg.ppo.update_epochs = 2;
    cfg.ppo.hidden = {16, 16};
    return cfg;
  }
};

TEST_F(PetFixture, TickAppliesConfigToAllPorts) {
  build();
  PetAgent agent(sched, *sw, agent_config(), 1);
  agent.tick();
  const net::RedEcnConfig cfg = agent.current_config();
  for (std::int32_t p = 0; p < sw->num_ports(); ++p) {
    EXPECT_EQ(sw->port(p).ecn_config(0), cfg);
  }
  EXPECT_TRUE(cfg.valid());
}

TEST_F(PetFixture, ConfigAlwaysFromActionSpace) {
  build();
  PetAgentConfig cfg = agent_config();
  PetAgent agent(sched, *sw, cfg, 2);
  for (int i = 0; i < 50; ++i) {
    sched.run_until(sched.now() + cfg.tuning_interval);
    agent.tick();
    const auto& ecn = agent.current_config();
    // Thresholds must be E(n) values.
    bool kmax_ok = false;
    for (int n = 0; n < cfg.action_space.n_levels; ++n) {
      if (ecn.kmax_bytes == cfg.action_space.threshold_bytes(n)) kmax_ok = true;
    }
    EXPECT_TRUE(kmax_ok);
    EXPECT_LE(ecn.kmin_bytes, ecn.kmax_bytes);
  }
}

TEST_F(PetFixture, RewardsRecordedAfterSecondTick) {
  build();
  PetAgent agent(sched, *sw, agent_config(), 3);
  agent.tick();
  EXPECT_EQ(agent.reward_stats().count(), 0u);  // no completed transition yet
  sched.run_until(sim::microseconds(100));
  agent.tick();
  EXPECT_EQ(agent.reward_stats().count(), 1u);
}

TEST_F(PetFixture, UpdateRunsAfterRolloutFills) {
  build();
  PetAgentConfig cfg = agent_config();
  cfg.rollout_length = 4;
  PetAgent agent(sched, *sw, cfg, 4);
  for (int i = 0; i < 8; ++i) {
    agent.tick();
    sched.run_until(sched.now() + cfg.tuning_interval);
  }
  EXPECT_GE(agent.updates(), 1);
}

TEST_F(PetFixture, ExplorationDecaysPerEq13) {
  build();
  PetAgentConfig cfg = agent_config();
  cfg.explore_start = 0.4;
  cfg.decay_T = 5;
  cfg.decay_rate = 0.5;
  cfg.explore_min = 0.001;
  PetAgent agent(sched, *sw, cfg, 6);
  for (int i = 0; i < 5; ++i) {
    agent.tick();
    sched.run_until(sched.now() + sim::microseconds(100));
  }
  // At t <= T exploration stays at explore_start.
  EXPECT_NEAR(agent.policy().exploration_rate(), 0.4, 1e-12);
  for (int i = 0; i < 20; ++i) {
    agent.tick();
    sched.run_until(sched.now() + sim::microseconds(100));
  }
  // t = 25, T = 5: 0.5^(25/5) * 0.4 = 0.0125.
  EXPECT_NEAR(agent.policy().exploration_rate(), 0.0125, 1e-9);
}

TEST_F(PetFixture, ExplorationFloorHolds) {
  build();
  PetAgentConfig cfg = agent_config();
  cfg.explore_start = 0.4;
  cfg.decay_T = 1;
  cfg.decay_rate = 0.1;
  cfg.explore_min = 0.05;
  PetAgent agent(sched, *sw, cfg, 7);
  for (int i = 0; i < 30; ++i) {
    agent.tick();
    sched.run_until(sched.now() + sim::microseconds(100));
  }
  EXPECT_DOUBLE_EQ(agent.policy().exploration_rate(), 0.05);
}

TEST_F(PetFixture, SharedPolicyIsActuallyShared) {
  build();
  auto& sw2 = net.add_switch({});
  net::PortConfig nic;
  auto& h = net.add_host(nic);
  net.connect(h.id(), sw2.id(), sim::gbps(10), sim::nanoseconds(100));
  net.recompute_routes();

  PetControllerConfig cc;
  cc.agent = agent_config();
  cc.shared_policy = true;
  std::vector<net::SwitchDevice*> switches{sw, &sw2};
  PetController ctl(sched, switches, cc, 77);
  ASSERT_EQ(ctl.num_agents(), 2u);
  EXPECT_EQ(&ctl.agent(0).policy(), &ctl.agent(1).policy());
}

TEST_F(PetFixture, IndependentPoliciesByDefault) {
  build();
  auto& sw2 = net.add_switch({});
  net::PortConfig nic;
  auto& h = net.add_host(nic);
  net.connect(h.id(), sw2.id(), sim::gbps(10), sim::nanoseconds(100));
  net.recompute_routes();

  PetControllerConfig cc;
  cc.agent = agent_config();
  std::vector<net::SwitchDevice*> switches{sw, &sw2};
  PetController ctl(sched, switches, cc, 78);
  EXPECT_NE(&ctl.agent(0).policy(), &ctl.agent(1).policy());
}

TEST_F(PetFixture, ControllerTicksAllAgentsPeriodically) {
  build();
  PetControllerConfig cc;
  cc.agent = agent_config();
  std::vector<net::SwitchDevice*> switches{sw};
  PetController ctl(sched, switches, cc, 79);
  ctl.start();
  sched.run_until(sim::milliseconds(1));
  EXPECT_EQ(ctl.agent(0).steps(), 10);  // 1ms / 100us
  ctl.stop();
  sched.run_until(sim::milliseconds(2));
  EXPECT_EQ(ctl.agent(0).steps(), 10);
}

TEST_F(PetFixture, InstallWeightsPropagatesToAllAgents) {
  build();
  auto& sw2 = net.add_switch({});
  net::PortConfig nic;
  auto& h = net.add_host(nic);
  net.connect(h.id(), sw2.id(), sim::gbps(10), sim::nanoseconds(100));
  net.recompute_routes();

  PetControllerConfig cc;
  cc.agent = agent_config();
  std::vector<net::SwitchDevice*> switches{sw, &sw2};
  PetController ctl(sched, switches, cc, 80);
  const auto w = ctl.agent(0).policy().weights();
  ASSERT_TRUE(ctl.install_weights(w));
  EXPECT_EQ(ctl.agent(1).policy().weights(), w);
}

}  // namespace
}  // namespace pet::core
