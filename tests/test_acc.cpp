#include "acc/acc_agent.hpp"

#include <gtest/gtest.h>

namespace pet::acc {
namespace {

struct AccFixture : ::testing::Test {
  sim::Scheduler sched;
  net::Network net{sched, 61};
  std::vector<net::SwitchDevice*> switches;

  void build(int num_switches = 2, int hosts_each = 2) {
    net::PortConfig nic;
    nic.rate = sim::gbps(10);
    nic.propagation_delay = sim::nanoseconds(100);
    for (int s = 0; s < num_switches; ++s) {
      auto& sw = net.add_switch({});
      switches.push_back(&sw);
      for (int i = 0; i < hosts_each; ++i) {
        auto& h = net.add_host(nic);
        net.connect(h.id(), sw.id(), nic.rate, nic.propagation_delay);
      }
    }
    net.recompute_routes();
  }

  AccControllerConfig controller_config() {
    AccControllerConfig cfg;
    cfg.agent.tuning_interval = sim::microseconds(100);
    cfg.agent.ddqn.hidden = {16};
    cfg.agent.ddqn.batch_size = 8;
    return cfg;
  }
};

TEST_F(AccFixture, AgentsShareOneGlobalReplay) {
  build();
  AccController ctl(sched, switches, controller_config(), 1);
  ctl.start();
  sched.run_until(sim::milliseconds(2));
  // Both agents observed transitions into the same buffer.
  EXPECT_GT(ctl.global_replay().size(), 20u);
  EXPECT_GT(ctl.global_replay().bytes_from_others(switches[0]->id()), 0u);
  EXPECT_GT(ctl.global_replay().bytes_from_others(switches[1]->id()), 0u);
}

TEST_F(AccFixture, ReplayExchangeBytesGrowWithTraining) {
  build();
  AccController ctl(sched, switches, controller_config(), 2);
  ctl.start();
  sched.run_until(sim::milliseconds(1));
  const auto early = ctl.replay_exchange_bytes();
  EXPECT_GT(early, 0u);
  sched.run_until(sim::milliseconds(3));
  EXPECT_GT(ctl.replay_exchange_bytes(), early);
}

TEST_F(AccFixture, TickAppliesValidEcnConfig) {
  build(1);
  AccController ctl(sched, switches, controller_config(), 3);
  ctl.start();
  sched.run_until(sim::milliseconds(1));
  const auto& cfg = ctl.agent(0).current_config();
  EXPECT_TRUE(cfg.valid());
  EXPECT_LE(cfg.kmin_bytes, cfg.kmax_bytes);
  for (std::int32_t p = 0; p < switches[0]->num_ports(); ++p) {
    EXPECT_EQ(switches[0]->port(p).ecn_config(0), cfg);
  }
}

TEST_F(AccFixture, StateIsBasicSetOnly) {
  build(1);
  AccAgentConfig cfg;
  EXPECT_FALSE(cfg.state.include_incast);
  EXPECT_FALSE(cfg.state.include_flow_ratio);
  const core::StateBuilder sb(cfg.state, cfg.action_space);
  EXPECT_EQ(sb.slot_features(), 6);
}

TEST_F(AccFixture, TrainingProgresses) {
  build(1);
  AccController ctl(sched, switches, controller_config(), 4);
  ctl.start();
  sched.run_until(sim::milliseconds(3));
  EXPECT_GT(ctl.agent(0).learner().train_steps(), 0);
  EXPECT_GT(ctl.agent(0).reward_stats().count(), 10u);
}

TEST_F(AccFixture, InstallWeightsSynchronizesAgents) {
  build(2);
  AccController ctl(sched, switches, controller_config(), 6);
  const auto w = ctl.agent(0).learner().weights();
  ASSERT_TRUE(ctl.install_weights(w));
  EXPECT_EQ(ctl.agent(1).learner().weights(), w);
}

TEST_F(AccFixture, LrScaleMultipliesTheConfiguredRate) {
  build(1);
  AccControllerConfig cfg = controller_config();
  cfg.agent.ddqn.lr = 5e-4;
  AccController ctl(sched, switches, cfg, 8);
  ctl.set_lr_scale(2.0);
  EXPECT_DOUBLE_EQ(ctl.agent(0).learner().lr(), 1e-3);
  ctl.enter_deployment();
  EXPECT_DOUBLE_EQ(ctl.agent(0).learner().lr(), 5e-4);
}

TEST_F(AccFixture, StopHaltsTicks) {
  build(1);
  AccController ctl(sched, switches, controller_config(), 7);
  ctl.start();
  sched.run_until(sim::milliseconds(1));
  ctl.stop();
  const auto steps = ctl.agent(0).steps();
  sched.run_until(sim::milliseconds(2));
  EXPECT_EQ(ctl.agent(0).steps(), steps);
}

}  // namespace
}  // namespace pet::acc
