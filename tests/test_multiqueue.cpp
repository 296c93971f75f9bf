// Multi-queue adaptation (paper Section 4.5.2): a PetController with
// num_queues > 1 deploys one PetAgent per (switch, queue), each monitoring
// and actuating only its own data queue.

#include "core/controller.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/ncm.hpp"
#include "core/pet_agent.hpp"
#include "net/classifier.hpp"
#include "net/network.hpp"

namespace pet::core {
namespace {

net::Packet data_packet(net::HostId src, net::HostId dst, net::FlowId flow,
                        std::int32_t bytes = 1000) {
  net::Packet pkt;
  pkt.flow_id = flow;
  pkt.src = src;
  pkt.dst = dst;
  pkt.type = net::PacketType::kData;
  pkt.size_bytes = bytes;
  pkt.payload_bytes = bytes;
  return pkt;
}

struct MultiQueueFixture : ::testing::Test {
  sim::Scheduler sched;
  net::Network net{sched, 71};
  net::SwitchDevice* sw = nullptr;
  std::vector<net::SwitchDevice*> switches;

  void build(std::int32_t queues = 2, int hosts = 4) {
    net::SwitchConfig cfg;
    cfg.num_data_queues = queues;
    sw = &net.add_switch(cfg);
    switches = {sw};
    net::PortConfig nic;
    nic.rate = sim::gbps(10);
    nic.propagation_delay = sim::nanoseconds(100);
    for (int i = 0; i < hosts; ++i) {
      auto& h = net.add_host(nic);
      net.connect(h.id(), sw->id(), nic.rate, nic.propagation_delay);
    }
    net.recompute_routes();
  }

  PetControllerConfig controller_config(std::int32_t queues = 2) {
    PetControllerConfig cfg;
    cfg.num_queues = queues;
    cfg.agent = PetAgentConfig::paper_defaults();
    cfg.agent.tuning_interval = sim::microseconds(100);
    cfg.agent.rollout_length = 8;
    cfg.agent.ppo.minibatch_size = 8;
    cfg.agent.ppo.update_epochs = 2;
    cfg.agent.ppo.hidden = {16, 16};
    return cfg;
  }

  /// Advance by `n` tuning ticks (the controller must be started).
  void run_ticks(int n) {
    sched.run_until(sched.now() + sim::microseconds(100) * n);
  }
};

TEST_F(MultiQueueFixture, TickAppliesPerQueueConfigs) {
  build();
  PetController ctl(sched, switches, controller_config(), 1);
  ASSERT_EQ(ctl.num_agents(), 2u);
  ctl.start();
  run_ticks(1);
  for (std::int32_t q = 0; q < 2; ++q) {
    PetAgent& agent = ctl.agent(static_cast<std::size_t>(q));
    EXPECT_EQ(agent.queue_index(), q);
    const net::RedEcnConfig cfg = agent.current_config();
    EXPECT_TRUE(cfg.valid());
    for (std::int32_t p = 0; p < sw->num_ports(); ++p) {
      EXPECT_EQ(sw->port(p).ecn_config(q), cfg);
    }
  }
}

TEST_F(MultiQueueFixture, QueuesCanDiverge) {
  build();
  PetController ctl(sched, switches, controller_config(), 2);
  ctl.start();
  // With stochastic sampling per queue, configs should differ at least
  // once over a few ticks.
  bool diverged = false;
  for (int i = 0; i < 20 && !diverged; ++i) {
    run_ticks(1);
    diverged = !(ctl.agent(0).current_config() == ctl.agent(1).current_config());
  }
  EXPECT_TRUE(diverged);
}

TEST_F(MultiQueueFixture, QueueScopedNcmSeesOnlyItsQueue) {
  build();
  // Route mice to queue 0 and flow 99 (elephant-tagged by classifier) to
  // queue 1 via an explicit classifier.
  sw->set_classifier([](const net::Packet& pkt) {
    return pkt.flow_id == 99 ? 1 : 0;
  });
  NcmConfig q0_cfg;
  q0_cfg.queue_index = 0;
  NcmConfig q1_cfg;
  q1_cfg.queue_index = 1;
  Ncm ncm0(sched, *sw, q0_cfg);
  Ncm ncm1(sched, *sw, q1_cfg);

  for (int i = 0; i < 5; ++i) sw->receive(data_packet(1, 0, 10), 1);
  for (int i = 0; i < 3; ++i) sw->receive(data_packet(2, 0, 99), 2);
  sched.run_until(sim::microseconds(100));

  EXPECT_EQ(ncm0.sample().packets_seen, 5);
  EXPECT_EQ(ncm1.sample().packets_seen, 3);
}

TEST_F(MultiQueueFixture, RewardsAccumulateAndUpdatesRun) {
  build();
  PetControllerConfig cfg = controller_config();
  cfg.agent.rollout_length = 4;
  PetController ctl(sched, switches, cfg, 3);
  ctl.start();
  run_ticks(8);
  // 2 queues x 7 completed transitions, each queue learning on its own.
  std::size_t rewards = 0;
  for (std::size_t i = 0; i < ctl.num_agents(); ++i) {
    rewards += ctl.agent(i).reward_stats().count();
    EXPECT_GE(ctl.agent(i).updates(), 1);
  }
  EXPECT_EQ(rewards, 14u);
}

TEST_F(MultiQueueFixture, ControllerDrivesAllSwitches) {
  build();
  net::SwitchConfig cfg2;
  cfg2.num_data_queues = 2;
  auto& sw2 = net.add_switch(cfg2);
  net::PortConfig nic;
  auto& h = net.add_host(nic);
  net.connect(h.id(), sw2.id(), sim::gbps(10), sim::nanoseconds(100));
  net.recompute_routes();

  switches.push_back(&sw2);
  PetController ctl(sched, switches, controller_config(), 5);
  ctl.start();
  sched.run_until(sim::milliseconds(1));
  ASSERT_EQ(ctl.num_agents(), 4u);  // 2 switches x 2 queues
  for (std::size_t i = 0; i < ctl.num_agents(); ++i) {
    EXPECT_EQ(ctl.agent(i).steps(), 10);
  }
  EXPECT_EQ(&ctl.agent(2).switch_device(), &sw2);
  ctl.stop();
  sched.run_until(sim::milliseconds(2));
  EXPECT_EQ(ctl.agent(0).steps(), 10);
}

TEST_F(MultiQueueFixture, SingleQueueDegenerateWorks) {
  build(/*queues=*/1);
  PetController ctl(sched, switches, controller_config(/*queues=*/1), 6);
  ctl.start();
  run_ticks(1);
  ASSERT_EQ(ctl.num_agents(), 1u);
  EXPECT_EQ(ctl.agent(0).queue_index(), -1);
  EXPECT_TRUE(ctl.agent(0).current_config().valid());
}

TEST_F(MultiQueueFixture, QuarantineFallsBackOnItsQueueOnly) {
  build();
  const PetControllerConfig cfg = controller_config();
  PetController ctl(sched, switches, cfg, 7);
  ctl.start();
  run_ticks(3);
  std::vector<net::RedEcnConfig> queue0;
  for (std::int32_t p = 0; p < sw->num_ports(); ++p) {
    queue0.push_back(sw->port(p).ecn_config(0));
  }

  ctl.agent(1).force_quarantine("operator override");
  EXPECT_EQ(ctl.agent(1).health(), AgentHealth::kQuarantined);
  EXPECT_NE(ctl.agent(0).health(), AgentHealth::kQuarantined);
  const net::RedEcnConfig fallback = cfg.agent.guardrails.fallback_ecn;
  for (std::int32_t p = 0; p < sw->num_ports(); ++p) {
    EXPECT_EQ(sw->port(p).ecn_config(1), fallback);
    EXPECT_EQ(sw->port(p).ecn_config(0), queue0[static_cast<std::size_t>(p)]);
  }
  // The quarantined agent holds the fallback while its sibling keeps tuning.
  run_ticks(3);
  for (std::int32_t p = 0; p < sw->num_ports(); ++p) {
    EXPECT_EQ(sw->port(p).ecn_config(1), fallback);
  }
}

TEST_F(MultiQueueFixture, TooManyQueuesRejected) {
  build(/*queues=*/1);
  EXPECT_THROW(PetController(sched, switches, controller_config(2), 8),
               std::invalid_argument);
}

}  // namespace
}  // namespace pet::core
