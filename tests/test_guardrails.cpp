// Agent health state machine: hard faults quarantine the agent, its switch
// falls back to static ECN thresholds, the policy rolls back to the
// last-known-good snapshot, and service resumes through probation.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/pet_agent.hpp"
#include "net/network.hpp"

namespace pet::core {
namespace {

bool weights_finite(const std::vector<double>& w) {
  for (const double v : w) {
    if (!std::isfinite(v)) return false;
  }
  return !w.empty();
}

net::Packet data_packet(net::HostId src, net::HostId dst) {
  net::Packet pkt;
  pkt.flow_id = 1;
  pkt.src = src;
  pkt.dst = dst;
  pkt.type = net::PacketType::kData;
  pkt.size_bytes = 1000;
  pkt.payload_bytes = 1000;
  return pkt;
}

struct GuardrailFixture : ::testing::Test {
  sim::Scheduler sched;
  net::Network net{sched, 61};
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
    cfg.rollout_length = 4;
    cfg.ppo.minibatch_size = 4;
    cfg.ppo.update_epochs = 2;
    cfg.ppo.hidden = {16, 16};
    cfg.guardrails.quarantine_ticks = 3;
    cfg.guardrails.probation_ticks = 2;
    cfg.guardrails.stale_telemetry_slots = 0;  // off unless a test opts in
    return cfg;
  }

  void tick(PetAgent& agent, int n = 1) {
    for (int i = 0; i < n; ++i) {
      agent.tick();
      sched.run_until(sched.now() + sim::microseconds(100));
    }
  }
};

// The acceptance scenario: an agent whose policy network is poisoned with
// NaN (as a NaN gradient step would) is quarantined within one tuning tick,
// its switch reverts to the static fallback thresholds, and after
// rollback + probation it trains again with finite losses.
TEST_F(GuardrailFixture, NanPoisonedAgentQuarantinesWithinOneTick) {
  build();
  PetAgentConfig cfg = agent_config();
  PetAgent agent(sched, *sw, cfg, 1);
  tick(agent, 6);  // healthy steps, at least one PPO update
  ASSERT_EQ(agent.health(), AgentHealth::kHealthy);
  const std::int64_t updates_before = agent.updates();

  const std::size_t n = agent.policy().weights().size();
  ASSERT_TRUE(agent.policy().set_weights(
      std::vector<double>(n, std::numeric_limits<double>::quiet_NaN())));
  tick(agent);  // one tick is enough to trip the guardrail
  EXPECT_EQ(agent.health(), AgentHealth::kQuarantined);
  EXPECT_EQ(agent.rollbacks(), 1);

  // Switch fell back to the static DCQCN-style thresholds...
  const net::RedEcnConfig fallback = cfg.guardrails.fallback_ecn;
  for (std::int32_t p = 0; p < sw->num_ports(); ++p) {
    EXPECT_EQ(sw->port(p).ecn_config(), fallback);
  }
  // ...and the rollback left only finite weights behind.
  EXPECT_TRUE(weights_finite(agent.policy().weights()));

  // Training halts while quarantined.
  tick(agent, cfg.guardrails.quarantine_ticks - 1);
  EXPECT_EQ(agent.health(), AgentHealth::kQuarantined);
  EXPECT_EQ(agent.updates(), updates_before);

  // Quarantine elapses into probation; clean probation ticks restore full
  // health, and training resumes with finite losses.
  tick(agent);
  EXPECT_EQ(agent.health(), AgentHealth::kProbation);
  tick(agent, cfg.guardrails.probation_ticks);
  EXPECT_EQ(agent.health(), AgentHealth::kHealthy);
  tick(agent, 10);
  EXPECT_GT(agent.updates(), updates_before);
  EXPECT_TRUE(std::isfinite(agent.last_update().policy_loss));
  EXPECT_TRUE(std::isfinite(agent.last_update().value_loss));
  EXPECT_TRUE(std::isfinite(agent.last_update().entropy));
}

TEST_F(GuardrailFixture, ProbationPinsExploration) {
  build();
  PetAgentConfig cfg = agent_config();
  cfg.guardrails.probation_exploration = 0.0;
  cfg.explore_start = 0.3;
  PetAgent agent(sched, *sw, cfg, 2);
  agent.force_quarantine("test");
  tick(agent, cfg.guardrails.quarantine_ticks);
  ASSERT_EQ(agent.health(), AgentHealth::kProbation);
  tick(agent);
  EXPECT_DOUBLE_EQ(agent.policy().exploration_rate(), 0.0);
}

TEST_F(GuardrailFixture, ForceQuarantineTakesAgentOutOfService) {
  build();
  PetAgent agent(sched, *sw, agent_config(), 3);
  tick(agent, 2);
  agent.force_quarantine("operator request");
  EXPECT_EQ(agent.health(), AgentHealth::kQuarantined);
  ASSERT_FALSE(agent.health_transitions().empty());
  const HealthTransition& tr = agent.health_transitions().back();
  EXPECT_EQ(tr.to, AgentHealth::kQuarantined);
  EXPECT_EQ(tr.reason, "operator request");
  EXPECT_EQ(tr.switch_id, sw->id());
}

TEST_F(GuardrailFixture, StaleTelemetryDegradesThenRecovers) {
  build();
  PetAgentConfig cfg = agent_config();
  cfg.guardrails.stale_telemetry_slots = 3;
  cfg.guardrails.degraded_recovery_slots = 2;
  PetAgent agent(sched, *sw, cfg, 4);

  // An idle switch produces empty monitoring slots: Degraded after 3.
  tick(agent, 3);
  EXPECT_EQ(agent.health(), AgentHealth::kDegraded);
  // Degraded is advisory — the agent still acts.
  const std::int64_t steps = agent.steps();
  tick(agent);
  // (the 4th stale tick still stepped)
  EXPECT_EQ(agent.steps(), steps + 1);

  // Live traffic through the switch clears the flag.
  for (int i = 0; i < 2; ++i) {
    sw->receive(data_packet(0, 1), 0);
    tick(agent);
  }
  EXPECT_EQ(agent.health(), AgentHealth::kHealthy);
}

TEST_F(GuardrailFixture, CheckpointsAdvanceLastKnownGood) {
  build();
  PetAgentConfig cfg = agent_config();
  cfg.guardrails.checkpoint_interval_updates = 1;
  PetAgent agent(sched, *sw, cfg, 5);
  const std::vector<double> initial = agent.last_known_good();
  ASSERT_TRUE(weights_finite(initial));
  tick(agent, 12);  // several updates at rollout_length 4
  EXPECT_GE(agent.checkpoints(), 2);
  EXPECT_TRUE(weights_finite(agent.last_known_good()));
  EXPECT_NE(agent.last_known_good(), initial);
}

TEST_F(GuardrailFixture, ExplodingPolicyLossQuarantines) {
  build();
  PetAgentConfig cfg = agent_config();
  cfg.guardrails.max_abs_policy_loss = 0.0;  // any nonzero loss trips
  PetAgent agent(sched, *sw, cfg, 6);
  // The rollout (4 transitions) fills on tick 5; that first update trips.
  tick(agent, 5);
  EXPECT_EQ(agent.health(), AgentHealth::kQuarantined);
  ASSERT_FALSE(agent.health_transitions().empty());
  EXPECT_EQ(agent.health_transitions().back().reason, "exploding policy loss");
}

TEST_F(GuardrailFixture, EntropyCollapseQuarantinesAfterGrace) {
  build();
  PetAgentConfig cfg = agent_config();
  cfg.guardrails.min_entropy = 100.0;  // entropy can never reach this
  cfg.guardrails.entropy_grace_updates = 2;
  PetAgent agent(sched, *sw, cfg, 7);
  // Updates 1-2 are within grace; update 3 trips the collapse check.
  tick(agent, 20);
  ASSERT_FALSE(agent.health_transitions().empty());
  const HealthTransition& tr = agent.health_transitions().front();
  EXPECT_EQ(tr.to, AgentHealth::kQuarantined);
  EXPECT_EQ(tr.reason, "entropy collapse");
  EXPECT_EQ(agent.updates(), 3);
}

TEST_F(GuardrailFixture, HealthListenerObservesEveryTransition) {
  build();
  PetAgentConfig cfg = agent_config();
  PetAgent agent(sched, *sw, cfg, 8);
  std::vector<HealthTransition> seen;
  agent.set_health_listener(
      [&](const HealthTransition& tr) { seen.push_back(tr); });
  agent.force_quarantine("listener test");
  tick(agent, cfg.guardrails.quarantine_ticks + cfg.guardrails.probation_ticks);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].to, AgentHealth::kQuarantined);
  EXPECT_EQ(seen[1].to, AgentHealth::kProbation);
  EXPECT_EQ(seen[2].to, AgentHealth::kHealthy);
  EXPECT_EQ(seen.size(), agent.health_transitions().size());
}

TEST_F(GuardrailFixture, SnapshotRestoreRoundTrips) {
  build();
  PetAgent agent(sched, *sw, agent_config(), 10);
  const std::vector<double> snap = agent.snapshot();
  tick(agent, 8);  // training moves the weights
  ASSERT_NE(agent.policy().weights(), snap);
  agent.restore(snap);
  EXPECT_EQ(agent.policy().weights(), snap);
}

}  // namespace
}  // namespace pet::core
