#include "acc/dynamic_tuners.hpp"

#include <gtest/gtest.h>

#include "exp/experiment.hpp"

namespace pet::baselines {
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

struct TunerFixture : ::testing::Test {
  sim::Scheduler sched;
  net::Network net{sched, 81};
  net::SwitchDevice* sw = nullptr;
  std::vector<net::SwitchDevice*> switches;

  void build() {
    sw = &net.add_switch({});
    switches = {sw};
    net::PortConfig nic;
    nic.rate = sim::gbps(10);
    nic.propagation_delay = sim::nanoseconds(100);
    for (int i = 0; i < 4; ++i) {
      auto& h = net.add_host(nic);
      net.connect(h.id(), sw->id(), nic.rate, nic.propagation_delay);
    }
    net.recompute_routes();
  }
};

TEST_F(TunerFixture, AmtIdleLinkGetsFloorThreshold) {
  build();
  AmtConfig cfg;
  AmtTuner tuner(sched, switches, cfg);
  tuner.start();
  sched.run_until(sim::milliseconds(2));
  // No traffic: utilization ~0 -> threshold at the floor.
  EXPECT_EQ(sw->port(0).ecn_config(0).kmax_bytes, cfg.kmax_floor_bytes);
  EXPECT_NEAR(tuner.utilization(0), 0.0, 1e-9);
}

TEST_F(TunerFixture, AmtBusyLinkRaisesThreshold) {
  build();
  AmtConfig cfg;
  AmtTuner tuner(sched, switches, cfg);
  tuner.start();
  // Saturate the egress toward host 0; sample while the backlog is still
  // draining (the 2MB buffer holds ~1.6ms of 10G egress).
  for (int i = 0; i < 1900; ++i) sw->receive(data_packet(1, 0, 5), 1);
  sched.run_until(sim::microseconds(1400));
  EXPECT_GT(tuner.utilization(0), 0.8);
  EXPECT_GT(sw->port(0).ecn_config(0).kmax_bytes, cfg.kmax_floor_bytes * 4);
}

TEST_F(TunerFixture, AmtKminTracksKmax) {
  build();
  AmtConfig cfg;
  cfg.kmin_fraction = 0.25;
  AmtTuner tuner(sched, switches, cfg);
  tuner.start();
  sched.run_until(sim::milliseconds(1));
  const auto ecn = sw->port(0).ecn_config(0);
  EXPECT_EQ(ecn.kmin_bytes, ecn.kmax_bytes / 4);
  EXPECT_TRUE(ecn.valid());
}

TEST_F(TunerFixture, AmtStopHaltsAdjustments) {
  build();
  AmtTuner tuner(sched, switches, AmtConfig{});
  tuner.start();
  sched.run_until(sim::milliseconds(1));
  tuner.stop();
  const auto count = tuner.adjustments();
  sched.run_until(sim::milliseconds(2));
  EXPECT_EQ(tuner.adjustments(), count);
}

TEST_F(TunerFixture, QaecnRelaxesThresholdWhenQueueEmpty) {
  build();
  QaecnConfig cfg;
  QaecnTuner tuner(sched, switches, cfg);
  tuner.start();
  sched.run_until(sim::milliseconds(3));
  // Queue stays at zero: the integral controller drifts to the ceiling.
  EXPECT_EQ(tuner.current_kmax(0), cfg.kmax_ceiling_bytes);
}

TEST_F(TunerFixture, QaecnTightensUnderBacklog) {
  build();
  QaecnConfig cfg;
  cfg.target_qlen_bytes = 5 * 1024;
  QaecnTuner tuner(sched, switches, cfg);
  tuner.start();
  // Keep a deep backlog: pause the egress and fill.
  sw->port(0).set_paused(true);
  for (int i = 0; i < 200; ++i) sw->receive(data_packet(1, 0, 6), 1);
  const auto before = tuner.current_kmax(0);
  sched.run_until(sim::milliseconds(1));
  EXPECT_LT(tuner.current_kmax(0), before);
  sched.run_until(sim::milliseconds(5));
  EXPECT_EQ(tuner.current_kmax(0), cfg.kmax_floor_bytes);
}

TEST_F(TunerFixture, QaecnConfigAlwaysValid) {
  build();
  QaecnTuner tuner(sched, switches, QaecnConfig{});
  tuner.start();
  for (int burst = 0; burst < 5; ++burst) {
    for (int i = 0; i < 100; ++i) sw->receive(data_packet(1, 0, 7), 1);
    sched.run_until(sched.now() + sim::microseconds(500));
    EXPECT_TRUE(sw->port(0).ecn_config(0).valid());
  }
}

TEST(DynamicSchemes, ExperimentIntegration) {
  exp::ScenarioConfig cfg;
  cfg.topo.leaf_spine().num_spines = 1;
  cfg.topo.leaf_spine().num_leaves = 2;
  cfg.topo.leaf_spine().hosts_per_leaf = 4;
  cfg.load = 0.5;
  cfg.flow_size_cap_bytes = 2e6;
  cfg.pretrain = sim::milliseconds(2);
  cfg.measure = sim::milliseconds(6);
  cfg.tune_dcqcn_for_rate();
  for (const exp::Scheme scheme : {exp::Scheme::kAmt, exp::Scheme::kQaecn}) {
    cfg.scheme = scheme;
    exp::Experiment experiment(cfg);
    const exp::Metrics m = experiment.run();
    EXPECT_GT(m.flows_measured, 20) << exp::scheme_name(scheme);
    EXPECT_EQ(m.switch_drops, 0) << exp::scheme_name(scheme);
    if (scheme == exp::Scheme::kAmt) {
      const auto* amt = dynamic_cast<const AmtTuner*>(experiment.tuner());
      ASSERT_NE(amt, nullptr);
      EXPECT_GT(amt->adjustments(), 0);
    } else {
      const auto* qaecn = dynamic_cast<const QaecnTuner*>(experiment.tuner());
      ASSERT_NE(qaecn, nullptr);
      EXPECT_GT(qaecn->adjustments(), 0);
    }
  }
}

}  // namespace
}  // namespace pet::baselines
