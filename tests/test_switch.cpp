#include "net/switch.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <vector>

#include "net/network.hpp"

namespace pet::net {
namespace {

class RecordingApp : public HostApp {
 public:
  void on_receive(const Packet& pkt) override { received.push_back(pkt); }
  std::vector<Packet> received;
};

Packet data_packet(HostId src, HostId dst, FlowId flow,
                   std::int32_t bytes = 1000) {
  Packet pkt;
  pkt.flow_id = flow;
  pkt.src = src;
  pkt.dst = dst;
  pkt.type = PacketType::kData;
  pkt.size_bytes = bytes;
  pkt.payload_bytes = bytes;
  return pkt;
}

/// Two hosts hanging off one switch.
struct SwitchFixture : ::testing::Test {
  sim::Scheduler sched;
  Network net{sched, 99};
  SwitchConfig sw_cfg;
  SwitchDevice* sw = nullptr;
  RecordingApp app0, app1;

  void build(SwitchConfig cfg = {}) {
    sw_cfg = cfg;
    PortConfig nic;
    nic.rate = sim::gbps(10);
    nic.propagation_delay = sim::nanoseconds(100);
    auto& h0 = net.add_host(nic);
    auto& h1 = net.add_host(nic);
    sw = &net.add_switch(sw_cfg);
    net.connect(h0.id(), sw->id(), nic.rate, nic.propagation_delay);
    net.connect(h1.id(), sw->id(), nic.rate, nic.propagation_delay);
    net.recompute_routes();
    h0.set_app(&app0);
    h1.set_app(&app1);
  }
};

TEST_F(SwitchFixture, RoutesToDestinationHost) {
  build();
  sw->receive(data_packet(0, 1, 5), 0);
  sched.run_all();
  ASSERT_EQ(app1.received.size(), 1u);
  EXPECT_EQ(app1.received[0].flow_id, 5u);
  EXPECT_TRUE(app0.received.empty());
}

TEST_F(SwitchFixture, DropsWhenNoRoute) {
  build();
  sw->receive(data_packet(0, 42, 1), 0);  // host 42 does not exist
  sched.run_all();
  EXPECT_EQ(sw->dropped_no_route(), 1);
  EXPECT_TRUE(app1.received.empty());
}

TEST_F(SwitchFixture, BufferAccountingReleasesOnDeparture) {
  build();
  sw->receive(data_packet(0, 1, 1), 0);
  EXPECT_EQ(sw->buffer_used_bytes(), 1000);
  sched.run_all();
  EXPECT_EQ(sw->buffer_used_bytes(), 0);
}

TEST_F(SwitchFixture, DropsWhenBufferFull) {
  SwitchConfig cfg;
  cfg.buffer_bytes = 2500;  // fits 2 packets
  cfg.pfc_enabled = false;
  build(cfg);
  // All five arrive back-to-back before any departure frees buffer space:
  // two fit, three drop.
  for (int i = 0; i < 5; ++i) sw->receive(data_packet(0, 1, 1), 0);
  EXPECT_EQ(sw->dropped_buffer_full(), 3);
  sched.run_all();
  EXPECT_EQ(app1.received.size(), 2u);
}

TEST_F(SwitchFixture, ControlPacketsBypassBufferAccounting) {
  SwitchConfig cfg;
  cfg.buffer_bytes = 1000;
  build(cfg);
  Packet cnp = data_packet(0, 1, 1, 64);
  cnp.type = PacketType::kCnp;
  sw->receive(data_packet(0, 1, 1), 0);  // fills the buffer
  sw->receive(cnp, 0);
  EXPECT_EQ(sw->dropped_buffer_full(), 0);
  sched.run_all();
  EXPECT_EQ(app1.received.size(), 2u);
}

TEST_F(SwitchFixture, PfcPauseSentAboveXoffAndResumeBelowXon) {
  SwitchConfig cfg;
  cfg.pfc_enabled = true;
  cfg.pfc_xoff_bytes = 2500;
  cfg.pfc_xon_bytes = 1500;
  build(cfg);
  // Flood from ingress port 0 faster than the egress can drain.
  for (int i = 0; i < 4; ++i) sw->receive(data_packet(0, 1, 1), 0);
  EXPECT_EQ(sw->pfc_pauses_sent(), 1);
  // Host 0's NIC egress must be paused once the PFC frame arrives.
  sched.run_until(sim::microseconds(2));
  EXPECT_TRUE(net.host(0).port(0).paused());
  // Draining below XON resumes it.
  sched.run_all();
  EXPECT_FALSE(net.host(0).port(0).paused());
  EXPECT_EQ(app1.received.size(), 4u);
}

TEST_F(SwitchFixture, PfcDisabledSendsNoPauses) {
  SwitchConfig cfg;
  cfg.pfc_enabled = false;
  build(cfg);
  for (int i = 0; i < 50; ++i) sw->receive(data_packet(0, 1, 1), 0);
  EXPECT_EQ(sw->pfc_pauses_sent(), 0);
}

TEST_F(SwitchFixture, ForwardObserverSeesDataPackets) {
  build();
  std::vector<FlowId> observed;
  sw->add_forward_observer([&](const Packet& pkt, std::int32_t,
                               std::int32_t) { observed.push_back(pkt.flow_id); });
  sw->receive(data_packet(0, 1, 7), 0);
  sw->receive(data_packet(0, 1, 8), 0);
  EXPECT_EQ(observed, (std::vector<FlowId>{7, 8}));
}

TEST_F(SwitchFixture, ClassifierSelectsQueue) {
  SwitchConfig cfg;
  cfg.num_data_queues = 2;
  build(cfg);
  sw->set_classifier(
      [](const Packet& pkt) { return static_cast<std::int32_t>(pkt.flow_id % 2); });
  // Pause the egress toward host 1 so queue contents are observable.
  const auto& routes = sw->routes(1);
  ASSERT_EQ(routes.size(), 1u);
  auto& out = sw->port(routes[0]);
  out.set_paused(true);
  sw->receive(data_packet(0, 1, 2), 0);  // queue 0
  sw->receive(data_packet(0, 1, 3), 0);  // queue 1
  sw->receive(data_packet(0, 1, 4), 0);  // queue 0
  EXPECT_EQ(out.queue_bytes(0), 2000);
  EXPECT_EQ(out.queue_bytes(1), 1000);
}

TEST_F(SwitchFixture, SetEcnConfigAllPortsApplies) {
  SwitchConfig cfg;
  cfg.num_data_queues = 2;
  build(cfg);
  // A valid config installs verbatim; an invalid one lands as its clamp on
  // every (port, queue) — the audited entry point never installs garbage.
  const std::vector<RedEcnConfig> inputs{
      {.kmin_bytes = 123, .kmax_bytes = 456, .pmax = 0.5},
      // The degenerate "mark everything" config is already valid.
      {.kmin_bytes = 0, .kmax_bytes = 0, .pmax = 1.0},
      // Kmin > Kmax: Kmax rises to Kmin (a step, not an inverted ramp).
      {.kmin_bytes = 90'000, .kmax_bytes = 10'000, .pmax = 0.5},
      // Pmax above 1 saturates; negative or NaN Pmax turns marking off.
      {.kmin_bytes = 1000, .kmax_bytes = 2000, .pmax = 42.0},
      {.kmin_bytes = 1000, .kmax_bytes = 2000, .pmax = -0.25},
      {.kmin_bytes = 1000,
       .kmax_bytes = 2000,
       .pmax = std::numeric_limits<double>::quiet_NaN()},
      // Negative thresholds collapse to the zero-sized queue shape.
      {.kmin_bytes = -10, .kmax_bytes = -5, .pmax = 1.0},
      {.kmin_bytes = -500, .kmax_bytes = -1000, .pmax = 7.0},
  };
  for (const RedEcnConfig& in : inputs) {
    SCOPED_TRACE(::testing::Message() << "kmin=" << in.kmin_bytes
                                      << " kmax=" << in.kmax_bytes
                                      << " pmax=" << in.pmax);
    const std::int64_t installs_before = sw->ecn_installs();
    EXPECT_EQ(sw->install_ecn(in),
              static_cast<std::size_t>(2 * sw->num_ports()));
    EXPECT_EQ(sw->ecn_installs(), installs_before + 1);
    const RedEcnConfig expected = in.clamped();
    ASSERT_TRUE(expected.valid());
    for (std::int32_t p = 0; p < sw->num_ports(); ++p) {
      for (std::int32_t q = 0; q < sw->port(p).num_data_queues(); ++q) {
        EXPECT_EQ(sw->port(p).ecn_config(q), expected);
      }
    }
    const EcnConfigSummary summary = sw->ecn_config_summary();
    EXPECT_TRUE(summary.uniform);
    EXPECT_EQ(summary.kmin_min_bytes, expected.kmin_bytes);
    EXPECT_EQ(summary.kmax_max_bytes, expected.kmax_bytes);
    EXPECT_DOUBLE_EQ(summary.pmax_max, expected.pmax);
  }
}

TEST_F(SwitchFixture, EcnConfigSummaryTracksPerPortSpread) {
  build();
  const RedEcnConfig base{.kmin_bytes = 10'000, .kmax_bytes = 50'000,
                          .pmax = 0.2};
  sw->install_ecn(base);
  const RedEcnConfig odd{.kmin_bytes = 2'000, .kmax_bytes = 80'000,
                         .pmax = 0.6};
  sw->install_ecn(odd, PortSelector::port(0));
  const EcnConfigSummary summary = sw->ecn_config_summary();
  EXPECT_FALSE(summary.uniform);
  EXPECT_EQ(summary.kmin_min_bytes, 2'000);
  EXPECT_EQ(summary.kmin_max_bytes, 10'000);
  EXPECT_EQ(summary.kmax_min_bytes, 50'000);
  EXPECT_EQ(summary.kmax_max_bytes, 80'000);
  EXPECT_DOUBLE_EQ(summary.pmax_min, 0.2);
  EXPECT_DOUBLE_EQ(summary.pmax_max, 0.6);
  EXPECT_EQ(summary.queues, sw->num_ports());
}

/// ECMP fixture: two parallel switches between leaf pairs is overkill here;
/// instead check selection is flow-stable and spreads across candidates.
TEST(SwitchEcmp, FlowStableAndSpreads) {
  sim::Scheduler sched;
  Network net(sched, 7);
  auto& sw = net.add_switch({});
  // Fabricate a routing table with 4 candidate ports. The ports need to
  // exist, so create dummies by linking to hosts.
  PortConfig nic;
  for (int i = 0; i < 4; ++i) {
    auto& h = net.add_host(nic);
    net.connect(h.id(), sw.id(), sim::gbps(10), sim::nanoseconds(100));
  }
  net.recompute_routes();
  sw.set_routes(0, {0, 1, 2, 3});

  std::set<std::int32_t> used;
  std::vector<FlowId> flows{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  for (const FlowId f : flows) {
    Packet pkt;
    pkt.flow_id = f;
    pkt.dst = 0;
    pkt.src = 1;
    pkt.type = PacketType::kData;
    pkt.size_bytes = 100;
    // Selection is private; observe via the forward observer.
    std::int32_t chosen = -1;
    sw.clear_forward_observers();
    sw.add_forward_observer(
        [&](const Packet&, std::int32_t port, std::int32_t) { chosen = port; });
    sw.receive(pkt, -1);
    const std::int32_t first = chosen;
    sw.receive(pkt, -1);
    EXPECT_EQ(chosen, first) << "ECMP not flow-stable";
    used.insert(first);
  }
  EXPECT_GE(used.size(), 3u) << "ECMP failed to spread 12 flows over 4 ports";
}

}  // namespace
}  // namespace pet::net
