#include "net/fault_plan.hpp"

#include <gtest/gtest.h>

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

/// Two hosts on opposite sides of a two-switch chain: h0 - sw0 - sw1 - h1.
struct FaultPlanFixture : ::testing::Test {
  sim::Scheduler sched;
  Network net{sched, 31};
  SwitchDevice* sw0 = nullptr;
  SwitchDevice* sw1 = nullptr;
  RecordingApp app0, app1;

  void build() {
    PortConfig nic;
    nic.rate = sim::gbps(10);
    nic.propagation_delay = sim::nanoseconds(100);
    auto& h0 = net.add_host(nic);
    auto& h1 = net.add_host(nic);
    sw0 = &net.add_switch({});
    sw1 = &net.add_switch({});
    net.connect(h0.id(), sw0->id(), nic.rate, nic.propagation_delay);
    net.connect(h1.id(), sw1->id(), nic.rate, nic.propagation_delay);
    net.connect(sw0->id(), sw1->id(), nic.rate, nic.propagation_delay);
    net.recompute_routes();
    h0.set_app(&app0);
    h1.set_app(&app1);
  }

  /// Schedules a reboot of sw0 with `cfg` at `at` and runs just past it.
  void plan_reboot(const RedEcnConfig& cfg, sim::Time at) {
    FaultPlan plan(net, 5);
    plan.switch_reboot(sw0->id(), at, cfg);
    sched.run_until(at + sim::microseconds(1));
  }
};

TEST_F(FaultPlanFixture, LinkFlapTakesLinkDownAndBackUp) {
  build();
  FaultPlan plan(net, 1);
  plan.link_flap(sw0->id(), sw1->id(), sim::milliseconds(1),
                 sim::milliseconds(2));
  EXPECT_EQ(plan.pending(), 2u);

  sched.run_until(sim::milliseconds(1) + sim::microseconds(1));
  EXPECT_FALSE(net.link_port(sw0->id(), sw1->id())->link_up());
  EXPECT_FALSE(net.link_port(sw1->id(), sw0->id())->link_up());
  ASSERT_EQ(plan.fired().size(), 1u);
  EXPECT_EQ(plan.fired()[0].kind, FaultKind::kLinkDown);
  EXPECT_EQ(plan.pending(), 1u);
  // With the only inter-switch link down there is no route to host 1.
  sw0->receive(data_packet(0, 1, 5), 0);
  sched.run_until(sim::milliseconds(1) + sim::microseconds(10));
  EXPECT_TRUE(app1.received.empty());

  sched.run_until(sim::milliseconds(3));
  EXPECT_TRUE(net.link_port(sw0->id(), sw1->id())->link_up());
  ASSERT_EQ(plan.fired().size(), 2u);
  EXPECT_EQ(plan.fired()[1].kind, FaultKind::kLinkUp);
  EXPECT_EQ(plan.pending(), 0u);
  // Routing is restored along with the link.
  sw0->receive(data_packet(0, 1, 6), 0);
  sched.run_all();
  ASSERT_EQ(app1.received.size(), 1u);
  EXPECT_EQ(app1.received[0].flow_id, 6u);
}

TEST(FaultPlanRandom, RandomLinkFlapRestoresExactlyTheFailedLinks) {
  sim::Scheduler sched;
  Network net(sched, 42);
  PortConfig nic;
  // Two leaves, two spines: four switch-switch links.
  auto& h0 = net.add_host(nic);
  auto& h1 = net.add_host(nic);
  std::vector<SwitchDevice*> leaves{&net.add_switch({}), &net.add_switch({})};
  std::vector<SwitchDevice*> spines{&net.add_switch({}), &net.add_switch({})};
  net.connect(h0.id(), leaves[0]->id(), sim::gbps(10), sim::nanoseconds(100));
  net.connect(h1.id(), leaves[1]->id(), sim::gbps(10), sim::nanoseconds(100));
  for (auto* leaf : leaves) {
    for (auto* spine : spines) {
      net.connect(leaf->id(), spine->id(), sim::gbps(10),
                  sim::nanoseconds(100));
    }
  }
  net.recompute_routes();

  const auto live_links = [&] {
    int up = 0;
    for (auto* leaf : leaves) {
      for (auto* spine : spines) {
        if (net.link_port(leaf->id(), spine->id())->link_up()) ++up;
      }
    }
    return up;
  };

  FaultPlan plan(net, 7);
  plan.random_link_flap(0.5, sim::milliseconds(1), sim::milliseconds(2));
  ASSERT_EQ(live_links(), 4);
  sched.run_until(sim::milliseconds(1) + sim::microseconds(1));
  EXPECT_EQ(live_links(), 2);  // half of the switch-switch links down
  sched.run_until(sim::milliseconds(3));
  EXPECT_EQ(live_links(), 4);  // exactly the failed ones restored
  // One event per failed link, down then up.
  ASSERT_EQ(plan.fired().size(), 4u);
  int downs = 0, ups = 0;
  for (const FaultEvent& ev : plan.fired()) {
    if (ev.kind == FaultKind::kLinkDown) ++downs;
    if (ev.kind == FaultKind::kLinkUp) ++ups;
  }
  EXPECT_EQ(downs, 2);
  EXPECT_EQ(ups, 2);
}

TEST_F(FaultPlanFixture, LinkDegradeSetsAndRestoresRateFactor) {
  build();
  FaultPlan plan(net, 1);
  plan.link_degrade(sw0->id(), sw1->id(), 0.25, sim::milliseconds(1),
                    sim::milliseconds(2));
  sched.run_until(sim::milliseconds(1) + sim::microseconds(1));
  EXPECT_DOUBLE_EQ(net.link_port(sw0->id(), sw1->id())->rate_factor(), 0.25);
  EXPECT_DOUBLE_EQ(net.link_port(sw1->id(), sw0->id())->rate_factor(), 0.25);
  sched.run_until(sim::milliseconds(3));
  EXPECT_DOUBLE_EQ(net.link_port(sw0->id(), sw1->id())->rate_factor(), 1.0);
  EXPECT_DOUBLE_EQ(net.link_port(sw1->id(), sw0->id())->rate_factor(), 1.0);
}

TEST_F(FaultPlanFixture, DegradedLinkSerializesSlower) {
  build();
  // Healthy delivery time of one packet.
  sw0->receive(data_packet(0, 1, 1), 0);
  sched.run_all();
  const sim::Time healthy = sched.now();
  ASSERT_EQ(app1.received.size(), 1u);

  net.link_port(sw0->id(), sw1->id())->set_rate_factor(0.1);
  const sim::Time start = sched.now();
  sw0->receive(data_packet(0, 1, 2), 0);
  sched.run_all();
  EXPECT_GT((sched.now() - start).ps(), healthy.ps());
  EXPECT_EQ(app1.received.size(), 2u);  // slower, but still delivered
}

TEST_F(FaultPlanFixture, PacketLossWindowDropsEveryPacket) {
  build();
  FaultPlan plan(net, 1);
  plan.packet_loss(sw0->id(), 1.0, sim::milliseconds(1), sim::milliseconds(2));
  // Inside the window: certain loss on sw0's egress.
  sched.schedule_at(sim::milliseconds(1) + sim::microseconds(500),
                    [&] { sw0->receive(data_packet(0, 1, 1), 0); });
  // After the window: delivered normally.
  sched.schedule_at(sim::milliseconds(2) + sim::microseconds(500),
                    [&] { sw0->receive(data_packet(0, 1, 2), 0); });
  sched.run_all();
  ASSERT_EQ(app1.received.size(), 1u);
  EXPECT_EQ(app1.received[0].flow_id, 2u);
  EXPECT_EQ(net.link_port(sw0->id(), sw1->id())->fault_dropped_packets(), 1);
  EXPECT_DOUBLE_EQ(net.link_port(sw0->id(), sw1->id())->fault_drop_prob(), 0.0);
  ASSERT_EQ(plan.fired().size(), 2u);
  EXPECT_EQ(plan.fired()[0].kind, FaultKind::kPacketLossStart);
  EXPECT_EQ(plan.fired()[1].kind, FaultKind::kPacketLossEnd);
}

TEST_F(FaultPlanFixture, BurstLossWindowDropsViaChainAndClears) {
  build();
  FaultPlan plan(net, 1);
  // Degenerate chain locked in Bad with certain loss: every packet inside
  // the window is dropped by the burst channel, none by the Bernoulli
  // fault path (the counters are separate).
  const GilbertElliottConfig burst{.p_good_to_bad = 1.0,
                                   .p_bad_to_good = 0.0,
                                   .loss_good = 0.0,
                                   .loss_bad = 1.0};
  plan.burst_loss(sw0->id(), burst, sim::milliseconds(1),
                  sim::milliseconds(2));
  sched.schedule_at(sim::milliseconds(1) + sim::microseconds(300),
                    [&] { sw0->receive(data_packet(0, 1, 1), 0); });
  sched.schedule_at(sim::milliseconds(1) + sim::microseconds(600),
                    [&] { sw0->receive(data_packet(0, 1, 2), 0); });
  // After the window the channel is detached and packets flow again.
  sched.schedule_at(sim::milliseconds(2) + sim::microseconds(500),
                    [&] { sw0->receive(data_packet(0, 1, 3), 0); });
  sched.run_all();

  EgressPort* port = net.link_port(sw0->id(), sw1->id());
  ASSERT_EQ(app1.received.size(), 1u);
  EXPECT_EQ(app1.received[0].flow_id, 3u);
  EXPECT_EQ(port->burst_dropped_packets(), 2);
  EXPECT_EQ(port->fault_dropped_packets(), 0);
  EXPECT_FALSE(port->burst_loss_active());
  ASSERT_EQ(plan.fired().size(), 2u);
  EXPECT_EQ(plan.fired()[0].kind, FaultKind::kBurstLossStart);
  EXPECT_EQ(plan.fired()[1].kind, FaultKind::kBurstLossEnd);
}

TEST_F(FaultPlanFixture, BurstLossGoodStateIsLossless) {
  build();
  FaultPlan plan(net, 1);
  // A chain that can never leave Good with zero good-state loss: the window
  // is active but transparent.
  const GilbertElliottConfig burst{.p_good_to_bad = 0.0,
                                   .p_bad_to_good = 1.0,
                                   .loss_good = 0.0,
                                   .loss_bad = 1.0};
  plan.burst_loss(sw0->id(), burst, sim::milliseconds(1),
                  sim::milliseconds(2));
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(sim::milliseconds(1) + sim::microseconds(100 * (i + 1)),
                      [&, i] {
                        sw0->receive(
                            data_packet(0, 1, static_cast<FlowId>(i + 1)), 0);
                      });
  }
  sched.run_all();
  EXPECT_EQ(app1.received.size(), 5u);
  EXPECT_EQ(net.link_port(sw0->id(), sw1->id())->burst_dropped_packets(), 0);
}

TEST_F(FaultPlanFixture, PacketCorruptionWindowCountsSeparately) {
  build();
  FaultPlan plan(net, 1);
  plan.packet_corruption(sw0->id(), 1.0, sim::milliseconds(1),
                         sim::milliseconds(2));
  sched.schedule_at(sim::milliseconds(1) + sim::microseconds(500),
                    [&] { sw0->receive(data_packet(0, 1, 1), 0); });
  sched.run_all();
  EXPECT_TRUE(app1.received.empty());
  EXPECT_EQ(net.link_port(sw0->id(), sw1->id())->fault_corrupted_packets(), 1);
  EXPECT_EQ(net.link_port(sw0->id(), sw1->id())->fault_dropped_packets(), 0);
}

TEST(FaultPlanReboot, SwitchRebootFlushesQueuesAndResetsEcn) {
  sim::Scheduler sched;
  Network net(sched, 9);
  PortConfig nic;
  auto& h0 = net.add_host(nic);
  auto& h1 = net.add_host(nic);
  auto& sw = net.add_switch({});
  net.connect(h0.id(), sw.id(), sim::gbps(10), sim::nanoseconds(100));
  net.connect(h1.id(), sw.id(), sim::gbps(10), sim::nanoseconds(100));
  net.recompute_routes();
  RecordingApp app1;
  net.host(1).set_app(&app1);

  // A learned (non-default) ECN config is installed, and the egress toward
  // host 1 is paused so queued packets are observable at reboot time.
  sw.install_ecn({.kmin_bytes = 7777, .kmax_bytes = 8888, .pmax = 0.33});
  const auto& routes = sw.routes(1);
  ASSERT_EQ(routes.size(), 1u);
  sw.port(routes[0]).set_paused(true);
  for (int i = 0; i < 3; ++i) sw.receive(data_packet(0, 1, 1), 0);
  ASSERT_EQ(sw.buffer_used_bytes(), 3000);

  FaultPlan plan(net, 1);
  const RedEcnConfig boot{.kmin_bytes = 5 * 1024, .kmax_bytes = 200 * 1024,
                          .pmax = 0.2};
  plan.switch_reboot(sw.id(), sim::milliseconds(1), boot);
  sched.run_all();

  EXPECT_EQ(sw.reboots(), 1);
  EXPECT_EQ(sw.dropped_on_reboot(), 3);
  EXPECT_EQ(sw.buffer_used_bytes(), 0);
  EXPECT_TRUE(app1.received.empty());
  for (std::int32_t p = 0; p < sw.num_ports(); ++p) {
    EXPECT_EQ(sw.port(p).ecn_config(0), boot);
  }
  ASSERT_EQ(plan.fired().size(), 1u);
  EXPECT_EQ(plan.fired()[0].kind, FaultKind::kSwitchReboot);
}

TEST_F(FaultPlanFixture, RebootClampsGarbageEcnThroughPlanPath) {
  // The FaultPlan reboot path must funnel through the same audited
  // install_ecn clamp as a direct SwitchDevice::reboot — a fault-injection
  // script with a garbage config must not leave an invalid marking ramp.
  build();
  // Kmin > Kmax plus Pmax above 1.
  plan_reboot({.kmin_bytes = 70'000, .kmax_bytes = 300, .pmax = 9.5},
              sim::milliseconds(1));
  RedEcnConfig got = sw0->port(0).ecn_config(0);
  EXPECT_EQ(got.kmin_bytes, 70'000);
  EXPECT_EQ(got.kmax_bytes, 70'000);
  EXPECT_DOUBLE_EQ(got.pmax, 1.0);
  EXPECT_TRUE(got.valid());

  // Negative Pmax clamps to marking-off.
  plan_reboot({.kmin_bytes = 1000, .kmax_bytes = 2000, .pmax = -3.0},
              sim::milliseconds(2));
  got = sw0->port(0).ecn_config(0);
  EXPECT_DOUBLE_EQ(got.pmax, 0.0);
  EXPECT_TRUE(got.valid());

  // Zero-sized queue: negative thresholds collapse to Kmin = Kmax = 0.
  plan_reboot({.kmin_bytes = -400, .kmax_bytes = -900, .pmax = 0.7},
              sim::milliseconds(3));
  got = sw0->port(0).ecn_config(0);
  EXPECT_EQ(got.kmin_bytes, 0);
  EXPECT_EQ(got.kmax_bytes, 0);
  EXPECT_DOUBLE_EQ(got.pmax, 0.7);
  EXPECT_TRUE(got.valid());
  EXPECT_EQ(sw0->reboots(), 3);
}

TEST_F(FaultPlanFixture, EventSinkSeesEveryFiredFault) {
  build();
  FaultPlan plan(net, 1);
  std::vector<FaultKind> seen;
  plan.set_event_sink([&](sim::Time, FaultKind kind, const std::string& detail) {
    EXPECT_FALSE(detail.empty());
    seen.push_back(kind);
  });
  plan.link_flap(sw0->id(), sw1->id(), sim::milliseconds(1),
                 sim::milliseconds(2));
  plan.switch_reboot(sw1->id(), sim::milliseconds(3), RedEcnConfig{});
  sched.run_all();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen, (std::vector<FaultKind>{FaultKind::kLinkDown,
                                          FaultKind::kLinkUp,
                                          FaultKind::kSwitchReboot}));
  EXPECT_EQ(plan.fired().size(), 3u);
  EXPECT_EQ(plan.pending(), 0u);
}

}  // namespace
}  // namespace pet::net
