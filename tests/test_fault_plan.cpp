#include "net/fault_plan.hpp"

#include <gtest/gtest.h>

#include <string>
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

/// Every fault a plan fired, in firing order, as its event sink saw it.
struct SinkLog {
  std::vector<FaultKind> kinds;

  void attach(FaultPlan& plan) {
    plan.set_event_sink(
        [this](sim::Time, FaultKind kind, const std::string& detail) {
          EXPECT_FALSE(detail.empty());
          kinds.push_back(kind);
        });
  }
};

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
};

TEST_F(FaultPlanFixture, LinkFlapTakesLinkDownAndBackUp) {
  build();
  SinkLog log;
  FaultPlan plan(net, 1);
  log.attach(plan);
  // The chain's one switch-switch link is the only candidate, so a full
  // flap always takes exactly that link.
  plan.random_link_flap(1.0, sim::milliseconds(1), sim::milliseconds(2));

  sched.run_until(sim::milliseconds(1) + sim::microseconds(1));
  EXPECT_FALSE(net.link_port(sw0->id(), sw1->id())->link_up());
  EXPECT_FALSE(net.link_port(sw1->id(), sw0->id())->link_up());
  EXPECT_EQ(log.kinds, std::vector<FaultKind>{FaultKind::kLinkDown});
  // With the only inter-switch link down there is no route to host 1.
  sw0->receive(data_packet(0, 1, 5), 0);
  sched.run_until(sim::milliseconds(1) + sim::microseconds(10));
  EXPECT_TRUE(app1.received.empty());

  sched.run_until(sim::milliseconds(3));
  EXPECT_TRUE(net.link_port(sw0->id(), sw1->id())->link_up());
  EXPECT_TRUE(net.link_port(sw1->id(), sw0->id())->link_up());
  EXPECT_EQ(log.kinds, (std::vector<FaultKind>{FaultKind::kLinkDown,
                                               FaultKind::kLinkUp}));
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

  SinkLog log;
  FaultPlan plan(net, 7);
  log.attach(plan);
  plan.random_link_flap(0.5, sim::milliseconds(1), sim::milliseconds(2));
  ASSERT_EQ(live_links(), 4);
  sched.run_until(sim::milliseconds(1) + sim::microseconds(1));
  EXPECT_EQ(live_links(), 2);  // half of the switch-switch links down
  sched.run_until(sim::milliseconds(3));
  EXPECT_EQ(live_links(), 4);  // exactly the failed ones restored
  // One event per failed link, down then up.
  EXPECT_EQ(log.kinds,
            (std::vector<FaultKind>{FaultKind::kLinkDown, FaultKind::kLinkDown,
                                    FaultKind::kLinkUp, FaultKind::kLinkUp}));
}

TEST_F(FaultPlanFixture, EventSinkSeesEveryFiredFault) {
  build();
  std::vector<FaultKind> seen;
  FaultPlan plan(net, 1);
  plan.set_event_sink([&](sim::Time at, FaultKind kind,
                          const std::string& detail) {
    EXPECT_EQ(at, sched.now());
    EXPECT_EQ(detail, "link " + std::to_string(sw0->id()) + "-" +
                          std::to_string(sw1->id()));
    seen.push_back(kind);
  });
  plan.random_link_flap(1.0, sim::milliseconds(1), sim::milliseconds(2));
  sched.run_all();
  EXPECT_EQ(seen, (std::vector<FaultKind>{FaultKind::kLinkDown,
                                          FaultKind::kLinkUp}));
}

}  // namespace
}  // namespace pet::net
