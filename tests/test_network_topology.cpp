#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace pet::net {
namespace {

struct LeafSpineFixture : ::testing::Test {
  sim::Scheduler sched;
  Network net{sched, 5};
  Fabric topo;

  void build(LeafSpineConfig cfg = {}) { topo = build_fabric(net, cfg); }
  [[nodiscard]] const std::vector<DeviceId>& leaves() const {
    return topo.tier("leaf");
  }
  [[nodiscard]] const std::vector<DeviceId>& spines() const {
    return topo.tier("spine");
  }
};

TEST_F(LeafSpineFixture, DeviceCounts) {
  LeafSpineConfig cfg;
  cfg.num_spines = 2;
  cfg.num_leaves = 4;
  cfg.hosts_per_leaf = 8;
  build(cfg);
  EXPECT_EQ(net.num_hosts(), 32);
  EXPECT_EQ(leaves().size(), 4u);
  EXPECT_EQ(spines().size(), 2u);
  EXPECT_EQ(net.num_devices(), 32 + 4 + 2);
}

TEST_F(LeafSpineFixture, PortCounts) {
  LeafSpineConfig cfg;
  cfg.num_spines = 2;
  cfg.num_leaves = 4;
  cfg.hosts_per_leaf = 8;
  build(cfg);
  // Leaf: hosts_per_leaf host ports + num_spines uplinks.
  auto& leaf = net.device(leaves()[0]);
  EXPECT_EQ(leaf.num_ports(), 10);
  // Spine: one port per leaf.
  auto& spine = net.device(spines()[0]);
  EXPECT_EQ(spine.num_ports(), 4);
  // Host: exactly its NIC.
  EXPECT_EQ(net.host(0).num_ports(), 1);
}

TEST_F(LeafSpineFixture, LeafOfMapsHostsToLeaves) {
  LeafSpineConfig cfg;
  cfg.num_leaves = 3;
  cfg.hosts_per_leaf = 4;
  build(cfg);
  EXPECT_EQ(topo.tor_of(0), leaves()[0]);
  EXPECT_EQ(topo.tor_of(3), leaves()[0]);
  EXPECT_EQ(topo.tor_of(4), leaves()[1]);
  EXPECT_EQ(topo.tor_of(11), leaves()[2]);
}

TEST_F(LeafSpineFixture, IntraLeafRouteIsDirect) {
  build();
  auto* leaf = dynamic_cast<SwitchDevice*>(&net.device(leaves()[0]));
  ASSERT_NE(leaf, nullptr);
  // Hosts 0..7 hang off leaf 0 on ports 0..7.
  const auto& routes = leaf->routes(1);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_EQ(routes[0], 1);
}

TEST_F(LeafSpineFixture, InterLeafRouteUsesAllSpines) {
  LeafSpineConfig cfg;
  cfg.num_spines = 2;
  cfg.num_leaves = 2;
  cfg.hosts_per_leaf = 4;
  build(cfg);
  auto* leaf0 = dynamic_cast<SwitchDevice*>(&net.device(leaves()[0]));
  // Host 4 is under leaf 1: leaf 0 should offer both spine uplinks.
  const auto& routes = leaf0->routes(4);
  EXPECT_EQ(routes.size(), 2u);
}

TEST_F(LeafSpineFixture, SpineRoutesDownToOneLeaf) {
  build();
  auto* spine = dynamic_cast<SwitchDevice*>(&net.device(spines()[0]));
  const auto& routes = spine->routes(0);
  ASSERT_EQ(routes.size(), 1u);
}

TEST_F(LeafSpineFixture, PaperScaleDimensions) {
  build(LeafSpineConfig::paper_scale());
  EXPECT_EQ(net.num_hosts(), 288);
  EXPECT_EQ(leaves().size(), 12u);
  EXPECT_EQ(spines().size(), 6u);
  EXPECT_EQ(topo.spec().leaf_spine().host_link_rate, sim::gbps(25));
  EXPECT_EQ(topo.spec().leaf_spine().spine_link_rate, sim::gbps(100));
}

TEST_F(LeafSpineFixture, BaseRttPositiveAndScalesWithDelay) {
  LeafSpineConfig fast;
  LeafSpineConfig slow;
  slow.host_link_delay = sim::microseconds(10);
  build(fast);
  const sim::Time rtt_fast = topo.diameter_rtt(1000);
  EXPECT_GT(rtt_fast, sim::Time::zero());
  sim::Scheduler s2;
  Network n2(s2, 5);
  const Fabric topo_slow = build_fabric(n2, slow);
  EXPECT_GT(topo_slow.diameter_rtt(1000), rtt_fast);
}

TEST_F(LeafSpineFixture, LinkFailureReroutes) {
  LeafSpineConfig cfg;
  cfg.num_spines = 2;
  cfg.num_leaves = 2;
  cfg.hosts_per_leaf = 2;
  build(cfg);
  auto* leaf0 = dynamic_cast<SwitchDevice*>(&net.device(leaves()[0]));
  ASSERT_EQ(leaf0->routes(2).size(), 2u);
  // Fail leaf0 <-> spine0.
  ASSERT_TRUE(net.set_link_state(leaves()[0], spines()[0],
                                 false));
  EXPECT_EQ(leaf0->routes(2).size(), 1u);
  // Restore.
  ASSERT_TRUE(net.set_link_state(leaves()[0], spines()[0],
                                 true));
  EXPECT_EQ(leaf0->routes(2).size(), 2u);
}

TEST_F(LeafSpineFixture, SetLinkStateUnknownLinkFails) {
  build();
  EXPECT_FALSE(net.set_link_state(leaves()[0], leaves()[1],
                                  false));  // leaves are not adjacent
}

TEST_F(LeafSpineFixture, FailRandomSwitchLinksPicksOnlyFabricLinks) {
  LeafSpineConfig cfg;
  cfg.num_spines = 2;
  cfg.num_leaves = 4;
  cfg.hosts_per_leaf = 2;
  build(cfg);
  sim::Rng rng(77);
  const auto failed = net.fail_random_switch_links(0.5, rng);
  // 8 fabric links total -> 4 failed.
  EXPECT_EQ(failed.size(), 4u);
  std::set<DeviceId> sw_ids(leaves().begin(), leaves().end());
  sw_ids.insert(spines().begin(), spines().end());
  for (const auto& [a, b] : failed) {
    EXPECT_TRUE(sw_ids.count(a));
    EXPECT_TRUE(sw_ids.count(b));
  }
  // Restore works via set_link_state.
  for (const auto& [a, b] : failed) {
    EXPECT_TRUE(net.set_link_state(a, b, true));
  }
}

TEST_F(LeafSpineFixture, HostIdsDenseAndOrdered) {
  build();
  for (HostId h = 0; h < net.num_hosts(); ++h) {
    EXPECT_EQ(net.host(h).host_id(), h);
  }
}

}  // namespace
}  // namespace pet::net
