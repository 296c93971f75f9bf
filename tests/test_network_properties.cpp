// Property sweeps over leaf-spine shapes: routing completeness, ECMP
// fan-out, port counts and failure resilience must hold for every
// reasonable fabric dimension.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "net/fabric.hpp"

namespace pet::net {
namespace {

class TopologySweepTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TopologySweepTest, RoutingCompleteAndEcmpWide) {
  const auto [spines, leaves, hosts_per_leaf] = GetParam();
  sim::Scheduler sched;
  Network net(sched, 23);
  LeafSpineConfig cfg;
  cfg.num_spines = spines;
  cfg.num_leaves = leaves;
  cfg.hosts_per_leaf = hosts_per_leaf;
  const Fabric topo = build_fabric(net, cfg);

  EXPECT_EQ(net.num_hosts(), leaves * hosts_per_leaf);

  for (const DeviceId leaf_id : topo.tier("leaf")) {
    auto* leaf = dynamic_cast<SwitchDevice*>(&net.device(leaf_id));
    ASSERT_NE(leaf, nullptr);
    EXPECT_EQ(leaf->num_ports(), hosts_per_leaf + spines);
    for (HostId h = 0; h < net.num_hosts(); ++h) {
      const auto& routes = leaf->routes(h);
      ASSERT_FALSE(routes.empty()) << "leaf must reach every host";
      if (topo.tor_of(h) == leaf_id) {
        EXPECT_EQ(routes.size(), 1u) << "direct host port";
      } else {
        EXPECT_EQ(routes.size(), static_cast<std::size_t>(spines))
            << "all spines usable for inter-leaf traffic";
      }
    }
  }
  for (const DeviceId spine_id : topo.tier("spine")) {
    auto* spine = dynamic_cast<SwitchDevice*>(&net.device(spine_id));
    ASSERT_NE(spine, nullptr);
    EXPECT_EQ(spine->num_ports(), leaves);
    for (HostId h = 0; h < net.num_hosts(); ++h) {
      EXPECT_EQ(spine->routes(h).size(), 1u) << "one downlink per host";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TopologySweepTest,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(2, 4),
                                            ::testing::Values(2, 8)),
                         [](const auto& param_info) {
                           // Appends, not "s" + std::to_string(...): GCC 12
                           // flags operator+(const char*, string&&) with a
                           // false-positive -Wrestrict.
                           const auto& p = param_info.param;
                           std::string name = "s";
                           name.append(std::to_string(std::get<0>(p)))
                               .append("l")
                               .append(std::to_string(std::get<1>(p)))
                               .append("h")
                               .append(std::to_string(std::get<2>(p)));
                           return name;
                         });

TEST(TopologyFailureProperty, ConnectivitySurvivesAllSingleLinkFailures) {
  // With >=2 spines, any single fabric link failure must leave every
  // leaf-to-host route intact (possibly with fewer ECMP choices).
  sim::Scheduler sched;
  Network net(sched, 29);
  LeafSpineConfig cfg;
  cfg.num_spines = 2;
  cfg.num_leaves = 3;
  cfg.hosts_per_leaf = 2;
  const Fabric topo = build_fabric(net, cfg);

  for (const DeviceId leaf : topo.tier("leaf")) {
    for (const DeviceId spine : topo.tier("spine")) {
      ASSERT_TRUE(net.set_link_state(leaf, spine, false));
      for (const DeviceId lid : topo.tier("leaf")) {
        auto* sw = dynamic_cast<SwitchDevice*>(&net.device(lid));
        for (HostId h = 0; h < net.num_hosts(); ++h) {
          EXPECT_FALSE(sw->routes(h).empty())
              << "leaf " << lid << " lost host " << h << " after failing "
              << leaf << "-" << spine;
        }
      }
      ASSERT_TRUE(net.set_link_state(leaf, spine, true));
    }
  }
}

TEST(TopologyFailureProperty, IsolatedLeafLosesOnlyItsHosts) {
  sim::Scheduler sched;
  Network net(sched, 31);
  LeafSpineConfig cfg;
  cfg.num_spines = 2;
  cfg.num_leaves = 2;
  cfg.hosts_per_leaf = 2;
  const Fabric topo = build_fabric(net, cfg);
  const std::vector<DeviceId>& leaf_ids = topo.tier("leaf");
  // Cut both uplinks of leaf 0.
  for (const DeviceId spine : topo.tier("spine")) {
    ASSERT_TRUE(net.set_link_state(leaf_ids[0], spine, false));
  }
  auto* leaf1 = dynamic_cast<SwitchDevice*>(&net.device(leaf_ids[1]));
  // Leaf 1 can still reach its own hosts (2, 3) but not leaf 0's (0, 1).
  EXPECT_TRUE(leaf1->routes(0).empty());
  EXPECT_TRUE(leaf1->routes(1).empty());
  EXPECT_FALSE(leaf1->routes(2).empty());
  EXPECT_FALSE(leaf1->routes(3).empty());
  // Leaf 0 still switches locally between its own hosts.
  auto* leaf0 = dynamic_cast<SwitchDevice*>(&net.device(leaf_ids[0]));
  EXPECT_FALSE(leaf0->routes(0).empty());
  EXPECT_FALSE(leaf0->routes(1).empty());
}

TEST(TopologyFailureProperty, RestoreAfterRandomFailuresMatchesPristine) {
  // Fail a third of the fabric links, restore exactly those links, and the
  // routing tables and link states must be indistinguishable from a network
  // that never saw a failure.
  LeafSpineConfig cfg;
  cfg.num_spines = 4;
  cfg.num_leaves = 4;
  cfg.hosts_per_leaf = 2;

  sim::Scheduler sched_a, sched_b;
  Network pristine(sched_a, 41);
  Network faulted(sched_b, 41);
  const Fabric topo_a = build_fabric(pristine, cfg);
  const Fabric topo_b = build_fabric(faulted, cfg);

  sim::Rng rng(17);
  const auto failed = faulted.fail_random_switch_links(0.34, rng);
  ASSERT_FALSE(failed.empty());
  for (const auto& [a, b] : failed) {
    ASSERT_TRUE(faulted.set_link_state(a, b, true));
  }

  const auto switch_ids = [&](const Fabric& topo) {
    std::vector<DeviceId> ids = topo.tier("leaf");
    const std::vector<DeviceId>& spines = topo.tier("spine");
    ids.insert(ids.end(), spines.begin(), spines.end());
    return ids;
  };
  const std::vector<DeviceId> ids_a = switch_ids(topo_a);
  const std::vector<DeviceId> ids_b = switch_ids(topo_b);
  ASSERT_EQ(ids_a, ids_b);
  for (std::size_t i = 0; i < ids_a.size(); ++i) {
    auto* sa = dynamic_cast<SwitchDevice*>(&pristine.device(ids_a[i]));
    auto* sb = dynamic_cast<SwitchDevice*>(&faulted.device(ids_b[i]));
    ASSERT_NE(sa, nullptr);
    ASSERT_NE(sb, nullptr);
    for (HostId h = 0; h < pristine.num_hosts(); ++h) {
      EXPECT_EQ(sa->routes(h), sb->routes(h))
          << "switch " << ids_a[i] << " routes to host " << h
          << " differ after fail+restore";
    }
    for (std::int32_t p = 0; p < sb->num_ports(); ++p) {
      EXPECT_TRUE(sb->port(p).link_up());
    }
  }
}

TEST(TopologyProperty, BaseRttGrowsWithMtu) {
  sim::Scheduler sched;
  Network net(sched, 37);
  const Fabric topo = build_fabric(net, LeafSpineConfig{});
  EXPECT_LT(topo.diameter_rtt(64), topo.diameter_rtt(1500));
  EXPECT_GT(topo.diameter_rtt(64), sim::Time::zero());
}

}  // namespace
}  // namespace pet::net
