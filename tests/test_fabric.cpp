// net::Fabric / net::TopologySpec unit tests: fat-tree and inter-DC
// structure, analytic RTT closed forms, ToR lookup bounds, spec
// validation, and the regression gate proving build_fabric's leaf-spine
// branch still produces the pre-redesign network.

#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "net/topology.hpp"

namespace pet::net {
namespace {

// --- TopologySpec arithmetic -------------------------------------------------

TEST(TopologySpec, FatTreeCountsFollowClosedForms) {
  FatTreeSpec ft;
  ft.k = 4;
  EXPECT_EQ(ft.hosts_per_edge_effective(), 2);
  EXPECT_EQ(ft.num_edges(), 8);
  EXPECT_EQ(ft.num_aggs(), 8);
  EXPECT_EQ(ft.num_cores(), 4);
  EXPECT_EQ(ft.num_hosts(), 16);

  // Production scale: k=8, 16 hosts per edge -> 512 hosts, 80 switches.
  const FatTreeSpec prod = FatTreeSpec::production_scale();
  EXPECT_EQ(prod.num_hosts(), 512);
  EXPECT_EQ(prod.num_edges() + prod.num_aggs() + prod.num_cores(), 80);

  const TopologySpec spec(prod);
  EXPECT_EQ(spec.num_hosts(), 512);
  EXPECT_EQ(spec.num_switches(), 80);
  EXPECT_EQ(spec.kind(), TopologySpec::Kind::kFatTree);
  EXPECT_STREQ(spec.kind_name(), "fat-tree");
}

TEST(TopologySpec, OversubscriptionRatios) {
  FatTreeSpec ft;  // canonical k=4: k/2 hosts @25G vs k/2 uplinks @100G
  EXPECT_DOUBLE_EQ(ft.edge_oversubscription(), 25.0 / 100.0);
  EXPECT_DOUBLE_EQ(ft.agg_oversubscription(), 100.0 / 400.0);

  FatTreeSpec over = ft;
  over.hosts_per_edge = 16;  // 16 x 25G down vs 2 x 100G up = 2:1
  EXPECT_DOUBLE_EQ(over.edge_oversubscription(), 2.0);
}

TEST(TopologySpec, ValidationNamesTheOffendingField) {
  FatTreeSpec ft;
  ft.k = 3;
  try {
    TopologySpec(ft).validate();
    FAIL() << "odd k must not validate";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "topology.k must be even");
  }

  InterDcSpec idc;
  LeafSpineConfig bad;
  bad.num_leaves = 0;
  idc.dc_b = bad;
  try {
    TopologySpec(idc).validate();
    FAIL() << "bad inner DC must not validate";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "topology.dc_b.num_leaves must be >= 1");
  }
}

TEST(TopologySpec, InterDcDerivedQuantities) {
  InterDcSpec idc;
  LeafSpineConfig ls;
  ls.num_spines = 1;
  ls.num_leaves = 2;
  ls.hosts_per_leaf = 2;
  idc.dc_a = ls;
  idc.dc_b = FatTreeSpec{};  // 16 hosts @25G, 20 switches
  const TopologySpec spec(idc);
  EXPECT_EQ(spec.num_hosts(), 4 + 16);
  EXPECT_EQ(spec.num_switches(), 3 + 20 + 2);
  // Host line rate is the slowest NIC across both DCs (10G leaf-spine).
  EXPECT_EQ(spec.host_link_rate().bps(), sim::gbps(10).bps());
}

// --- fat-tree fabric ---------------------------------------------------------

TEST(FabricFatTree, StructureTiersAndTorMapping) {
  sim::Scheduler sched;
  Network net(sched, 7);
  FatTreeSpec ft;
  ft.k = 4;
  const Fabric fab = build_fabric(net, TopologySpec(ft));

  EXPECT_EQ(fab.num_hosts(), 16);
  EXPECT_EQ(net.num_hosts(), 16);
  ASSERT_EQ(fab.tiers().size(), 3u);
  EXPECT_EQ(fab.tiers()[0].label, "edge");
  EXPECT_EQ(fab.tiers()[1].label, "agg");
  EXPECT_EQ(fab.tiers()[2].label, "core");
  EXPECT_EQ(fab.tier("edge").size(), 8u);
  EXPECT_EQ(fab.tier("agg").size(), 8u);
  EXPECT_EQ(fab.tier("core").size(), 4u);
  EXPECT_TRUE(fab.has_tier("core"));
  EXPECT_FALSE(fab.has_tier("spine"));
  EXPECT_THROW((void)fab.tier("spine"), std::out_of_range);
  EXPECT_EQ(fab.top_devices(), fab.tier("core"));
  EXPECT_EQ(fab.tor_devices(), fab.tier("edge"));

  // Hosts are packed pod-major: 2 per edge, edges in pod order.
  for (HostId h = 0; h < fab.num_hosts(); ++h) {
    EXPECT_EQ(fab.tor_of(h), fab.tier("edge")[static_cast<std::size_t>(h / 2)]);
  }
  EXPECT_EQ(fab.tier_of(fab.tier("agg")[3]), "agg");
  EXPECT_EQ(fab.tier_of(fab.host_devices()[0]), "");
}

TEST(FabricFatTree, TorOfBoundsChecked) {
  sim::Scheduler sched;
  Network net(sched, 7);
  const Fabric fab = build_fabric(net, TopologySpec(FatTreeSpec{}));
  EXPECT_THROW((void)fab.tor_of(-1), std::out_of_range);
  EXPECT_THROW((void)fab.tor_of(fab.num_hosts()), std::out_of_range);
  EXPECT_NO_THROW((void)fab.tor_of(fab.num_hosts() - 1));
}

TEST(FabricFatTree, BaseRttClosedForms) {
  sim::Scheduler sched;
  Network net(sched, 7);
  FatTreeSpec ft;
  ft.k = 4;
  const Fabric fab = build_fabric(net, TopologySpec(ft));
  const std::int32_t mtu = 1000;
  const sim::Time h0 =
      ft.host_link_delay + ft.host_link_rate.serialization_time(mtu);
  const sim::Time h1 =
      ft.edge_agg_delay + ft.edge_agg_rate.serialization_time(mtu);
  const sim::Time h2 =
      ft.agg_core_delay + ft.agg_core_rate.serialization_time(mtu);

  // Hosts 0,1 share edge 0; host 2 is pod 0 / edge 1; host 8 is pod 2.
  EXPECT_EQ(fab.base_rtt(0, 0, mtu), sim::Time::zero());
  EXPECT_EQ(fab.base_rtt(0, 1, mtu), 2 * (2 * h0));
  EXPECT_EQ(fab.base_rtt(0, 2, mtu), 2 * (2 * h0 + 2 * h1));
  EXPECT_EQ(fab.base_rtt(0, 8, mtu), 2 * (2 * h0 + 2 * h1 + 2 * h2));
  EXPECT_EQ(fab.base_rtt(8, 0, mtu), fab.base_rtt(0, 8, mtu));
  EXPECT_EQ(fab.diameter_rtt(mtu), fab.base_rtt(0, 8, mtu));
  EXPECT_THROW((void)fab.base_rtt(0, fab.num_hosts(), mtu), std::out_of_range);
}

// --- inter-DC fabric ---------------------------------------------------------

Fabric tiny_inter_dc(Network& net, std::int32_t border_links = 2) {
  InterDcSpec idc;
  LeafSpineConfig ls;
  ls.num_spines = 1;
  ls.num_leaves = 2;
  ls.hosts_per_leaf = 2;
  idc.dc_a = ls;
  idc.dc_b = ls;
  idc.border_links = border_links;
  idc.wan_delay = sim::microseconds(100);
  return build_fabric(net, TopologySpec(idc));
}

TEST(FabricInterDc, StructureAndDenseHostIds) {
  sim::Scheduler sched;
  Network net(sched, 11);
  const Fabric fab = tiny_inter_dc(net);

  EXPECT_EQ(fab.num_hosts(), 8);
  EXPECT_EQ(net.num_hosts(), 8);  // dense HostIds across both DCs
  ASSERT_EQ(fab.tiers().size(), 5u);
  EXPECT_EQ(fab.tiers()[0].label, "a.leaf");
  EXPECT_EQ(fab.tiers()[1].label, "a.spine");
  EXPECT_EQ(fab.tiers()[2].label, "b.leaf");
  EXPECT_EQ(fab.tiers()[3].label, "b.spine");
  EXPECT_EQ(fab.tiers()[4].label, "border");
  EXPECT_EQ(fab.tier("border").size(), 2u);
  EXPECT_EQ(fab.top_devices(), fab.tier("border"));
  EXPECT_EQ(fab.tor_devices().size(), 4u);  // 2 leaves per DC

  // Hosts 0..3 hang off DC a's leaves, 4..7 off DC b's.
  EXPECT_EQ(fab.tor_of(0), fab.tier("a.leaf")[0]);
  EXPECT_EQ(fab.tor_of(3), fab.tier("a.leaf")[1]);
  EXPECT_EQ(fab.tor_of(4), fab.tier("b.leaf")[0]);
  EXPECT_EQ(fab.tor_of(7), fab.tier("b.leaf")[1]);
}

TEST(FabricInterDc, CrossDcRttDominatesAndIsSymmetric) {
  sim::Scheduler sched;
  Network net(sched, 11);
  const Fabric fab = tiny_inter_dc(net);
  const std::int32_t mtu = 1000;
  const sim::Time intra = fab.base_rtt(0, 2, mtu);   // cross-leaf, same DC
  const sim::Time inter = fab.base_rtt(0, 4, mtu);   // cross-DC
  EXPECT_GT(intra, sim::Time::zero());
  EXPECT_GT(inter, intra);
  // The WAN propagation alone shows up twice (there and back).
  EXPECT_GT(inter, 2 * sim::microseconds(100));
  EXPECT_EQ(fab.base_rtt(4, 0, mtu), inter);
  EXPECT_EQ(fab.diameter_rtt(mtu), inter);
}

TEST(FabricInterDc, EveryTorRoutesToEveryHostAcrossTheWan) {
  sim::Scheduler sched;
  Network net(sched, 11);
  const Fabric fab = tiny_inter_dc(net);
  for (const DeviceId tor : fab.tor_devices()) {
    auto* sw = dynamic_cast<SwitchDevice*>(&net.device(tor));
    ASSERT_NE(sw, nullptr);
    for (HostId h = 0; h < fab.num_hosts(); ++h) {
      EXPECT_FALSE(sw->routes(h).empty())
          << "ToR " << tor << " cannot reach host " << h;
    }
  }
  // Parallel WAN links are distinct ECMP next hops at the border.
  auto* border =
      dynamic_cast<SwitchDevice*>(&net.device(fab.tier("border")[0]));
  ASSERT_NE(border, nullptr);
  for (HostId h = 4; h < 8; ++h) {
    EXPECT_EQ(border->routes(h).size(), 2u)
        << "both WAN links must carry DC-b traffic";
  }
}

// --- leaf-spine compatibility ------------------------------------------------

TEST(FabricLeafSpine, DiameterRttMatchesHistoricalFormula) {
  sim::Scheduler sched;
  Network net(sched, 13);
  LeafSpineConfig cfg;
  const Fabric fab = build_fabric(net, TopologySpec(cfg));
  for (const std::int32_t mtu : {64, 1000, 1500}) {
    const sim::Time expected =
        2 * (2 * cfg.host_link_delay + 2 * cfg.spine_link_delay +
             2 * cfg.host_link_rate.serialization_time(mtu) +
             2 * cfg.spine_link_rate.serialization_time(mtu));
    EXPECT_EQ(fab.diameter_rtt(mtu), expected) << "mtu " << mtu;
  }
}

/// Device lists of the pre-redesign leaf-spine builder.
struct LegacyLeafSpine {
  std::vector<DeviceId> host_devices;
  std::vector<DeviceId> leaf_devices;
  std::vector<DeviceId> spine_devices;
};

/// The pre-redesign builder, reproduced verbatim: build_fabric's leaf-spine
/// branch must create the identical network.
LegacyLeafSpine legacy_build_leaf_spine(Network& net,
                                        const LeafSpineConfig& cfg) {
  LegacyLeafSpine out;
  PortConfig nic;
  nic.rate = cfg.host_link_rate;
  nic.propagation_delay = cfg.host_link_delay;
  const std::int32_t num_hosts = cfg.num_leaves * cfg.hosts_per_leaf;
  for (std::int32_t h = 0; h < num_hosts; ++h) {
    out.host_devices.push_back(net.add_host(nic).id());
  }
  for (std::int32_t l = 0; l < cfg.num_leaves; ++l) {
    out.leaf_devices.push_back(net.add_switch(cfg.switch_cfg).id());
  }
  for (std::int32_t s = 0; s < cfg.num_spines; ++s) {
    out.spine_devices.push_back(net.add_switch(cfg.switch_cfg).id());
  }
  for (std::int32_t l = 0; l < cfg.num_leaves; ++l) {
    const DeviceId leaf = out.leaf_devices[static_cast<std::size_t>(l)];
    for (std::int32_t h = 0; h < cfg.hosts_per_leaf; ++h) {
      const DeviceId host = out.host_devices[static_cast<std::size_t>(
          l * cfg.hosts_per_leaf + h)];
      net.connect(host, leaf, cfg.host_link_rate, cfg.host_link_delay);
    }
    for (std::int32_t s = 0; s < cfg.num_spines; ++s) {
      net.connect(leaf, out.spine_devices[static_cast<std::size_t>(s)],
                  cfg.spine_link_rate, cfg.spine_link_delay);
    }
  }
  net.recompute_routes();
  return out;
}

TEST(FabricLeafSpine, ShimReproducesPreRedesignNetwork) {
  LeafSpineConfig cfg;
  cfg.num_spines = 2;
  cfg.num_leaves = 3;
  cfg.hosts_per_leaf = 2;

  sim::Scheduler sched_old, sched_new;
  Network net_old(sched_old, 17);
  Network net_new(sched_new, 17);
  const LegacyLeafSpine legacy = legacy_build_leaf_spine(net_old, cfg);
  const Fabric fab = build_fabric(net_new, cfg);

  // Identical device identities and vectors.
  EXPECT_EQ(legacy.host_devices, fab.host_devices());
  EXPECT_EQ(legacy.leaf_devices, fab.tier("leaf"));
  EXPECT_EQ(legacy.spine_devices, fab.tier("spine"));
  ASSERT_EQ(net_old.num_devices(), net_new.num_devices());

  // Identical wiring: the adjacency matrix matches link for link.
  for (DeviceId a = 0; a < net_old.num_devices(); ++a) {
    for (DeviceId b = 0; b < net_old.num_devices(); ++b) {
      EXPECT_EQ(net_old.link_port(a, b) != nullptr,
                net_new.link_port(a, b) != nullptr)
          << "adjacency differs at " << a << "->" << b;
    }
  }
  // Identical port layout and routing tables on every switch: routes are
  // port indices, so equality pins the connect() call order too.
  std::vector<DeviceId> switch_ids = legacy.leaf_devices;
  switch_ids.insert(switch_ids.end(), legacy.spine_devices.begin(),
                    legacy.spine_devices.end());
  for (const DeviceId id : switch_ids) {
    auto* so = dynamic_cast<SwitchDevice*>(&net_old.device(id));
    auto* sn = dynamic_cast<SwitchDevice*>(&net_new.device(id));
    ASSERT_NE(so, nullptr);
    ASSERT_NE(sn, nullptr);
    EXPECT_EQ(so->num_ports(), sn->num_ports());
    for (HostId h = 0; h < net_old.num_hosts(); ++h) {
      EXPECT_EQ(so->routes(h), sn->routes(h));
    }
  }
}

}  // namespace
}  // namespace pet::net
