#include "core/ncm.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "acc/acc_agent.hpp"
#include "core/pet_agent.hpp"
#include "net/network.hpp"
#include "sim/rng.hpp"

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

struct NcmFixture : ::testing::Test {
  sim::Scheduler sched;
  net::Network net{sched, 33};
  net::SwitchDevice* sw = nullptr;
  std::unique_ptr<Ncm> ncm;

  void build(NcmConfig cfg = {}, int hosts = 6) {
    sw = &net.add_switch({});
    net::PortConfig nic;
    nic.rate = sim::gbps(10);
    nic.propagation_delay = sim::nanoseconds(100);
    for (int i = 0; i < hosts; ++i) {
      auto& h = net.add_host(nic);
      net.connect(h.id(), sw->id(), nic.rate, nic.propagation_delay);
    }
    net.recompute_routes();
    ncm = std::make_unique<Ncm>(sched, *sw, cfg);
  }
};

TEST_F(NcmFixture, EmptySlotHasNeutralSnapshot) {
  build();
  sched.run_until(sim::microseconds(100));
  const NcmSnapshot snap = ncm->sample();
  EXPECT_EQ(snap.qlen_bytes, 0.0);
  EXPECT_EQ(snap.utilization, 0.0);
  EXPECT_EQ(snap.incast_degree, 0.0);
  EXPECT_EQ(snap.mice_ratio, 1.0);  // neutral default
  EXPECT_EQ(snap.flows_seen, 0);
}

TEST_F(NcmFixture, IncastDegreeIsMaxFanIn) {
  build();
  // 3 senders -> host 0; 2 senders -> host 1.
  for (net::HostId s : {1, 2, 3}) sw->receive(data_packet(s, 0, 100 + s), s);
  for (net::HostId s : {2, 3}) sw->receive(data_packet(s, 1, 200 + s), s);
  const NcmSnapshot snap = ncm->sample();
  EXPECT_EQ(snap.incast_degree, 3.0);
}

TEST_F(NcmFixture, IncastDegreeCountsDistinctSendersOnly) {
  build();
  for (int i = 0; i < 10; ++i) sw->receive(data_packet(1, 0, 7), 1);
  EXPECT_EQ(ncm->sample().incast_degree, 1.0);
}

TEST_F(NcmFixture, IncastResetsEachSlot) {
  build();
  for (net::HostId s : {1, 2, 3, 4}) sw->receive(data_packet(s, 0, 300 + s), s);
  EXPECT_EQ(ncm->sample().incast_degree, 4.0);
  EXPECT_EQ(ncm->sample().incast_degree, 0.0);  // scheduled cleanup ran
}

TEST_F(NcmFixture, MiceRatioClassifiesByCumulativeBytes) {
  NcmConfig cfg;
  cfg.elephant_threshold_bytes = 5000;
  build(cfg);
  // Flow 1: 10 x 1000B = elephant; flows 2, 3: single packet mice.
  for (int i = 0; i < 10; ++i) sw->receive(data_packet(1, 0, 1), 1);
  sw->receive(data_packet(2, 0, 2), 2);
  sw->receive(data_packet(3, 0, 3), 3);
  const NcmSnapshot snap = ncm->sample();
  EXPECT_EQ(snap.flows_seen, 3);
  EXPECT_NEAR(snap.mice_ratio, 2.0 / 3.0, 1e-12);
}

TEST_F(NcmFixture, ElephantMemoryPersistsAcrossSlots) {
  NcmConfig cfg;
  cfg.elephant_threshold_bytes = 5000;
  cfg.flow_expiry_slots = 10;
  build(cfg);
  for (int i = 0; i < 10; ++i) sw->receive(data_packet(1, 0, 1), 1);
  (void)ncm->sample();
  // One more packet of the same flow next slot: still an elephant.
  sw->receive(data_packet(1, 0, 1), 1);
  EXPECT_NEAR(ncm->sample().mice_ratio, 0.0, 1e-12);
}

TEST_F(NcmFixture, ScheduledCleanupExpiresIdleFlows) {
  NcmConfig cfg;
  cfg.flow_expiry_slots = 2;
  build(cfg);
  sw->receive(data_packet(1, 0, 42), 1);
  (void)ncm->sample();
  EXPECT_EQ(ncm->tracked_flows(), 1u);
  (void)ncm->sample();
  (void)ncm->sample();
  (void)ncm->sample();
  EXPECT_EQ(ncm->tracked_flows(), 0u);
}

TEST_F(NcmFixture, ThresholdCleanupBoundsFlowTable) {
  NcmConfig cfg;
  cfg.max_tracked_flows = 64;
  build(cfg);
  (void)ncm->sample();  // open slot 1 so stale entries (slot 0) exist
  for (net::FlowId f = 0; f < 1000; ++f) {
    sw->receive(data_packet(1, 0, 1000 + f), 1);
  }
  // The table can exceed the bound only transiently within one slot burst
  // of brand-new flows; after sampling it must be pruned back.
  (void)ncm->sample();
  (void)ncm->sample();
  for (net::FlowId f = 0; f < 100; ++f) {
    sw->receive(data_packet(2, 0, 5000 + f), 2);
  }
  EXPECT_LE(ncm->tracked_flows(), 64u + 100u);
}

TEST_F(NcmFixture, UtilizationReflectsBusiestPort) {
  build();
  // Keep egress toward host 0 saturated for a full window.
  for (int i = 0; i < 200; ++i) sw->receive(data_packet(1, 0, 9), 1);
  sched.run_until(sim::microseconds(100));
  const NcmSnapshot snap = ncm->sample();
  EXPECT_GT(snap.utilization, 0.9);
  EXPECT_LE(snap.utilization, 1.0);
  EXPECT_GT(snap.qlen_bytes, 0.0);
  EXPECT_GT(snap.avg_qlen_bytes, 0.0);
}

TEST_F(NcmFixture, MarkedRatioTracksCeTraffic) {
  build();
  sw->install_ecn({.kmin_bytes = 0, .kmax_bytes = 0, .pmax = 1.0});
  for (int i = 0; i < 200; ++i) sw->receive(data_packet(1, 0, 9), 1);
  sched.run_until(sim::microseconds(100));
  const NcmSnapshot snap = ncm->sample();
  EXPECT_GT(snap.marked_ratio, 0.8);  // nearly everything marked
}

TEST_F(NcmFixture, WindowDeltasNotCumulative) {
  build();
  for (int i = 0; i < 50; ++i) sw->receive(data_packet(1, 0, 9), 1);
  sched.run_until(sim::microseconds(200));
  (void)ncm->sample();
  // Quiet second window: utilization must drop to ~0.
  sched.run_until(sim::microseconds(400));
  EXPECT_LT(ncm->sample().utilization, 0.05);
}

TEST_F(NcmFixture, PacketsSeenCountsSlotTraffic) {
  build();
  for (int i = 0; i < 7; ++i) sw->receive(data_packet(1, 0, 5), 1);
  EXPECT_EQ(ncm->sample().packets_seen, 7);
  EXPECT_EQ(ncm->sample().packets_seen, 0);
}

// --- tracking only what the agent reads -----------------------------------

/// Four senders, ten flows each, into host 0.
void load_window(net::SwitchDevice& sw) {
  for (net::HostId s : {1, 2, 3, 4}) {
    for (net::FlowId f = 0; f < 10; ++f) {
      sw.receive(data_packet(s, 0, 100 * static_cast<net::FlowId>(s) + f), s);
    }
  }
}

TEST_F(NcmFixture, AccAgentNcmTracksNothing) {
  build();
  ncm.reset();
  acc::AccAgent agent(sched, *sw, acc::AccAgentConfig{}, 1,
                      std::make_shared<rl::ReplayBuffer>(64));
  load_window(*sw);
  EXPECT_EQ(agent.ncm().tracked_flows(), 0u);
  EXPECT_EQ(agent.ncm().tracked_dsts(), 0u);
  const NcmSnapshot snap = agent.ncm().sample();
  EXPECT_EQ(snap.packets_seen, 0);
  EXPECT_EQ(snap.incast_degree, 0.0);
  EXPECT_EQ(snap.flows_seen, 0);
}

TEST_F(NcmFixture, PetNoIrNcmCountsPacketsOnly) {
  build();
  ncm.reset();
  PetAgentConfig cfg;
  cfg.state.include_incast = false;
  cfg.state.include_flow_ratio = false;
  PetAgent agent(sched, *sw, cfg, 1);
  load_window(*sw);
  EXPECT_EQ(agent.ncm().tracked_flows(), 0u);
  EXPECT_EQ(agent.ncm().tracked_dsts(), 0u);
  const NcmSnapshot snap = agent.ncm().sample();
  EXPECT_EQ(snap.packets_seen, 40);  // the stale-telemetry guardrail's input
  EXPECT_EQ(snap.incast_degree, 0.0);
  EXPECT_EQ(snap.flows_seen, 0);
}

TEST_F(NcmFixture, FullPetNcmTracksEveryFactor) {
  build();
  ncm.reset();
  PetAgent agent(sched, *sw, PetAgentConfig{}, 1);
  load_window(*sw);
  EXPECT_EQ(agent.ncm().tracked_flows(), 40u);
  EXPECT_EQ(agent.ncm().tracked_dsts(), 1u);
  const NcmSnapshot snap = agent.ncm().sample();
  EXPECT_EQ(snap.packets_seen, 40);
  EXPECT_EQ(snap.incast_degree, 4.0);
  EXPECT_EQ(snap.flows_seen, 40);
}

TEST(NcmOrderIndependence, EvictionSurvivorsIndependentOfArrivalOrder) {
  // Regression: threshold_cleanup() stops evicting at a size bound, so
  // before it iterated sorted key views the surviving flows — and with them
  // the later mice/elephant classification — depended on hash-bucket
  // layout, which varies with arrival order. The same traffic must yield
  // the same snapshot no matter the interleaving.
  const auto run = [](const std::vector<net::FlowId>& slot1_order) {
    sim::Scheduler sched;
    net::Network net{sched, 33};
    auto& sw = net.add_switch({});
    net::PortConfig nic;
    nic.rate = sim::gbps(10);
    nic.propagation_delay = sim::nanoseconds(100);
    for (int i = 0; i < 6; ++i) {
      auto& h = net.add_host(nic);
      net.connect(h.id(), sw.id(), nic.rate, nic.propagation_delay);
    }
    net.recompute_routes();
    NcmConfig cfg;
    cfg.max_tracked_flows = 8;
    cfg.elephant_threshold_bytes = 5000;
    cfg.flow_expiry_slots = 10;
    Ncm ncm(sched, sw, cfg);
    // Slot 1: 12 flows; 10..12 accumulate enough bytes to be elephants.
    for (const net::FlowId f : slot1_order) {
      const auto port = static_cast<net::HostId>(1 + f % 4);
      const int reps = f >= 10 ? 6 : 1;
      for (int i = 0; i < reps; ++i) {
        sw.receive(data_packet(port, 0, f), port);
      }
    }
    (void)ncm.sample();
    (void)ncm.sample();
    // Slot 3: a new flow pushes the table over capacity, evicting stale
    // flows; then every original flow sends once more, so the snapshot's
    // mice/elephant split reflects exactly who survived eviction.
    sw.receive(data_packet(1, 0, 999), 1);
    for (net::FlowId f = 1; f <= 12; ++f) {
      const auto port = static_cast<net::HostId>(1 + f % 4);
      sw.receive(data_packet(port, 0, f), port);
    }
    const NcmSnapshot snap = ncm.sample();
    return std::tuple{snap.mice_ratio, snap.flows_seen, snap.incast_degree,
                      ncm.tracked_flows()};
  };

  std::vector<net::FlowId> forward;
  for (net::FlowId f = 1; f <= 12; ++f) forward.push_back(f);
  const std::vector<net::FlowId> reverse(forward.rbegin(), forward.rend());
  const std::vector<net::FlowId> mixed = {7, 2, 11, 4, 9, 1,
                                          12, 6, 3, 10, 8, 5};
  const auto a = run(forward);
  EXPECT_EQ(a, run(reverse));
  EXPECT_EQ(a, run(mixed));
}

TEST(NcmOrderIndependence, SameSeedRunsAreByteIdenticalUnderEviction) {
  // Same-seed byte-identity through the eviction path: two runs fed the
  // same seeded traffic (heavy enough to trigger threshold cleanup) must
  // render byte-identical snapshot streams, and a different seed must not
  // (proving the probe is sensitive to the state eviction decides).
  const auto run = [](std::uint64_t seed) {
    sim::Scheduler sched;
    net::Network net{sched, 33};
    auto& sw = net.add_switch({});
    net::PortConfig nic;
    nic.rate = sim::gbps(10);
    nic.propagation_delay = sim::nanoseconds(100);
    for (int i = 0; i < 6; ++i) {
      auto& h = net.add_host(nic);
      net.connect(h.id(), sw.id(), nic.rate, nic.propagation_delay);
    }
    net.recompute_routes();
    NcmConfig cfg;
    cfg.max_tracked_flows = 8;
    cfg.max_tracked_dsts = 4;
    cfg.elephant_threshold_bytes = 3000;
    Ncm ncm(sched, sw, cfg);
    sim::Rng rng(seed);
    std::string bytes;
    for (int slot = 0; slot < 6; ++slot) {
      for (int pkt = 0; pkt < 60; ++pkt) {
        const auto flow = static_cast<net::FlowId>(rng() % 40);
        const auto src = static_cast<net::HostId>(1 + rng() % 5);
        const auto dst = static_cast<net::HostId>(rng() % 5);
        sw.receive(data_packet(src, dst, flow), src);
      }
      const NcmSnapshot snap = ncm.sample();
      char line[160];
      std::snprintf(line, sizeof line, "%.17g|%.17g|%.17g|%lld|%zu\n",
                    snap.mice_ratio, snap.incast_degree, snap.qlen_bytes,
                    static_cast<long long>(snap.flows_seen),
                    ncm.tracked_flows());
      bytes += line;
    }
    return bytes;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

}  // namespace
}  // namespace pet::core
