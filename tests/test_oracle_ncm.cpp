// Differential oracle: core::Ncm's flat per-packet tables (a bit row per
// destination, a dense flow list with an open-addressing index) vs the
// testkit's hash-table NcmRef, driven by generated packet streams whose
// host ids reach 600 (so the bit rows grow) under table bounds as small as
// 4-8 (so threshold cleanup fires mid-slot). Every snapshot field and both
// table sizes must agree, for every subset of what an NCM tracks.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "core/ncm.hpp"
#include "net/network.hpp"
#include "net/switch.hpp"
#include "testkit/oracles.hpp"
#include "testkit/property.hpp"

namespace pet::testkit {
namespace {

constexpr net::HostId kMaxHostId = 600;
constexpr std::int32_t kHostPorts = 4;

/// One switch with kHostPorts hosts and a route for every host id up to
/// kMaxHostId (destination d leaves on port d % kHostPorts).
struct OneSwitch {
  sim::Scheduler sched;
  net::Network net{sched, 77};
  net::SwitchDevice* sw = nullptr;

  OneSwitch() {
    sw = &net.add_switch({});
    net::PortConfig nic;
    nic.rate = sim::gbps(10);
    nic.propagation_delay = sim::nanoseconds(100);
    for (std::int32_t i = 0; i < kHostPorts; ++i) {
      auto& h = net.add_host(nic);
      net.connect(h.id(), sw->id(), nic.rate, nic.propagation_delay);
    }
    for (net::HostId d = 0; d <= kMaxHostId; ++d) {
      sw->set_routes(d, {d % kHostPorts});
    }
  }
};

// One packet: (src, dst, flow id, payload bytes).
using Pkt = std::tuple<std::int64_t, std::int64_t, std::int64_t, std::int64_t>;
// (max_tracked_flows, max_tracked_dsts, flow_expiry_slots,
//  elephant_threshold_bytes, tracking bits, slots of packets)
using Case = std::tuple<std::int64_t, std::int64_t, std::int64_t,
                        std::int64_t, std::int64_t,
                        std::vector<std::vector<Pkt>>>;

[[nodiscard]] Gen<std::int64_t> host_ids() {
  // Mostly a few hosts, so sender sets collide; sometimes any id.
  return frequency<std::int64_t>(
      {{3, integers(0, 7)}, {1, integers(0, kMaxHostId)}});
}

[[nodiscard]] Gen<Case> ncm_cases() {
  const Gen<std::int64_t> bound =
      frequency<std::int64_t>({{3, integers(4, 8)}, {1, integers(9, 4096)}});
  const Gen<std::int64_t> flow_ids = frequency<std::int64_t>(
      {{3, integers(0, 40)}, {1, integers(0, std::int64_t{1} << 40)}});
  const Gen<Pkt> packet =
      tuple_of(host_ids(), host_ids(), flow_ids, integers(64, 4000));
  return tuple_of(bound, bound, integers(0, 4), integers(500, 20'000),
                  frequency<std::int64_t>(
                      {{3, constant<std::int64_t>(7)}, {1, integers(0, 7)}}),
                  vector_of(vector_of(packet, 0, 48), 1, 6));
}

PROPERTY_CASES(NcmOracle, FlatTablesMatchHashTableModel, 2000, ncm_cases()) {
  const auto& [max_flows, max_dsts, expiry, elephant, bits, slots] = arg;
  core::NcmConfig cfg;
  cfg.max_tracked_flows = static_cast<std::size_t>(max_flows);
  cfg.max_tracked_dsts = static_cast<std::size_t>(max_dsts);
  cfg.flow_expiry_slots = static_cast<std::int32_t>(expiry);
  cfg.elephant_threshold_bytes = elephant;
  const core::NcmTracking tracking{.packets = (bits & 1) != 0,
                                   .senders = (bits & 2) != 0,
                                   .flows = (bits & 4) != 0};

  // Two identical switches see the same stream: one under the NCM being
  // checked, one under an NCM that tracks nothing (the port statistics)
  // plus the reference model (the per-packet bookkeeping).
  OneSwitch a;
  OneSwitch b;
  core::Ncm ncm(a.sched, *a.sw, cfg, tracking);
  core::Ncm ports_only(b.sched, *b.sw, cfg,
                       {.packets = false, .senders = false, .flows = false});
  NcmRef ref(cfg);
  b.sw->add_forward_observer(
      [&ref](const net::Packet& pkt, std::int32_t, std::int32_t queue_idx) {
        ref.on_forward(pkt, queue_idx);
      });

  const auto expect_sizes = [&] {
    PROP_ASSERT_EQ(ncm.tracked_flows(),
                   tracking.flows ? ref.tracked_flows() : std::size_t{0});
    PROP_ASSERT_EQ(ncm.tracked_dsts(),
                   tracking.senders ? ref.tracked_dsts() : std::size_t{0});
  };

  std::uint32_t seq = 0;
  sim::Time now = sim::Time::zero();
  for (const auto& slot : slots) {
    for (const auto& [src, dst, flow, bytes] : slot) {
      net::Packet pkt;
      pkt.flow_id = static_cast<net::FlowId>(flow);
      pkt.src = static_cast<net::HostId>(src);
      pkt.dst = static_cast<net::HostId>(dst);
      pkt.type = net::PacketType::kData;
      pkt.size_bytes = static_cast<std::int32_t>(bytes);
      pkt.payload_bytes = pkt.size_bytes;
      pkt.seq = seq++;
      const auto in_port = static_cast<std::int32_t>(src % kHostPorts);
      a.sw->receive(pkt, in_port);
      b.sw->receive(pkt, in_port);
      expect_sizes();
    }
    now = now + sim::microseconds(20);
    a.sched.run_until(now);
    b.sched.run_until(now);

    const core::NcmSnapshot got = ncm.sample();
    core::NcmSnapshot want = ports_only.sample();
    core::NcmSnapshot model = want;
    ref.close_slot(model);
    if (tracking.packets) want.packets_seen = model.packets_seen;
    if (tracking.senders) want.incast_degree = model.incast_degree;
    if (tracking.flows) {
      want.flows_seen = model.flows_seen;
      want.mice_ratio = model.mice_ratio;
    }
    PROP_ASSERT_EQ(got.window.ps(), want.window.ps());
    PROP_ASSERT_EQ(got.qlen_bytes, want.qlen_bytes);
    PROP_ASSERT_EQ(got.avg_qlen_bytes, want.avg_qlen_bytes);
    PROP_ASSERT_EQ(got.utilization, want.utilization);
    PROP_ASSERT_EQ(got.marked_ratio, want.marked_ratio);
    PROP_ASSERT_EQ(got.incast_degree, want.incast_degree);
    PROP_ASSERT_EQ(got.mice_ratio, want.mice_ratio);
    PROP_ASSERT_EQ(got.flows_seen, want.flows_seen);
    PROP_ASSERT_EQ(got.packets_seen, want.packets_seen);
    expect_sizes();
  }
}

}  // namespace
}  // namespace pet::testkit
