// Action-sequence fuzzing of SwitchDevice: generated interleavings of ECN
// installs (including garbage configs), packet arrivals, pauses, link
// faults and scheduler progress. Whatever the sequence, the switch must
// keep its invariants: installed configs are always valid (clamped),
// buffer accounting never goes negative and fully drains at quiesce,
// counters stay monotone and consistent.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "net/network.hpp"
#include "net/switch.hpp"
#include "testkit/property.hpp"

namespace pet::testkit {
namespace {

class SinkApp : public net::HostApp {
 public:
  void on_receive(const net::Packet& pkt) override {
    received_bytes += pkt.payload_bytes;
    ++received_packets;
  }
  std::int64_t received_bytes = 0;
  std::int64_t received_packets = 0;
};

// One action: (kind, a, b, c) — interpretation depends on kind.
using Action = std::tuple<std::int64_t, std::int64_t, std::int64_t,
                          std::int64_t>;

[[nodiscard]] Gen<std::vector<Action>> action_sequences() {
  return vector_of(tuple_of(integers(0, 9), integers(0, 1 << 20),
                            integers(0, 1 << 20), integers(0, 1 << 20)),
                   1, 60);
}

void expect_all_configs_valid(const net::SwitchDevice& sw) {
  for (std::int32_t p = 0; p < sw.num_ports(); ++p) {
    for (std::int32_t q = 0; q < sw.port(p).num_data_queues(); ++q) {
      PROP_ASSERT(sw.port(p).ecn_config(q).valid());
    }
  }
}

PROPERTY_CASES(SwitchFuzz, InstallFaultInterleavingsKeepInvariants, 2000,
               action_sequences()) {
  sim::Scheduler sched;
  net::Network net(sched, 777);
  net::PortConfig nic;
  nic.rate = sim::gbps(10);
  nic.propagation_delay = sim::nanoseconds(200);
  net::SwitchConfig cfg;
  cfg.buffer_bytes = 64 * 1024;
  cfg.pfc_xoff_bytes = 24 * 1024;
  cfg.pfc_xon_bytes = 12 * 1024;
  cfg.num_data_queues = 2;

  auto& sw = net.add_switch(cfg);
  SinkApp app;
  std::vector<net::HostId> hosts;
  std::vector<net::DeviceId> host_devices;
  for (int i = 0; i < 3; ++i) {
    auto& h = net.add_host(nic);
    net.connect(h.id(), sw.id(), nic.rate, nic.propagation_delay);
    h.set_app(&app);
    hosts.push_back(h.host_id());
    host_devices.push_back(h.id());
  }
  net.recompute_routes();
  const std::int32_t nports = sw.num_ports();

  std::int64_t installs_before = sw.ecn_installs();
  std::uint32_t seq = 0;
  for (const auto& [kind, a, b, c] : arg) {
    switch (kind) {
      case 0:
      case 1:
      case 2: {  // packet arrival (weighted: traffic dominates)
        const auto src = static_cast<std::size_t>(a % 3);
        const auto dst = static_cast<std::size_t>(b % 3);
        if (src == dst) break;
        net::Packet pkt;
        pkt.flow_id = 1 + static_cast<net::FlowId>(c % 5);
        pkt.src = hosts[src];
        pkt.dst = hosts[dst];
        pkt.type = net::PacketType::kData;
        pkt.size_bytes = static_cast<std::int32_t>(64 + b % 4000);
        pkt.payload_bytes = pkt.size_bytes;
        pkt.seq = seq++;
        sw.receive(pkt, static_cast<std::int32_t>(src));
        break;
      }
      case 3: {  // install_ecn with possibly-garbage config and selector
        const net::RedEcnConfig raw{
            .kmin_bytes = a - (1 << 19),
            .kmax_bytes = b - (1 << 19),
            .pmax = static_cast<double>(c) / (1 << 18) - 2.0};
        net::PortSelector sel = net::PortSelector::all();
        switch (c % 4) {
          case 1:
            sel = net::PortSelector::port(static_cast<std::int32_t>(a) %
                                          nports);
            break;
          case 2:
            sel = net::PortSelector::queue(static_cast<std::int32_t>(b) % 2);
            break;
          case 3:
            sel = net::PortSelector::port_queue(
                static_cast<std::int32_t>(a) % nports,
                static_cast<std::int32_t>(b) % 2);
            break;
          default:
            break;
        }
        const std::int64_t before = sw.ecn_installs();
        sw.install_ecn(raw, sel);
        PROP_ASSERT_EQ(sw.ecn_installs(), before + 1);
        expect_all_configs_valid(sw);
        break;
      }
      case 4: {  // switch-wide install of a possibly-garbage config
        const net::RedEcnConfig raw{
            .kmin_bytes = (1 << 19) - a,
            .kmax_bytes = b - (1 << 19),
            .pmax = static_cast<double>(c) / (1 << 17) - 4.0};
        const std::int64_t before = sw.ecn_installs();
        sw.install_ecn(raw);
        PROP_ASSERT_EQ(sw.ecn_installs(), before + 1);
        expect_all_configs_valid(sw);
        // Every (port, queue) now carries the one clamped config.
        PROP_ASSERT(sw.ecn_config_summary().uniform);
        PROP_ASSERT(sw.port(0).ecn_config(0) == raw.clamped());
        break;
      }
      case 5:  // run the fabric forward
        sched.run_until(sched.now() + sim::Time(a * 100));
        break;
      case 6:  // PFC-style pause/unpause of a port
        sw.port(static_cast<std::int32_t>(a) % nports)
            .set_paused(b % 2 == 0);
        break;
      case 7:  // link failure / recovery
        sw.port(static_cast<std::int32_t>(a) % nports)
            .set_link_up(b % 2 == 0);
        break;
      case 8: {  // fabric link flap: a host link goes down both ways (routes
                 // recomputed), back up c x 100 ps later
        const net::DeviceId s = sw.id();
        const net::DeviceId h = host_devices[static_cast<std::size_t>(a % 3)];
        net.set_link_state(s, h, false);
        sched.schedule_at(sched.now() + sim::Time(c * 100),
                          [&net, s, h] { net.set_link_state(s, h, true); });
        break;
      }
      default: {  // link flap: down now, back up c x 100 ps later
        net::EgressPort& port = sw.port(static_cast<std::int32_t>(a) % nports);
        port.set_link_up(false);
        sched.schedule_at(sched.now() + sim::Time(c * 100),
                          [&port] { port.set_link_up(true); });
        break;
      }
    }
    PROP_ASSERT(sw.buffer_used_bytes() >= 0);
    PROP_ASSERT(sw.buffer_used_bytes() <= cfg.buffer_bytes);
    PROP_ASSERT(sw.pfc_pauses_sent() >= 0);
  }
  PROP_ASSERT(sw.ecn_installs() >= installs_before);

  // Quiesce: heal every fault, resume every port and drain. The shared
  // buffer must account down to exactly zero — no leaked bytes whatever
  // the interleaving was.
  for (std::int32_t p = 0; p < nports; ++p) {
    sw.port(p).set_link_up(true);
    sw.port(p).set_paused(false);
  }
  sched.run_all();
  PROP_ASSERT_EQ(sw.buffer_used_bytes(), std::int64_t{0});
  for (std::int32_t p = 0; p < nports; ++p) {
    PROP_ASSERT_EQ(sw.port(p).total_queue_bytes(), std::int64_t{0});
  }
  expect_all_configs_valid(sw);
}

}  // namespace
}  // namespace pet::testkit
