#include "net/network.hpp"

#include <cassert>
#include <deque>
#include <limits>
#include <string>

namespace pet::net {

HostDevice& Network::add_host(const PortConfig& nic_cfg) {
  const auto dev_id = static_cast<DeviceId>(devices_.size());
  const auto host_id = static_cast<HostId>(hosts_.size());
  PortConfig cfg = nic_cfg;
  cfg.seed = sim::derive_seed(seed_, "host-nic") + static_cast<std::uint64_t>(dev_id);
  auto host = std::make_unique<HostDevice>(
      sched_, dev_id, host_id, "host" + std::to_string(host_id), cfg);
  HostDevice& ref = *host;
  devices_.push_back(std::move(host));
  hosts_.push_back(&ref);
  return ref;
}

SwitchDevice& Network::add_switch(const SwitchConfig& cfg) {
  const auto dev_id = static_cast<DeviceId>(devices_.size());
  auto sw = std::make_unique<SwitchDevice>(
      sched_, dev_id, "switch" + std::to_string(switches_.size()), cfg,
      sim::derive_seed(seed_, "switch") + static_cast<std::uint64_t>(dev_id));
  SwitchDevice& ref = *sw;
  devices_.push_back(std::move(sw));
  switches_.push_back(&ref);
  return ref;
}

void Network::connect(DeviceId a, DeviceId b, sim::Rate rate, sim::Time delay) {
  Device& da = *devices_[a];
  Device& db = *devices_[b];
  PortConfig cfg;
  cfg.rate = rate;
  cfg.propagation_delay = delay;
  // Hosts already own port 0 (their NIC); a host side reuses it, a switch
  // side gets a new port.
  const auto attach = [&](Device& dev, DeviceId id) {
    if (dynamic_cast<HostDevice*>(&dev) != nullptr) {
      assert(dev.port(0).peer() == nullptr && "host NIC already connected");
      return std::int32_t{0};
    }
    assert(dynamic_cast<SwitchDevice*>(&dev) != nullptr);
    cfg.seed = sim::derive_seed(seed_, "port") +
               (static_cast<std::uint64_t>(id) << 20) +
               static_cast<std::uint64_t>(dev.num_ports());
    return dev.add_port(cfg);
  };
  const std::int32_t pa = attach(da, a);
  const std::int32_t pb = attach(db, b);
  da.port(pa).connect(&db, pb);
  db.port(pb).connect(&da, pa);
}

std::int32_t Network::port_towards(DeviceId a, DeviceId b) const {
  const Device& da = *devices_[a];
  for (std::int32_t p = 0; p < da.num_ports(); ++p) {
    const Device* peer = da.port(p).peer();
    if (peer != nullptr && peer->id() == b) return p;
  }
  return -1;
}

EgressPort* Network::link_port(DeviceId a, DeviceId b) {
  const std::int32_t p = port_towards(a, b);
  return p >= 0 ? &devices_[a]->port(p) : nullptr;
}

bool Network::set_link_state(DeviceId a, DeviceId b, bool up) {
  const std::int32_t pa = port_towards(a, b);
  const std::int32_t pb = port_towards(b, a);
  if (pa < 0 || pb < 0) return false;
  devices_[a]->port(pa).set_link_up(up);
  devices_[b]->port(pb).set_link_up(up);
  recompute_routes();
  return true;
}

std::vector<std::pair<DeviceId, DeviceId>> Network::fail_random_switch_links(
    double fraction, sim::Rng& rng) {
  std::vector<std::pair<DeviceId, DeviceId>> candidates;
  for (const auto* sw : switches_) {
    for (std::int32_t p = 0; p < sw->num_ports(); ++p) {
      const auto& prt = sw->port(p);
      const Device* peer = prt.peer();
      if (peer == nullptr || !prt.link_up()) continue;
      // Only switch-switch links; count each once (lower id first).
      if (dynamic_cast<const SwitchDevice*>(peer) == nullptr) continue;
      if (sw->id() < peer->id()) candidates.emplace_back(sw->id(), peer->id());
    }
  }
  const auto n_fail = static_cast<std::size_t>(
      static_cast<double>(candidates.size()) * fraction + 0.5);
  // Partial Fisher-Yates shuffle to pick n_fail distinct links.
  std::vector<std::pair<DeviceId, DeviceId>> failed;
  for (std::size_t i = 0; i < n_fail && i < candidates.size(); ++i) {
    const std::size_t j = i + rng.uniform_int(candidates.size() - i);
    std::swap(candidates[i], candidates[j]);
    failed.push_back(candidates[i]);
  }
  for (const auto& [a, b] : failed) {
    const std::int32_t pa = port_towards(a, b);
    const std::int32_t pb = port_towards(b, a);
    devices_[a]->port(pa).set_link_up(false);
    devices_[b]->port(pb).set_link_up(false);
  }
  recompute_routes();
  return failed;
}

void Network::recompute_routes() {
  constexpr std::int32_t kInf = std::numeric_limits<std::int32_t>::max();
  const std::size_t n = devices_.size();
  std::vector<std::int32_t> dist(n);

  for (auto* sw : switches_) sw->clear_routes();

  for (const HostDevice* dst : hosts_) {
    // BFS from the destination over live links.
    std::fill(dist.begin(), dist.end(), kInf);
    // pet-lint: allow(hot-path-alloc): BFS scratch for route recompute —
    // control-plane work that runs on topology changes, not per packet
    std::deque<DeviceId> frontier;
    dist[static_cast<std::size_t>(dst->id())] = 0;
    frontier.push_back(dst->id());
    while (!frontier.empty()) {
      const DeviceId d = frontier.front();
      frontier.pop_front();
      const Device& dev = *devices_[static_cast<std::size_t>(d)];
      for (std::int32_t p = 0; p < dev.num_ports(); ++p) {
        const auto& prt = dev.port(p);
        if (!prt.link_up() || prt.peer() == nullptr) continue;
        // The reverse direction must also be up for the neighbor to use it.
        const DeviceId nb = prt.peer()->id();
        if (dist[static_cast<std::size_t>(nb)] != kInf) continue;
        dist[static_cast<std::size_t>(nb)] =
            dist[static_cast<std::size_t>(d)] + 1;
        frontier.push_back(nb);
      }
    }
    // Next hops: ports leading strictly downhill in distance.
    for (auto* sw : switches_) {
      const std::int32_t my_dist = dist[static_cast<std::size_t>(sw->id())];
      if (my_dist == kInf) continue;
      std::vector<std::int32_t> ports;
      for (std::int32_t p = 0; p < sw->num_ports(); ++p) {
        const auto& prt = sw->port(p);
        if (!prt.link_up() || prt.peer() == nullptr) continue;
        const std::int32_t peer_dist =
            dist[static_cast<std::size_t>(prt.peer()->id())];
        if (peer_dist != kInf && peer_dist == my_dist - 1) ports.push_back(p);
      }
      if (!ports.empty()) sw->set_routes(dst->host_id(), std::move(ports));
    }
  }
}

std::size_t Network::install_ecn(const RedEcnConfig& cfg) {
  std::size_t touched = 0;
  for (auto* sw : switches_) touched += sw->install_ecn(cfg);
  return touched;
}

std::int64_t Network::total_switch_drops() const {
  std::int64_t total = 0;
  for (const auto* sw : switches_) {
    total += sw->dropped_no_route() + sw->dropped_buffer_full();
  }
  return total;
}

}  // namespace pet::net
