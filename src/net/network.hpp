#pragma once
// Network: owns all devices, wires links, computes ECMP shortest-path
// routing, installs ECN configs on every switch, and injects/restores link
// failures.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/device.hpp"
#include "net/host.hpp"
#include "net/port.hpp"
#include "net/red_ecn.hpp"
#include "net/switch.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace pet::net {

class Network {
 public:
  Network(sim::Scheduler& sched, std::uint64_t seed)
      : sched_(sched), seed_(seed) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Create a host; HostIds are assigned densely in creation order.
  HostDevice& add_host(const PortConfig& nic_cfg);
  SwitchDevice& add_switch(const SwitchConfig& cfg);

  /// Create a full-duplex link between two devices (a port on each side).
  void connect(DeviceId a, DeviceId b, sim::Rate rate, sim::Time delay);

  /// Administratively bring a link up or down; routes are recomputed.
  /// Returns false if no such link exists.
  bool set_link_state(DeviceId a, DeviceId b, bool up);

  /// The egress port on `a` facing `b` (nullptr if no such link) — the
  /// attachment point for per-link fault injection.
  [[nodiscard]] EgressPort* link_port(DeviceId a, DeviceId b);

  /// Fail `fraction` of switch-to-switch links chosen uniformly at random.
  /// Returns the failed (a, b) pairs so callers can restore them later.
  std::vector<std::pair<DeviceId, DeviceId>> fail_random_switch_links(
      double fraction, sim::Rng& rng);

  /// Recompute all switches' ECMP routing tables over live links.
  void recompute_routes();

  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] std::int32_t num_hosts() const {
    return static_cast<std::int32_t>(hosts_.size());
  }
  [[nodiscard]] HostDevice& host(HostId id) { return *hosts_[id]; }
  [[nodiscard]] const HostDevice& host(HostId id) const { return *hosts_[id]; }
  [[nodiscard]] std::vector<SwitchDevice*>& switches() { return switches_; }
  [[nodiscard]] const std::vector<SwitchDevice*>& switches() const {
    return switches_;
  }
  [[nodiscard]] Device& device(DeviceId id) { return *devices_[id]; }
  [[nodiscard]] std::int32_t num_devices() const {
    return static_cast<std::int32_t>(devices_.size());
  }

  /// Total packets dropped at switches (no route + buffer overflow).
  [[nodiscard]] std::int64_t total_switch_drops() const;

  /// Fabric-wide ECN installation through the single audited entry point:
  /// applies `cfg` to every port of every switch and returns the number of
  /// ports touched. Schemes, the static-ECN fallback, and sweep tooling all
  /// go through here instead of poking switches/ports directly.
  std::size_t install_ecn(const RedEcnConfig& cfg);

 private:
  struct PortRef {
    DeviceId device;
    std::int32_t port;
  };
  /// Find the port on `a` that faces `b`, if any.
  [[nodiscard]] std::int32_t port_towards(DeviceId a, DeviceId b) const;

  sim::Scheduler& sched_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::vector<HostDevice*> hosts_;
  std::vector<SwitchDevice*> switches_;
};

}  // namespace pet::net
