#pragma once
// Output-queued shared-buffer switch with ECMP routing, RED/ECN marking
// (delegated to its ports, one data queue each) and PFC-based losslessness
// — the standard model for an RDMA data-center switch.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/device.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "net/red_ecn.hpp"
#include "sim/scheduler.hpp"

namespace pet::net {

struct SwitchConfig {
  /// Shared packet buffer across all egress queues.
  std::int64_t buffer_bytes = 2 * 1024 * 1024;
  /// PFC thresholds on per-ingress-port buffered bytes.
  bool pfc_enabled = true;
  std::int64_t pfc_xoff_bytes = 256 * 1024;
  std::int64_t pfc_xon_bytes = 128 * 1024;
};

/// Per-switch roll-up of the installed per-port ECN configs: the min/max
/// of each threshold across every egress port plus a uniformity flag.
/// Telemetry records this instead of pretending the port-0 config speaks
/// for the whole switch (it does not after a write to one port).
struct EcnConfigSummary {
  std::int64_t kmin_min_bytes = 0;
  std::int64_t kmin_max_bytes = 0;
  std::int64_t kmax_min_bytes = 0;
  std::int64_t kmax_max_bytes = 0;
  double pmax_min = 0.0;
  double pmax_max = 0.0;
  /// True when every port carries the identical config.
  bool uniform = true;
  /// Ports aggregated, one data queue each (0 on a portless switch).
  std::int32_t queues = 0;
};

class SwitchDevice : public Device {
 public:
  /// Observer invoked for every data packet accepted for forwarding
  /// (NCM taps this for incast degree and mice/elephant accounting).
  // pet-lint: allow(hot-path-alloc): observer installed once at setup
  using ForwardObserver = std::function<void(const Packet&,
                                             std::int32_t out_port)>;

  SwitchDevice(sim::Scheduler& sched, DeviceId id, std::string name,
               const SwitchConfig& cfg, std::uint64_t seed);

  /// Routing: candidate egress ports for each destination host (set by
  /// Network after topology construction / link state changes).
  void set_routes(HostId dst, std::vector<std::int32_t> ports);
  void clear_routes();
  [[nodiscard]] const std::vector<std::int32_t>& routes(HostId dst) const;

  /// Observers accumulate. The returned handle removes exactly that
  /// observer again (observer lifetimes are often shorter than the
  /// switch's).
  std::int64_t add_forward_observer(ForwardObserver observer) {
    observers_.emplace_back(next_observer_id_, std::move(observer));
    return next_observer_id_++;
  }
  void remove_forward_observer(std::int64_t handle) {
    std::erase_if(observers_,
                  [handle](const auto& e) { return e.first == handle; });
  }
  void clear_forward_observers() { observers_.clear(); }

  void receive(Packet pkt, std::int32_t in_port) override;
  void on_packet_departed(std::int32_t port, const QueueEntry& entry) override;

  // --- actuation: the knob the RL agents turn ------------------------------
  /// The single audited ECN installation entry point: every scheme, PET
  /// action and static fallback lands here. Applies `cfg` to every port
  /// (invalid configs are clamped at the port), bumps the install counter,
  /// and returns the number of ports touched.
  std::size_t install_ecn(const RedEcnConfig& cfg);
  /// Number of install_ecn() calls over this switch's lifetime (audit
  /// trail: actuations per agent tick are visible to tests/telemetry).
  [[nodiscard]] std::int64_t ecn_installs() const { return ecn_installs_; }
  /// Min/max of the installed configs across every port, plus a
  /// uniformity flag — the honest per-switch view of a possibly per-port
  /// ECN state.
  [[nodiscard]] EcnConfigSummary ecn_config_summary() const;

  // --- observability --------------------------------------------------------
  [[nodiscard]] std::int64_t buffer_used_bytes() const { return buffer_used_; }
  [[nodiscard]] std::int64_t dropped_no_route() const { return dropped_no_route_; }
  [[nodiscard]] std::int64_t dropped_buffer_full() const {
    return dropped_buffer_full_;
  }
  [[nodiscard]] std::int64_t pfc_pauses_sent() const { return pfc_pauses_sent_; }

 private:
  [[nodiscard]] std::int32_t pick_ecmp_port(
      const std::vector<std::int32_t>& candidates, const Packet& pkt) const;
  void update_pfc(std::int32_t in_port);
  void send_pfc(std::int32_t port, bool pause);

  SwitchConfig cfg_;
  std::uint64_t ecmp_salt_;
  std::vector<std::vector<std::int32_t>> routes_;  // indexed by HostId
  std::vector<std::pair<std::int64_t, ForwardObserver>> observers_;
  std::int64_t next_observer_id_ = 1;

  std::int64_t buffer_used_ = 0;
  std::vector<std::int64_t> ingress_bytes_;  // PFC accounting per ingress port
  std::vector<bool> pause_sent_;

  std::int64_t dropped_no_route_ = 0;
  std::int64_t dropped_buffer_full_ = 0;
  std::int64_t ecn_installs_ = 0;
  std::int64_t pfc_pauses_sent_ = 0;

  static const std::vector<std::int32_t> kNoRoutes;
};

}  // namespace pet::net
