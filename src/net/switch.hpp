#pragma once
// Output-queued shared-buffer switch with ECMP routing, RED/ECN marking
// (delegated to its ports) and PFC-based losslessness — the standard model
// for an RDMA data-center switch.

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
  /// Data queues per egress port (single-queue experiments use 1).
  std::int32_t num_data_queues = 1;
};

/// Per-switch roll-up of the installed (port, queue) ECN configs: the
/// min/max of each threshold across every data queue plus a uniformity
/// flag. Telemetry records this instead of pretending the port-0/queue-0
/// config speaks for the whole switch (it does not after per-port or
/// multiqueue installs).
struct EcnConfigSummary {
  std::int64_t kmin_min_bytes = 0;
  std::int64_t kmin_max_bytes = 0;
  std::int64_t kmax_min_bytes = 0;
  std::int64_t kmax_max_bytes = 0;
  double pmax_min = 0.0;
  double pmax_max = 0.0;
  /// True when every (port, queue) carries the identical config.
  bool uniform = true;
  /// Data queues aggregated (0 on a portless switch).
  std::int32_t queues = 0;
};

class SwitchDevice : public Device {
 public:
  /// Classifies a data packet into one of the port's data queues; with none
  /// installed every packet goes to queue 0.
  // pet-lint: allow(hot-path-alloc): classifiers are installed once at
  // setup; the per-packet call itself does not allocate
  using Classifier = std::function<std::int32_t(const Packet&)>;
  /// Observer invoked for every data packet accepted for forwarding
  /// (NCM taps this for incast degree and mice/elephant accounting).
  // pet-lint: allow(hot-path-alloc): observer installed once at setup
  using ForwardObserver = std::function<void(
      const Packet&, std::int32_t out_port, std::int32_t queue_idx)>;

  SwitchDevice(sim::Scheduler& sched, DeviceId id, std::string name,
               const SwitchConfig& cfg, std::uint64_t seed);

  [[nodiscard]] const SwitchConfig& config() const { return cfg_; }

  /// Routing: candidate egress ports for each destination host (set by
  /// Network after topology construction / link state changes).
  void set_routes(HostId dst, std::vector<std::int32_t> ports);
  void clear_routes();
  [[nodiscard]] const std::vector<std::int32_t>& routes(HostId dst) const;

  void set_classifier(Classifier classifier) {
    classifier_ = std::move(classifier);
  }
  /// Observers accumulate (e.g. one NCM per data queue). The returned
  /// handle removes exactly that observer again (observer lifetimes are
  /// often shorter than the switch's).
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
  /// action, multiqueue adaptation and static fallback lands here. Applies
  /// `cfg` to each (port, queue) the selector matches (invalid configs are
  /// clamped at the port), bumps the install counter, and returns the
  /// number of queues touched.
  std::size_t install_ecn(const RedEcnConfig& cfg,
                          const PortSelector& sel = PortSelector::all());
  /// Number of install_ecn() calls over this switch's lifetime (audit
  /// trail: actuations per agent tick are visible to tests/telemetry).
  [[nodiscard]] std::int64_t ecn_installs() const { return ecn_installs_; }
  /// Min/max of the installed configs across every (port, queue), plus a
  /// uniformity flag — the honest per-switch view of a possibly per-port
  /// or per-queue ECN state.
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
  Classifier classifier_;
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
