#pragma once
// Network Condition Monitor (paper Section 4.5.1): the per-switch module
// that (1) monitors queue/port statistics, (2) computes the derived factors
// (incast degree, mice/elephant ratio), and (3) evicts expired state via
// scheduled and threshold-triggered cleanup so switch memory stays bounded.

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "net/switch.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace pet::core {

struct NcmConfig {
  /// Flows idle for this many monitoring slots are expired (Eq. (3)'s k).
  std::int32_t flow_expiry_slots = 3;
  /// Threshold cleanup: trim the flow table when it exceeds this.
  std::size_t max_tracked_flows = 8192;
  /// Threshold cleanup: trim per-destination sender sets beyond this.
  std::size_t max_tracked_dsts = 2048;
  /// Cumulative bytes above which a flow is an elephant.
  std::int64_t elephant_threshold_bytes = 1'000'000;
};

/// One monitoring slot's worth of switch statistics, aggregated over the
/// switch's ports with the bottleneck (max) port defining congestion
/// signals.
struct NcmSnapshot {
  sim::Time window;                // slot duration
  double qlen_bytes = 0.0;         // instantaneous max over ports at sample
  double avg_qlen_bytes = 0.0;     // time-weighted mean of the busiest port
  double utilization = 0.0;        // busiest port tx_bytes / capacity in [0,1]
  double marked_ratio = 0.0;       // marked tx bytes / capacity in [0,1]
  double incast_degree = 0.0;      // max distinct senders to one receiver
  double mice_ratio = 1.0;         // mice / (mice + elephants) seen in slot
  std::int64_t flows_seen = 0;
  std::int64_t packets_seen = 0;
};

/// What an NCM keeps per forwarded packet. Each part feeds some snapshot
/// fields; an untracked part leaves them at their neutral values (0
/// packets, incast degree 0, no flows and mice ratio 1), and an NCM that
/// tracks nothing registers no forward observer. Agents derive it from
/// what they read (StateConfig::ncm_tracking); it is not a config knob.
struct NcmTracking {
  bool packets = true;  // packets_seen
  bool senders = true;  // incast_degree
  bool flows = true;    // flows_seen, mice_ratio

  [[nodiscard]] bool any() const { return packets || senders || flows; }
};

class Ncm {
 public:
  Ncm(sim::Scheduler& sched, net::SwitchDevice& sw, const NcmConfig& cfg,
      NcmTracking tracking = {});

  ~Ncm();
  Ncm(const Ncm&) = delete;
  Ncm& operator=(const Ncm&) = delete;

  /// Close the current monitoring slot: return its statistics and reset the
  /// window counters (scheduled cleanup runs here).
  [[nodiscard]] NcmSnapshot sample();

  [[nodiscard]] net::SwitchDevice& switch_device() { return sw_; }

  /// Resident tracking-state size (for the overhead experiments).
  [[nodiscard]] std::size_t tracked_flows() const { return flows_.size(); }
  [[nodiscard]] std::size_t tracked_dsts() const { return slot_dsts_.size(); }

 private:
  void on_forward(const net::Packet& pkt);
  void add_sender(net::HostId dst, net::HostId src);
  void add_flow_bytes(net::FlowId id, std::int64_t bytes);
  /// Threshold cleanup, one half per table: memory pressure inside a slot
  /// (e.g. an incast burst) evicts the stalest half of the flow table and
  /// the smaller sender sets.
  void trim_flows();
  void trim_senders();
  void clear_sender_row(std::size_t dst);
  /// Grow every sender row to `words` 64-bit words.
  void widen_sender_rows(std::size_t words);
  /// Rebuild the flow index over flows_ (after erasures or to grow it).
  void rebuild_flow_index(std::size_t capacity);
  [[nodiscard]] std::size_t flow_slot(net::FlowId id) const;

  struct FlowInfo {
    net::FlowId id = 0;
    std::int64_t bytes = 0;
    std::int64_t last_seen_slot = 0;
  };

  sim::Scheduler& sched_;
  net::SwitchDevice& sw_;
  NcmConfig cfg_;
  NcmTracking tracking_;
  std::int64_t observer_handle_ = 0;

  sim::Time last_sample_;
  std::int64_t slot_index_ = 0;
  std::int64_t slot_packets_ = 0;

  // Per-slot sender sets for the incast degree: one bit row of
  // sender_words_ words per destination host, a fan-in counter per
  // destination, and the destinations with a non-empty row this slot.
  std::size_t sender_words_ = 0;
  std::vector<std::uint64_t> sender_bits_;
  std::vector<std::int32_t> fan_in_;
  std::vector<net::HostId> slot_dsts_;

  // Cross-slot flow sizes for the mice/elephant split: a dense flow list
  // and an open-addressing index over it (linear probing, power-of-two
  // size, entries are list positions + 1 with 0 for empty). A flow was
  // seen this slot iff its last_seen_slot is slot_index_: threshold
  // cleanup never evicts a flow seen this slot or the one before.
  std::vector<FlowInfo> flows_;
  std::vector<std::uint32_t> flow_index_;
  int flow_index_shift_ = 64;

  // Port counter baselines for window deltas.
  std::vector<std::int64_t> last_tx_bytes_;
  std::vector<std::int64_t> last_tx_marked_;
};

}  // namespace pet::core
