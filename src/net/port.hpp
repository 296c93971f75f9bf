#pragma once
// Egress port: per-port transmitter with one control queue (strict priority,
// PFC-exempt) and N data queues (round-robin, RED/ECN-marked, PFC-pausable).
//
// A port owns its in-flight packets: the frame it is serializing and a FIFO
// of the packets propagating on its link. Both per-hop events — transmit
// complete, then arrival at the peer — are record-free scheduler items that
// name only the port (sim::Scheduler::post_on); a transmit completion falls
// back to a heap event only where its delay is not a lane constant.
//
// A port has two faults: a downed link drops each frame that finishes
// serialization while it is down, and a rate factor below 1 stretches
// serialization. Delivery depends on link state and the peer alone.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "net/queue.hpp"
#include "net/red_ecn.hpp"
#include "sim/ring.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace pet::net {

class Device;

/// Callbacks a port makes into the device that owns it.
class PortOwner {
 public:
  virtual ~PortOwner() = default;
  /// A packet finished serialization and left the device (buffer space and
  /// PFC ingress accounting can be released).
  virtual void on_packet_departed(std::int32_t port, const QueueEntry& entry) = 0;
};

struct PortConfig {
  sim::Rate rate = sim::gbps(10);
  sim::Time propagation_delay = sim::nanoseconds(1000);
  std::int32_t num_data_queues = 1;
  std::uint64_t seed = 1;  // for the RED markers
};

class EgressPort {
 public:
  EgressPort(sim::Scheduler& sched, PortOwner& owner, std::int32_t index,
             const PortConfig& cfg);

  EgressPort(const EgressPort&) = delete;
  EgressPort& operator=(const EgressPort&) = delete;

  void connect(Device* peer, std::int32_t peer_port) {
    peer_ = peer;
    peer_port_ = peer_port;
  }
  [[nodiscard]] Device* peer() const { return peer_; }
  [[nodiscard]] std::int32_t peer_port() const { return peer_port_; }
  [[nodiscard]] std::int32_t index() const { return index_; }
  [[nodiscard]] sim::Rate rate() const { return cfg_.rate; }
  [[nodiscard]] sim::Time propagation_delay() const {
    return cfg_.propagation_delay;
  }
  [[nodiscard]] std::int32_t num_data_queues() const {
    return static_cast<std::int32_t>(data_queues_.size());
  }

  /// Enqueue a data packet into queue `queue_idx`; the packet is CE-marked
  /// here if the queue's RED/ECN rule fires on the instantaneous length.
  void enqueue(QueueEntry entry, std::int32_t queue_idx);

  /// Enqueue a control packet (CNP/PFC); strict priority, never paused.
  void enqueue_control(QueueEntry entry);

  /// PFC pause state (data queues only).
  void set_paused(bool paused);
  [[nodiscard]] bool paused() const { return paused_; }

  /// Is a packet currently being serialized?
  [[nodiscard]] bool busy() const { return busy_; }

  /// Administrative/failure link state. Packets serialized onto a downed
  /// link are dropped at the far end of serialization.
  void set_link_up(bool up);
  [[nodiscard]] bool link_up() const { return link_up_; }

  // --- fault injection (driven by net::FaultPlan) --------------------------
  /// Degrade the effective transmit rate to `factor` of nominal (1.0 =
  /// healthy). Serialization slows accordingly; clamped to [0.001, 1].
  void set_rate_factor(double factor);
  [[nodiscard]] double rate_factor() const { return rate_factor_; }

  /// Always zero: the port has no loss or corruption faults, and
  /// dropped_packets() counts every undelivered frame. Kept only because
  /// the frozen scenario benchmark reads them (ROADMAP item 12 deletes them).
  [[nodiscard]] std::int64_t fault_dropped_packets() const { return 0; }
  [[nodiscard]] std::int64_t fault_corrupted_packets() const { return 0; }
  [[nodiscard]] std::int64_t burst_dropped_packets() const { return 0; }

  /// Flush every queued packet (control + data) without transmitting, e.g.
  /// on a switch reboot. Returns the flushed entries so the owner can
  /// release buffer/PFC accounting. A packet mid-serialization still
  /// completes (it has already left the queues).
  [[nodiscard]] std::vector<QueueEntry> drain_queues();

  /// Runtime-adjustable ECN marking configuration (the agents' actuator).
  /// Invalid configurations are clamped to the nearest valid one and logged
  /// at WARN rather than installed verbatim.
  void set_ecn_config(std::int32_t queue_idx, const RedEcnConfig& cfg);
  [[nodiscard]] const RedEcnConfig& ecn_config(std::int32_t queue_idx) const;

  // --- observability -------------------------------------------------------
  [[nodiscard]] std::int64_t queue_bytes(std::int32_t queue_idx) const {
    return data_queues_[queue_idx].bytes();
  }
  [[nodiscard]] std::int64_t total_queue_bytes() const;
  [[nodiscard]] std::int64_t tx_bytes() const { return tx_bytes_; }
  [[nodiscard]] std::int64_t tx_packets() const { return tx_packets_; }
  [[nodiscard]] std::int64_t tx_marked_bytes() const { return tx_marked_bytes_; }
  [[nodiscard]] std::int64_t tx_marked_packets() const { return tx_marked_packets_; }
  [[nodiscard]] std::int64_t dropped_packets() const { return dropped_packets_; }
  /// Packets serialized and delivered to the link but not yet arrived at
  /// the peer: tx_packets() == dropped_packets() + packets_on_wire() + the
  /// peer's arrivals on this link, at every instant.
  [[nodiscard]] std::int64_t packets_on_wire() const {
    return static_cast<std::int64_t>(wire_.size());
  }

  // Per-queue egress counters (multi-queue adaptation, paper Section 4.5.2).
  [[nodiscard]] std::int64_t tx_bytes_queue(std::int32_t q) const {
    return tx_bytes_q_[q];
  }
  [[nodiscard]] std::int64_t tx_marked_bytes_queue(std::int32_t q) const {
    return tx_marked_bytes_q_[q];
  }

  /// Occupancy tracking of one data queue (queue 0 in the single-queue
  /// experiments).
  void track_occupancy(bool enabled, std::int32_t queue_idx = 0);
  [[nodiscard]] const sim::TimeWeightedStats& occupancy(std::int32_t queue_idx = 0);
  void reset_occupancy(std::int32_t queue_idx = 0);

 private:
  /// Start serializing the next frame into in_service_, if idle: a
  /// record-free lane item when its delay is a lane constant, else a heap
  /// event.
  void try_transmit();
  void finish_transmit();
  /// The front packet of the wire reaches the peer.
  void arrive();
  [[nodiscard]] bool pick_next(QueueEntry& out);
  /// The data queue after `q` in round-robin order.
  [[nodiscard]] std::int32_t next_data_queue(std::int32_t q) const {
    return q + 1 == num_data_queues() ? 0 : q + 1;
  }

  sim::Scheduler& sched_;
  PortOwner& owner_;
  std::int32_t index_;
  PortConfig cfg_;
  sim::LaneId prop_lane_;  // every arrival lands one propagation delay out
  // Transmit completions of frames whose serialization delay is a constant
  // of this port: a 64-byte (control-sized) frame, and a frame of full_bytes_
  // — the largest non-last frame of a flow the port has sent, a full MTU
  // (starts at the control frame size). A flow's last frame rides the full
  // lane only when it is exactly that size.
  sim::LaneId control_lane_;
  sim::LaneId full_lane_;
  std::int32_t full_bytes_ = kControlPacketBytes;
  Device* peer_ = nullptr;
  std::int32_t peer_port_ = -1;

  QueueEntry in_service_;     // the frame being serialized (while busy_)
  sim::Ring<Packet> wire_;    // serialized, propagating; arrival order
  FifoQueue control_queue_;
  std::vector<FifoQueue> data_queues_;
  std::vector<RedEcnMarker> markers_;
  std::int32_t rr_next_ = 0;

  bool busy_ = false;
  bool paused_ = false;
  bool link_up_ = true;
  double rate_factor_ = 1.0;

  std::int64_t tx_bytes_ = 0;
  std::int64_t tx_packets_ = 0;
  std::int64_t tx_marked_bytes_ = 0;
  std::int64_t tx_marked_packets_ = 0;
  std::int64_t dropped_packets_ = 0;
  std::vector<std::int64_t> tx_bytes_q_;
  std::vector<std::int64_t> tx_marked_bytes_q_;
};

}  // namespace pet::net
