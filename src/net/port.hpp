#pragma once
// Egress port: per-port transmitter with one control queue (strict priority,
// PFC-exempt) and one data queue (RED/ECN-marked, PFC-pausable).
//
// A port owns its in-flight packets: the frame it is serializing and a FIFO
// of the packets propagating on its link. Both per-hop events — transmit
// complete, then arrival at the peer — are record-free scheduler items that
// name only the port (sim::Scheduler::post_on); a transmit completion falls
// back to a heap event only for a flow's tail frame, whose delay is not a
// lane constant.
//
// A port has one fault: a downed link drops each frame that finishes
// serialization while it is down. Delivery depends on link state and the
// peer alone.

#include <cstdint>
#include <memory>
#include <string>

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
  std::uint64_t seed = 1;  // for the RED marker
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

  /// Enqueue a data packet; it is CE-marked here if the RED/ECN rule fires
  /// on the data queue's instantaneous length.
  void enqueue(QueueEntry entry);

  /// Enqueue a control packet (CNP/PFC); strict priority, never paused.
  void enqueue_control(QueueEntry entry);

  /// PFC pause state (data queue only).
  void set_paused(bool paused);
  [[nodiscard]] bool paused() const { return paused_; }

  /// Is a packet currently being serialized?
  [[nodiscard]] bool busy() const { return busy_; }

  /// Administrative/failure link state. Packets serialized onto a downed
  /// link are dropped at the far end of serialization.
  void set_link_up(bool up);
  [[nodiscard]] bool link_up() const { return link_up_; }

  /// Always zero: the port has no loss or corruption faults, and
  /// dropped_packets() counts every undelivered frame. Kept only because
  /// the frozen scenario benchmark reads them (ROADMAP item 12 deletes them).
  [[nodiscard]] std::int64_t fault_dropped_packets() const { return 0; }
  [[nodiscard]] std::int64_t fault_corrupted_packets() const { return 0; }
  [[nodiscard]] std::int64_t burst_dropped_packets() const { return 0; }

  /// Runtime-adjustable ECN marking configuration (the agents' actuator).
  /// Invalid configurations are clamped to the nearest valid one and logged
  /// at WARN rather than installed verbatim.
  void set_ecn_config(const RedEcnConfig& cfg);
  [[nodiscard]] const RedEcnConfig& ecn_config() const {
    return marker_.config();
  }

  // --- observability -------------------------------------------------------
  [[nodiscard]] std::int64_t queue_bytes() const { return data_queue_.bytes(); }
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

  /// Occupancy tracking of the data queue.
  void track_occupancy(bool enabled) {
    data_queue_.track_occupancy(enabled, sched_.now());
  }
  [[nodiscard]] const sim::TimeWeightedStats& occupancy() {
    return data_queue_.occupancy(sched_.now());
  }
  void reset_occupancy() { data_queue_.reset_occupancy(sched_.now()); }

 private:
  /// Start serializing the next frame into in_service_, if idle: a
  /// record-free lane item when its delay is a lane constant, else (a
  /// flow's tail frame) a heap event.
  void try_transmit();
  void finish_transmit();
  /// The front packet of the wire reaches the peer.
  void arrive();
  [[nodiscard]] bool pick_next(QueueEntry& out);

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
  FifoQueue data_queue_;
  RedEcnMarker marker_;

  bool busy_ = false;
  bool paused_ = false;
  bool link_up_ = true;

  std::int64_t tx_bytes_ = 0;
  std::int64_t tx_packets_ = 0;
  std::int64_t tx_marked_bytes_ = 0;
  std::int64_t tx_marked_packets_ = 0;
  std::int64_t dropped_packets_ = 0;
};

}  // namespace pet::net
