#include "net/port.hpp"

#include "net/device.hpp"
#include "sim/log.hpp"
#include "sim/rng.hpp"

namespace pet::net {

EgressPort::EgressPort(sim::Scheduler& sched, PortOwner& owner,
                       std::int32_t index, const PortConfig& cfg)
    : sched_(sched),
      owner_(owner),
      index_(index),
      cfg_(cfg),
      prop_lane_(sched.lane(cfg.propagation_delay)),
      control_lane_(
          sched.lane(cfg.rate.serialization_time(kControlPacketBytes))),
      full_lane_(control_lane_),
      marker_(sim::derive_seed(cfg.seed, "red")) {}

void EgressPort::enqueue(QueueEntry entry) {
  if (entry.pkt.ecn_capable && !entry.pkt.ce_marked &&
      marker_.should_mark(data_queue_.bytes())) {
    entry.pkt.ce_marked = true;
  }
  data_queue_.push(entry, sched_.now());
  try_transmit();
}

void EgressPort::enqueue_control(QueueEntry entry) {
  control_queue_.push(entry, sched_.now());
  try_transmit();
}

void EgressPort::set_paused(bool paused) {
  if (paused_ == paused) return;
  paused_ = paused;
  if (!paused_) try_transmit();
}

void EgressPort::set_link_up(bool up) {
  if (link_up_ == up) return;
  link_up_ = up;
  if (link_up_) try_transmit();
}

void EgressPort::set_ecn_config(const RedEcnConfig& cfg) {
  if (!cfg.valid()) {
    // An agent action (or a buggy tuner) produced inconsistent thresholds:
    // install the nearest valid configuration instead of the garbage one.
    const RedEcnConfig fixed = cfg.clamped();
    PET_LOG_WARN(sched_,
                 "port %d: invalid ECN config kmin=%lld kmax=%lld "
                 "pmax=%g clamped to kmin=%lld kmax=%lld pmax=%g",
                 index_, static_cast<long long>(cfg.kmin_bytes),
                 static_cast<long long>(cfg.kmax_bytes), cfg.pmax,
                 static_cast<long long>(fixed.kmin_bytes),
                 static_cast<long long>(fixed.kmax_bytes), fixed.pmax);
    marker_.set_config(fixed);
    return;
  }
  marker_.set_config(cfg);
}

std::int64_t EgressPort::total_queue_bytes() const {
  return control_queue_.bytes() + data_queue_.bytes();
}

bool EgressPort::pick_next(QueueEntry& out) {
  const sim::Time now = sched_.now();
  // Control traffic is strict-priority and PFC-exempt.
  if (control_queue_.pop(out, now)) return true;
  return !paused_ && data_queue_.pop(out, now);
}

void EgressPort::try_transmit() {
  if (busy_ || !link_up_ || !pick_next(in_service_)) return;
  busy_ = true;
  const std::int32_t bytes = in_service_.pkt.size_bytes;
  if (bytes == kControlPacketBytes) {
    sched_.post_on<&EgressPort::finish_transmit>(control_lane_, this, "net.tx");
  } else if (bytes == full_bytes_ ||
             (bytes > full_bytes_ && !in_service_.pkt.last_of_flow)) {
    if (bytes != full_bytes_) {
      // Only a flow's non-last frame, a full MTU, moves the lane, so a port
      // takes one full-size lane however its tail frames are sized.
      full_bytes_ = bytes;
      full_lane_ = sched_.lane(cfg_.rate.serialization_time(bytes));
    }
    sched_.post_on<&EgressPort::finish_transmit>(full_lane_, this, "net.tx");
  } else {  // a flow's tail frame
    sched_.schedule_at(sched_.now() + cfg_.rate.serialization_time(bytes),
                       [this] { finish_transmit(); }, "net.tx");
  }
}

void EgressPort::finish_transmit() {
  busy_ = false;
  // The owner may start this port's next frame from on_packet_departed (a
  // host NIC pulls its next packet), so keep the departed one.
  const QueueEntry entry = in_service_;
  tx_bytes_ += entry.pkt.size_bytes;
  ++tx_packets_;
  if (entry.pkt.ce_marked) {
    tx_marked_bytes_ += entry.pkt.size_bytes;
    ++tx_marked_packets_;
  }
  owner_.on_packet_departed(index_, entry);
  if (link_up_ && peer_ != nullptr) {
    // Every arrival of this port rides prop_lane_, which is FIFO, so they
    // pop in departure order: the wire's front is always the one due.
    wire_.push_back(entry.pkt);
    sched_.post_on<&EgressPort::arrive>(prop_lane_, this, "net.prop");
  } else {
    ++dropped_packets_;
  }
  try_transmit();
}

void EgressPort::arrive() {
  const Packet pkt = wire_.front();
  wire_.pop_front();
  peer_->receive(pkt, peer_port_);
}

}  // namespace pet::net
