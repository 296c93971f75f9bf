#include "net/port.hpp"

#include <cassert>

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
      full_lane_(control_lane_) {
  assert(cfg.num_data_queues >= 1);
  data_queues_.resize(static_cast<std::size_t>(cfg.num_data_queues));
  tx_bytes_q_.assign(static_cast<std::size_t>(cfg.num_data_queues), 0);
  tx_marked_bytes_q_.assign(static_cast<std::size_t>(cfg.num_data_queues), 0);
  markers_.reserve(static_cast<std::size_t>(cfg.num_data_queues));
  for (std::int32_t q = 0; q < cfg.num_data_queues; ++q) {
    markers_.emplace_back(sim::derive_seed(cfg.seed, "red") + static_cast<std::uint64_t>(q));
  }
}

void EgressPort::enqueue(QueueEntry entry, std::int32_t queue_idx) {
  assert(queue_idx >= 0 && queue_idx < num_data_queues());
  auto& queue = data_queues_[queue_idx];
  if (entry.pkt.ecn_capable && !entry.pkt.ce_marked &&
      markers_[queue_idx].should_mark(queue.bytes())) {
    entry.pkt.ce_marked = true;
  }
  entry.queue_idx = queue_idx;
  queue.push(entry, sched_.now());
  try_transmit();
}

void EgressPort::enqueue_control(QueueEntry entry) {
  entry.queue_idx = -1;
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

void EgressPort::set_ecn_config(std::int32_t queue_idx, const RedEcnConfig& cfg) {
  if (!cfg.valid()) {
    // An agent action (or a buggy tuner) produced inconsistent thresholds:
    // install the nearest valid configuration instead of the garbage one.
    const RedEcnConfig fixed = cfg.clamped();
    PET_LOG_WARN(sched_,
                 "port %d queue %d: invalid ECN config kmin=%lld kmax=%lld "
                 "pmax=%g clamped to kmin=%lld kmax=%lld pmax=%g",
                 index_, queue_idx, static_cast<long long>(cfg.kmin_bytes),
                 static_cast<long long>(cfg.kmax_bytes), cfg.pmax,
                 static_cast<long long>(fixed.kmin_bytes),
                 static_cast<long long>(fixed.kmax_bytes), fixed.pmax);
    markers_[queue_idx].set_config(fixed);
    return;
  }
  markers_[queue_idx].set_config(cfg);
}

const RedEcnConfig& EgressPort::ecn_config(std::int32_t queue_idx) const {
  return markers_[queue_idx].config();
}

std::int64_t EgressPort::total_queue_bytes() const {
  std::int64_t total = control_queue_.bytes();
  for (const auto& q : data_queues_) total += q.bytes();
  return total;
}

void EgressPort::track_occupancy(bool enabled, std::int32_t queue_idx) {
  data_queues_[queue_idx].track_occupancy(enabled, sched_.now());
}

const sim::TimeWeightedStats& EgressPort::occupancy(std::int32_t queue_idx) {
  return data_queues_[queue_idx].occupancy(sched_.now());
}

void EgressPort::reset_occupancy(std::int32_t queue_idx) {
  data_queues_[queue_idx].reset_occupancy(sched_.now());
}

bool EgressPort::pick_next(QueueEntry& out) {
  const sim::Time now = sched_.now();
  // Control traffic is strict-priority and PFC-exempt.
  if (control_queue_.pop(out, now)) return true;
  if (paused_) return false;
  // Round-robin over data queues.
  const std::int32_t n = num_data_queues();
  std::int32_t q = rr_next_;
  for (std::int32_t i = 0; i < n; ++i, q = next_data_queue(q)) {
    if (data_queues_[q].pop(out, now)) {
      rr_next_ = next_data_queue(q);
      return true;
    }
  }
  return false;
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
  if (entry.queue_idx >= 0) tx_bytes_q_[entry.queue_idx] += entry.pkt.size_bytes;
  if (entry.pkt.ce_marked) {
    tx_marked_bytes_ += entry.pkt.size_bytes;
    ++tx_marked_packets_;
    if (entry.queue_idx >= 0) {
      tx_marked_bytes_q_[entry.queue_idx] += entry.pkt.size_bytes;
    }
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
