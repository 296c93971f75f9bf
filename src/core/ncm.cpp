#include "core/ncm.hpp"

#include <algorithm>

#include "sim/sorted_keys.hpp"

namespace pet::core {

Ncm::Ncm(sim::Scheduler& sched, net::SwitchDevice& sw, const NcmConfig& cfg)
    : sched_(sched), sw_(sw), cfg_(cfg), last_sample_(sched.now()) {
  observer_handle_ = sw_.add_forward_observer(
      [this](const net::Packet& pkt, std::int32_t port,
             std::int32_t queue_idx) { on_forward(pkt, port, queue_idx); });
  const std::int32_t n = sw_.num_ports();
  last_tx_bytes_.assign(static_cast<std::size_t>(n), 0);
  last_tx_marked_.assign(static_cast<std::size_t>(n), 0);
  const std::int32_t q = std::max(0, cfg_.queue_index);
  for (std::int32_t p = 0; p < n; ++p) {
    last_tx_bytes_[p] = scoped_tx_bytes(p);
    last_tx_marked_[p] = scoped_tx_marked(p);
    if (q < sw_.port(p).num_data_queues()) {
      sw_.port(p).track_occupancy(true, q);
    }
  }
}

Ncm::~Ncm() { sw_.remove_forward_observer(observer_handle_); }

std::int64_t Ncm::scoped_tx_bytes(std::int32_t port) const {
  return cfg_.queue_index < 0
             ? sw_.port(port).tx_bytes()
             : sw_.port(port).tx_bytes_queue(cfg_.queue_index);
}

std::int64_t Ncm::scoped_tx_marked(std::int32_t port) const {
  return cfg_.queue_index < 0
             ? sw_.port(port).tx_marked_bytes()
             : sw_.port(port).tx_marked_bytes_queue(cfg_.queue_index);
}

void Ncm::on_forward(const net::Packet& pkt, std::int32_t /*out_port*/,
                     std::int32_t queue_idx) {
  if (cfg_.queue_index >= 0 && queue_idx != cfg_.queue_index) return;
  ++slot_packets_;
  dst_srcs_[pkt.dst].insert(pkt.src);
  slot_flows_.insert(pkt.flow_id);
  FlowInfo& info = flows_[pkt.flow_id];
  info.bytes += pkt.payload_bytes;
  info.last_seen_slot = slot_index_;
  if (flows_.size() > cfg_.max_tracked_flows ||
      dst_srcs_.size() > cfg_.max_tracked_dsts) {
    threshold_cleanup();
  }
}

NcmSnapshot Ncm::sample() {
  const sim::Time now = sched_.now();
  NcmSnapshot snap;
  snap.window = now - last_sample_;
  const double window_sec = std::max(1e-12, snap.window.sec());

  // --- port statistics: the bottleneck (max) port defines the signals -----
  double max_qlen = 0.0;
  double max_avg_qlen = 0.0;
  double max_util = 0.0;
  double max_marked = 0.0;
  const std::int32_t scoped_q = std::max(0, cfg_.queue_index);
  for (std::int32_t p = 0; p < sw_.num_ports(); ++p) {
    auto& port = sw_.port(p);
    if (scoped_q >= port.num_data_queues()) continue;
    max_qlen = std::max(
        max_qlen, static_cast<double>(cfg_.queue_index < 0
                                          ? port.total_queue_bytes()
                                          : port.queue_bytes(cfg_.queue_index)));
    const auto& occ = port.occupancy(scoped_q);
    max_avg_qlen = std::max(max_avg_qlen, occ.mean());
    port.reset_occupancy(scoped_q);

    const double cap_bytes =
        static_cast<double>(port.rate().bps()) / 8.0 * window_sec;
    const double tx =
        static_cast<double>(scoped_tx_bytes(p) - last_tx_bytes_[p]);
    const double marked =
        static_cast<double>(scoped_tx_marked(p) - last_tx_marked_[p]);
    last_tx_bytes_[p] = scoped_tx_bytes(p);
    last_tx_marked_[p] = scoped_tx_marked(p);
    if (cap_bytes > 0.0) {
      max_util = std::max(max_util, tx / cap_bytes);
      max_marked = std::max(max_marked, marked / cap_bytes);
    }
  }
  snap.qlen_bytes = max_qlen;
  snap.avg_qlen_bytes = max_avg_qlen;
  snap.utilization = std::min(1.0, max_util);
  snap.marked_ratio = std::min(1.0, max_marked);

  // --- derived factors ------------------------------------------------------
  std::size_t max_fan_in = 0;
  // pet-lint: allow(nondet-iteration): order-insensitive max reduction
  for (const auto& [dst, srcs] : dst_srcs_) {
    max_fan_in = std::max(max_fan_in, srcs.size());
  }
  snap.incast_degree = static_cast<double>(max_fan_in);

  std::int64_t mice = 0;
  std::int64_t elephants = 0;
  // pet-lint: allow(nondet-iteration): order-insensitive counting reduction
  for (const net::FlowId id : slot_flows_) {
    const auto it = flows_.find(id);
    if (it == flows_.end()) continue;  // evicted by threshold cleanup
    if (it->second.bytes > cfg_.elephant_threshold_bytes) {
      ++elephants;
    } else {
      ++mice;
    }
  }
  snap.flows_seen = mice + elephants;
  snap.mice_ratio = snap.flows_seen > 0
                        ? static_cast<double>(mice) /
                              static_cast<double>(snap.flows_seen)
                        : 1.0;
  snap.packets_seen = slot_packets_;

  // --- scheduled cleanup: drop the slot accumulators and expired flows ----
  scheduled_cleanup();
  last_sample_ = now;
  ++slot_index_;
  return snap;
}

void Ncm::scheduled_cleanup() {
  dst_srcs_.clear();
  slot_flows_.clear();
  slot_packets_ = 0;
  const std::int64_t expiry = slot_index_ - cfg_.flow_expiry_slots;
  // pet-lint: allow(nondet-iteration): full predicate erase — every expired
  // entry goes, so the final table is order-independent
  for (auto it = flows_.begin(); it != flows_.end();) {
    if (it->second.last_seen_slot < expiry) {
      it = flows_.erase(it);
    } else {
      ++it;
    }
  }
}

void Ncm::threshold_cleanup() {
  // Memory pressure inside a slot (e.g. an incast burst): evict the stalest
  // half of the flow table and the largest sender sets' excess.
  // Both evictions below stop at a size threshold, so visit order decides
  // who survives — iterate sorted key views, never hash-bucket order (the
  // surviving state feeds NcmSnapshot and from there agent actions).
  if (flows_.size() > cfg_.max_tracked_flows) {
    const std::int64_t cutoff = slot_index_ - 1;
    for (const net::FlowId id : sim::sorted_keys(flows_)) {
      if (flows_.size() <= cfg_.max_tracked_flows / 2) break;
      const auto it = flows_.find(id);
      if (it != flows_.end() && it->second.last_seen_slot < cutoff) {
        flows_.erase(it);
      }
    }
  }
  if (dst_srcs_.size() > cfg_.max_tracked_dsts) {
    // Sender sets are slot-scoped; dropping the smallest keeps the
    // incast-degree maximum intact with bounded memory.
    std::size_t max_size = 0;
    // pet-lint: allow(nondet-iteration): order-insensitive max reduction
    for (const auto& [dst, srcs] : dst_srcs_) {
      max_size = std::max(max_size, srcs.size());
    }
    for (const net::HostId dst : sim::sorted_keys(dst_srcs_)) {
      if (dst_srcs_.size() <= cfg_.max_tracked_dsts / 2) break;
      const auto it = dst_srcs_.find(dst);
      if (it != dst_srcs_.end() && it->second.size() < max_size) {
        dst_srcs_.erase(it);
      }
    }
  }
}

}  // namespace pet::core
