#include "core/ncm.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace pet::core {

Ncm::Ncm(sim::Scheduler& sched, net::SwitchDevice& sw, const NcmConfig& cfg,
         NcmTracking tracking)
    : sched_(sched),
      sw_(sw),
      cfg_(cfg),
      tracking_(tracking),
      last_sample_(sched.now()) {
  if (tracking_.any()) {
    observer_handle_ = sw_.add_forward_observer(
        [this](const net::Packet& pkt, std::int32_t /*out_port*/,
               std::int32_t queue_idx) { on_forward(pkt, queue_idx); });
  }
  if (tracking_.flows) rebuild_flow_index(16);
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

Ncm::~Ncm() {
  if (observer_handle_ != 0) sw_.remove_forward_observer(observer_handle_);
}

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

void Ncm::on_forward(const net::Packet& pkt, std::int32_t queue_idx) {
  if (cfg_.queue_index >= 0 && queue_idx != cfg_.queue_index) return;
  if (tracking_.packets) ++slot_packets_;
  if (tracking_.senders) {
    add_sender(pkt.dst, pkt.src);
    if (slot_dsts_.size() > cfg_.max_tracked_dsts) trim_senders();
  }
  if (tracking_.flows) {
    add_flow_bytes(pkt.flow_id, pkt.payload_bytes);
    if (flows_.size() > cfg_.max_tracked_flows) trim_flows();
  }
}

void Ncm::add_sender(net::HostId dst, net::HostId src) {
  assert(dst >= 0 && src >= 0);
  const auto d = static_cast<std::size_t>(dst);
  const auto s = static_cast<std::size_t>(src);
  if (s / 64 >= sender_words_) widen_sender_rows(s / 64 + 1);
  if (d >= fan_in_.size()) {
    fan_in_.resize(d + 1, 0);
    sender_bits_.resize((d + 1) * sender_words_, 0);
  }
  std::uint64_t& word = sender_bits_[d * sender_words_ + s / 64];
  const std::uint64_t bit = std::uint64_t{1} << (s % 64);
  if ((word & bit) != 0) return;
  word |= bit;
  if (fan_in_[d]++ == 0) slot_dsts_.push_back(dst);
}

void Ncm::widen_sender_rows(std::size_t words) {
  std::vector<std::uint64_t> wider(fan_in_.size() * words, 0);
  for (std::size_t d = 0; d < fan_in_.size(); ++d) {
    std::copy_n(sender_bits_.begin() + static_cast<std::ptrdiff_t>(d * sender_words_),
                sender_words_,
                wider.begin() + static_cast<std::ptrdiff_t>(d * words));
  }
  sender_bits_ = std::move(wider);
  sender_words_ = words;
}

void Ncm::clear_sender_row(std::size_t dst) {
  std::fill_n(sender_bits_.begin() + static_cast<std::ptrdiff_t>(dst * sender_words_),
              sender_words_, 0);
  fan_in_[dst] = 0;
}

std::size_t Ncm::flow_slot(net::FlowId id) const {
  // Fibonacci hashing spreads sequential flow ids across the index.
  return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ULL) >>
                                  flow_index_shift_);
}

void Ncm::add_flow_bytes(net::FlowId id, std::int64_t bytes) {
  const std::size_t mask = flow_index_.size() - 1;
  std::size_t slot = flow_slot(id);
  while (flow_index_[slot] != 0) {
    FlowInfo& info = flows_[flow_index_[slot] - 1];
    if (info.id == id) {
      info.bytes += bytes;
      info.last_seen_slot = slot_index_;
      return;
    }
    slot = (slot + 1) & mask;
  }
  flows_.push_back(
      FlowInfo{.id = id, .bytes = bytes, .last_seen_slot = slot_index_});
  flow_index_[slot] = static_cast<std::uint32_t>(flows_.size());
  // Keep the index at most half full.
  if (2 * flows_.size() > flow_index_.size()) {
    rebuild_flow_index(2 * flow_index_.size());
  }
}

void Ncm::rebuild_flow_index(std::size_t capacity) {
  assert(std::has_single_bit(capacity));
  flow_index_.assign(capacity, 0);
  flow_index_shift_ = 64 - std::countr_zero(capacity);
  const std::size_t mask = capacity - 1;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    std::size_t slot = flow_slot(flows_[i].id);
    while (flow_index_[slot] != 0) slot = (slot + 1) & mask;
    flow_index_[slot] = static_cast<std::uint32_t>(i + 1);
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

  // --- derived factors, then the scheduled cleanup: drop the slot's
  // sender sets and packet count, and expire idle flows -------------------
  std::int32_t max_fan_in = 0;
  for (const net::HostId dst : slot_dsts_) {
    const auto d = static_cast<std::size_t>(dst);
    max_fan_in = std::max(max_fan_in, fan_in_[d]);
    clear_sender_row(d);
  }
  slot_dsts_.clear();
  snap.incast_degree = static_cast<double>(max_fan_in);

  std::int64_t mice = 0;
  std::int64_t elephants = 0;
  const std::int64_t expiry = slot_index_ - cfg_.flow_expiry_slots;
  std::size_t kept = 0;
  for (const FlowInfo& info : flows_) {
    if (info.last_seen_slot == slot_index_) {
      ++(info.bytes > cfg_.elephant_threshold_bytes ? elephants : mice);
    }
    if (info.last_seen_slot >= expiry) flows_[kept++] = info;
  }
  if (kept != flows_.size()) {
    flows_.resize(kept);
    rebuild_flow_index(flow_index_.size());
  }
  snap.flows_seen = mice + elephants;
  snap.mice_ratio = snap.flows_seen > 0
                        ? static_cast<double>(mice) /
                              static_cast<double>(snap.flows_seen)
                        : 1.0;
  snap.packets_seen = slot_packets_;
  slot_packets_ = 0;

  last_sample_ = now;
  ++slot_index_;
  return snap;
}

void Ncm::trim_flows() {
  // Evict flows idle since before the previous slot until the table is
  // half its bound. The eviction stops at a size, so visit order decides
  // who survives: visit in ascending flow id (the surviving state feeds
  // NcmSnapshot and from there agent actions).
  const std::int64_t cutoff = slot_index_ - 1;
  std::vector<std::uint32_t> order(flows_.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  std::sort(order.begin(), order.end(), [this](std::uint32_t a,
                                               std::uint32_t b) {
    return flows_[a].id < flows_[b].id;
  });
  std::vector<bool> evict(flows_.size(), false);
  std::size_t live = flows_.size();
  for (const std::uint32_t i : order) {
    if (live <= cfg_.max_tracked_flows / 2) break;
    if (flows_[i].last_seen_slot < cutoff) {
      evict[i] = true;
      --live;
    }
  }
  if (live == flows_.size()) return;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (!evict[i]) flows_[kept++] = flows_[i];
  }
  flows_.resize(kept);
  rebuild_flow_index(flow_index_.size());
}

void Ncm::trim_senders() {
  // Sender sets are slot-scoped; dropping the ones smaller than the
  // largest keeps the incast-degree maximum intact with bounded memory.
  // Destinations are visited in ascending order, as for flows.
  std::int32_t max_size = 0;
  for (const net::HostId dst : slot_dsts_) {
    max_size = std::max(max_size, fan_in_[static_cast<std::size_t>(dst)]);
  }
  std::sort(slot_dsts_.begin(), slot_dsts_.end());
  std::size_t live = slot_dsts_.size();
  for (const net::HostId dst : slot_dsts_) {
    if (live <= cfg_.max_tracked_dsts / 2) break;
    const auto d = static_cast<std::size_t>(dst);
    if (fan_in_[d] < max_size) {
      clear_sender_row(d);
      --live;
    }
  }
  std::erase_if(slot_dsts_, [this](net::HostId dst) {
    return fan_in_[static_cast<std::size_t>(dst)] == 0;
  });
}

}  // namespace pet::core
