#include "net/switch.hpp"

#include <algorithm>
#include <cassert>

#include "sim/rng.hpp"

namespace pet::net {

const std::vector<std::int32_t> SwitchDevice::kNoRoutes{};

SwitchDevice::SwitchDevice(sim::Scheduler& sched, DeviceId id,
                           std::string name, const SwitchConfig& cfg,
                           std::uint64_t seed)
    : Device(sched, id, std::move(name)),
      cfg_(cfg),
      ecmp_salt_(sim::derive_seed(seed, "ecmp")) {
  assert(cfg_.pfc_xon_bytes <= cfg_.pfc_xoff_bytes);
}

void SwitchDevice::set_routes(HostId dst, std::vector<std::int32_t> ports) {
  if (static_cast<std::size_t>(dst) >= routes_.size()) {
    routes_.resize(static_cast<std::size_t>(dst) + 1);
  }
  routes_[static_cast<std::size_t>(dst)] = std::move(ports);
}

void SwitchDevice::clear_routes() { routes_.clear(); }

const std::vector<std::int32_t>& SwitchDevice::routes(HostId dst) const {
  if (dst < 0 || static_cast<std::size_t>(dst) >= routes_.size()) {
    return kNoRoutes;
  }
  return routes_[static_cast<std::size_t>(dst)];
}

std::int32_t SwitchDevice::pick_ecmp_port(
    const std::vector<std::int32_t>& candidates, const Packet& pkt) const {
  const std::size_t n = candidates.size();
  if (n == 1) return candidates[0];
  // Flow-stable hash: keeps a flow on one path while spreading flows. A
  // power-of-two candidate count masks, which is exactly h % n.
  std::uint64_t h = pkt.flow_id ^ ecmp_salt_;
  h = sim::splitmix64(h);
  return candidates[(n & (n - 1)) == 0 ? h & (n - 1) : h % n];
}

void SwitchDevice::receive(Packet pkt, std::int32_t in_port) {
  if (pkt.is_link_local()) {
    // PFC frames act on the egress port attached to the link they came in on.
    port(in_port).set_paused(pkt.type == PacketType::kPfcPause);
    return;
  }

  const auto& candidates = routes(pkt.dst);
  if (candidates.empty()) {
    ++dropped_no_route_;
    return;
  }
  const std::int32_t out = pick_ecmp_port(candidates, pkt);

  if (pkt.is_control()) {
    // CNPs/ACKs ride the strict-priority control queue and are exempt from
    // shared-buffer and PFC accounting (they are tiny and must not deadlock).
    port(out).enqueue_control(QueueEntry{pkt, in_port});
    return;
  }

  if (buffer_used_ + pkt.size_bytes > cfg_.buffer_bytes) {
    ++dropped_buffer_full_;
    return;
  }
  buffer_used_ += pkt.size_bytes;
  if (in_port >= 0) {
    if (static_cast<std::size_t>(in_port) >= ingress_bytes_.size()) {
      ingress_bytes_.resize(static_cast<std::size_t>(in_port) + 1, 0);
      pause_sent_.resize(static_cast<std::size_t>(in_port) + 1, false);
    }
    ingress_bytes_[in_port] += pkt.size_bytes;
  }
  const std::int32_t queue_idx = classifier_ ? classifier_(pkt) : 0;
  for (const auto& [id, observer] : observers_) observer(pkt, out, queue_idx);
  port(out).enqueue(QueueEntry{pkt, in_port}, queue_idx);
  if (in_port >= 0) update_pfc(in_port);
}

void SwitchDevice::on_packet_departed(std::int32_t /*port*/,
                                      const QueueEntry& entry) {
  if (entry.pkt.is_control()) return;
  buffer_used_ -= entry.pkt.size_bytes;
  const std::int32_t ip = entry.ingress_port;
  if (ip >= 0 && static_cast<std::size_t>(ip) < ingress_bytes_.size()) {
    ingress_bytes_[ip] -= entry.pkt.size_bytes;
    update_pfc(ip);
  }
}

void SwitchDevice::update_pfc(std::int32_t in_port) {
  if (!cfg_.pfc_enabled) return;
  if (static_cast<std::size_t>(in_port) >= ingress_bytes_.size()) return;
  const std::int64_t used = ingress_bytes_[in_port];
  const bool sent = pause_sent_[in_port];
  if (!sent && used > cfg_.pfc_xoff_bytes) {
    pause_sent_[in_port] = true;
    ++pfc_pauses_sent_;
    send_pfc(in_port, /*pause=*/true);
  } else if (sent && used < cfg_.pfc_xon_bytes) {
    pause_sent_[in_port] = false;
    send_pfc(in_port, /*pause=*/false);
  }
}

void SwitchDevice::send_pfc(std::int32_t out_port, bool pause) {
  if (port(out_port).peer() == nullptr) return;
  Packet pfc;
  pfc.type = pause ? PacketType::kPfcPause : PacketType::kPfcResume;
  pfc.size_bytes = kControlPacketBytes;
  pfc.ecn_capable = false;
  port(out_port).enqueue_control(QueueEntry{pfc, -1});
}

EcnConfigSummary SwitchDevice::ecn_config_summary() const {
  EcnConfigSummary s;
  bool first = true;
  const RedEcnConfig* reference = nullptr;
  for (std::int32_t p = 0; p < num_ports(); ++p) {
    const auto& prt = port(p);
    for (std::int32_t q = 0; q < prt.num_data_queues(); ++q) {
      const RedEcnConfig& cfg = prt.ecn_config(q);
      ++s.queues;
      if (first) {
        s.kmin_min_bytes = s.kmin_max_bytes = cfg.kmin_bytes;
        s.kmax_min_bytes = s.kmax_max_bytes = cfg.kmax_bytes;
        s.pmax_min = s.pmax_max = cfg.pmax;
        reference = &cfg;
        first = false;
        continue;
      }
      s.kmin_min_bytes = std::min(s.kmin_min_bytes, cfg.kmin_bytes);
      s.kmin_max_bytes = std::max(s.kmin_max_bytes, cfg.kmin_bytes);
      s.kmax_min_bytes = std::min(s.kmax_min_bytes, cfg.kmax_bytes);
      s.kmax_max_bytes = std::max(s.kmax_max_bytes, cfg.kmax_bytes);
      s.pmax_min = std::min(s.pmax_min, cfg.pmax);
      s.pmax_max = std::max(s.pmax_max, cfg.pmax);
      if (!(cfg == *reference)) s.uniform = false;
    }
  }
  return s;
}

std::size_t SwitchDevice::install_ecn(const RedEcnConfig& cfg,
                                      const PortSelector& sel) {
  ++ecn_installs_;
  std::size_t touched = 0;
  for (std::int32_t p = 0; p < num_ports(); ++p) {
    if (!sel.matches_port(p)) continue;
    auto& prt = port(p);
    for (std::int32_t q = 0; q < prt.num_data_queues(); ++q) {
      if (!sel.matches_queue(q)) continue;
      prt.set_ecn_config(q, cfg);
      ++touched;
    }
  }
  return touched;
}

}  // namespace pet::net
