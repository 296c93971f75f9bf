#include "net/host.hpp"

#include <algorithm>
#include <cassert>

#include "net/red_ecn.hpp"

namespace pet::net {

HostDevice::HostDevice(sim::Scheduler& sched, DeviceId id, HostId host_id,
                       std::string name, const PortConfig& nic_cfg)
    : Device(sched, id, std::move(name)), host_id_(host_id) {
  const std::int32_t nic = add_port(nic_cfg);
  assert(nic == 0);
  (void)nic;
  // Hosts never ECN-mark their own egress.
  // pet-lint: allow(unaudited-ecn): NIC marking is disabled once at
  // construction; hosts are not an agent actuation surface and expose no
  // install_ecn entry point
  port(0).set_ecn_config(0, RedEcnConfig{.kmin_bytes = 0,
                                         .kmax_bytes = 1LL << 60,
                                         .pmax = 0.0});
}

void HostDevice::register_source(FlowSource* src) {
  assert(src != nullptr);
  sources_.push_back(src);
  kick();
}

void HostDevice::deregister_source(FlowSource* src) {
  const auto it = std::find(sources_.begin(), sources_.end(), src);
  if (it == sources_.end()) return;
  const auto idx = static_cast<std::size_t>(it - sources_.begin());
  sources_.erase(it);
  if (rr_next_ > idx) --rr_next_;
  if (!sources_.empty()) rr_next_ %= sources_.size();
}

void HostDevice::notify_source_ready() { kick(); }

void HostDevice::send_control(Packet pkt) {
  pkt.sent_at = sched_.now();
  port(0).enqueue_control(QueueEntry{pkt, -1});
}

void HostDevice::receive(Packet pkt, std::int32_t in_port) {
  if (pkt.is_link_local()) {
    const bool pause = (pkt.type == PacketType::kPfcPause);
    port(in_port).set_paused(pause);
    // On resume the queue may be empty (kick() is gated while paused), so
    // the scheduler needs an explicit wake-up.
    if (!pause) kick();
    return;
  }
  if (app_ != nullptr) app_->on_receive(pkt);
}

void HostDevice::on_packet_departed(std::int32_t /*port*/,
                                    const QueueEntry& /*entry*/) {
  kick();
}

void HostDevice::kick() {
  if (pending_kick_.valid()) {
    sched_.cancel(pending_kick_);
    pending_kick_ = sim::EventId{};
  }
  // Emit exactly one packet at a time, only when the transmitter is free:
  // the departure callback pulls the next ready flow, so round-robin
  // rotates per packet and no NIC queue builds up.
  if (port(0).busy() || port(0).queue_bytes(0) > 0 || port(0).paused()) return;

  const sim::Time now = sched_.now();
  const std::size_t n = sources_.size();
  assert(n == 0 || rr_next_ < n);
  const auto after = [n](std::size_t idx) {
    return idx + 1 == n ? 0 : idx + 1;
  };
  sim::Time earliest = sim::Time::max();
  for (std::size_t i = 0, idx = rr_next_; i < n; ++i, idx = after(idx)) {
    FlowSource* src = sources_[idx];
    if (!src->has_data()) continue;
    const sim::Time ready = src->next_emit_time();
    if (ready <= now) {
      rr_next_ = after(idx);
      Packet pkt = src->emit(now);
      pkt.sent_at = now;
      ++emitted_packets_;
      port(0).enqueue(QueueEntry{pkt, -1}, 0);
      return;
    }
    earliest = std::min(earliest, ready);
  }
  if (earliest != sim::Time::max()) {
    // A fired kick clears its own handle, so kick() cancels only a kick
    // that is still pending.
    pending_kick_ = sched_.schedule_at(
        earliest,
        [this] {
          pending_kick_ = sim::EventId{};
          kick();
        },
        "net.host-kick");
  }
}

}  // namespace pet::net
