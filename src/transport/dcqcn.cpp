#include "transport/dcqcn.hpp"

#include <algorithm>
#include <cassert>

namespace pet::transport {

namespace {
[[nodiscard]] sim::Time pacing_gap(std::int64_t wire_bytes, double rate_bps) {
  return sim::Time(static_cast<std::int64_t>(
      static_cast<double>(wire_bytes) * 8.0 * 1e12 / rate_bps));
}
}  // namespace

// ---------------------------------------------------------------------------
// DcqcnSender (RP)
// ---------------------------------------------------------------------------

DcqcnSender::DcqcnSender(sim::Scheduler& sched, net::HostDevice& host,
                         const FlowSpec& spec, const DcqcnConfig& cfg)
    : sched_(sched),
      host_(host),
      spec_(spec),
      cfg_(cfg),
      remaining_(spec.size_bytes),
      next_emit_(sched.now()),
      line_rate_bps_(static_cast<double>(host.nic_rate().bps())),
      min_rate_bps_(line_rate_bps_ * cfg.min_rate_fraction),
      rate_bps_(line_rate_bps_),
      target_bps_(line_rate_bps_),
      alpha_lane_(sched.lane(cfg.alpha_timer)),
      increase_lane_(sched.lane(cfg.increase_timer)) {
  assert(spec.size_bytes > 0);
  arm_alpha_timer();
  arm_increase_timer();
  host_.register_source(this);
  registered_ = true;
}

DcqcnSender::~DcqcnSender() { stop(); }

void DcqcnSender::stop() {
  if (alpha_ev_.valid()) sched_.cancel(alpha_ev_);
  if (increase_ev_.valid()) sched_.cancel(increase_ev_);
  if (deregister_ev_.valid()) sched_.cancel(deregister_ev_);
  alpha_ev_ = sim::EventId{};
  increase_ev_ = sim::EventId{};
  deregister_ev_ = sim::EventId{};
  if (registered_) {
    host_.deregister_source(this);
    registered_ = false;
  }
}

net::Packet DcqcnSender::emit(sim::Time now) {
  assert(remaining_ > 0);
  const std::int32_t payload = static_cast<std::int32_t>(
      std::min<std::int64_t>(cfg_.mtu_bytes, remaining_));
  remaining_ -= payload;

  net::Packet pkt;
  pkt.flow_id = spec_.id;
  pkt.src = spec_.src;
  pkt.dst = spec_.dst;
  pkt.type = net::PacketType::kData;
  pkt.payload_bytes = payload;
  pkt.size_bytes = payload + cfg_.header_bytes;
  pkt.seq = seq_++;
  pkt.ecn_capable = true;
  pkt.last_of_flow = (remaining_ == 0);

  next_emit_ = now + pacing_gap(pkt.size_bytes, rate_bps_);

  // RP byte counter: an increase event per cfg_.byte_counter bytes sent.
  bytes_counted_ += pkt.size_bytes;
  if (bytes_counted_ >= cfg_.byte_counter) {
    bytes_counted_ -= cfg_.byte_counter;
    ++byte_stage_;
    do_increase();
  }

  if (remaining_ == 0) {
    // Emission done: timers and NIC registration are no longer needed.
    // Deregistration is deferred to a zero-delay event because emit() is
    // called from inside the NIC scheduling loop.
    if (alpha_ev_.valid()) sched_.cancel(alpha_ev_);
    if (increase_ev_.valid()) sched_.cancel(increase_ev_);
    alpha_ev_ = sim::EventId{};
    increase_ev_ = sim::EventId{};
    deregister_ev_ = sched_.schedule_in(
        sim::Time(0),
        [this] {
          deregister_ev_ = sim::EventId{};
          if (registered_) {
            host_.deregister_source(this);
            registered_ = false;
          }
        },
        "transport.deregister");
  }
  return pkt;
}

void DcqcnSender::on_cnp(sim::Time now) {
  ++cnps_received_;
  cut_rate(now);
}

void DcqcnSender::cut_rate(sim::Time /*now*/) {
  // Zhu et al.: cut with the *current* alpha, then push alpha toward 1.
  target_bps_ = rate_bps_;
  rate_bps_ *= (1.0 - alpha_ / 2.0);
  alpha_ = (1.0 - cfg_.gain) * alpha_ + cfg_.gain;
  clamp_rates();
  timer_stage_ = 0;
  byte_stage_ = 0;
  bytes_counted_ = 0;
  arm_alpha_timer();
  arm_increase_timer();
}

void DcqcnSender::do_increase() {
  const std::int32_t stage = timer_stage_ + byte_stage_;
  if (stage <= cfg_.fast_recovery_stages) {
    // Fast recovery toward the pre-cut target.
  } else if (stage <= 2 * cfg_.fast_recovery_stages) {
    target_bps_ += cfg_.rate_ai_bps;  // additive probe
  } else {
    target_bps_ += cfg_.rate_hai_bps;  // hyper increase
  }
  rate_bps_ = (target_bps_ + rate_bps_) / 2.0;
  clamp_rates();
}

void DcqcnSender::clamp_rates() {
  rate_bps_ = std::clamp(rate_bps_, min_rate_bps_, line_rate_bps_);
  target_bps_ = std::clamp(target_bps_, min_rate_bps_, line_rate_bps_);
}

void DcqcnSender::arm_alpha_timer() {
  if (alpha_ev_.valid()) sched_.cancel(alpha_ev_);
  alpha_ev_ = sched_.schedule_on(
      alpha_lane_,
      [this] {
        alpha_ *= (1.0 - cfg_.gain);
        arm_alpha_timer();
      },
      "transport.alpha");
}

void DcqcnSender::arm_increase_timer() {
  if (increase_ev_.valid()) sched_.cancel(increase_ev_);
  increase_ev_ = sched_.schedule_on(
      increase_lane_,
      [this] {
        ++timer_stage_;
        do_increase();
        arm_increase_timer();
      },
      "transport.increase");
}

// ---------------------------------------------------------------------------
// RdmaTransport
// ---------------------------------------------------------------------------

RdmaTransport::RdmaTransport(net::Network& net, const DcqcnConfig& cfg,
                             FctRecorder* recorder)
    : net_(net), cfg_(cfg), recorder_(recorder) {
  for (net::HostId h = 0; h < net_.num_hosts(); ++h) {
    net_.host(h).set_app(this);
  }
}

net::FlowId RdmaTransport::start_flow(FlowSpec spec) {
  assert(spec.src != spec.dst);
  if (spec.start_time == sim::Time::zero()) {
    spec.start_time = net_.scheduler().now();
  }
  if (spec.id == 0) spec.id = next_flow_id_++;
  ++flows_started_;
  RxState rx;
  rx.expected = spec.size_bytes;
  rx.spec = spec;
  receivers_.emplace(spec.id, rx);
  senders_.emplace(spec.id,
                   std::make_unique<DcqcnSender>(net_.scheduler(),
                                                 net_.host(spec.src), spec,
                                                 cfg_));
  return spec.id;
}

DcqcnSender* RdmaTransport::find_sender(net::FlowId id) {
  const auto it = senders_.find(id);
  return it == senders_.end() ? nullptr : it->second.get();
}

void RdmaTransport::on_receive(const net::Packet& pkt) {
  const sim::Time now = net_.scheduler().now();
  switch (pkt.type) {
    case net::PacketType::kData: {
      const auto it = receivers_.find(pkt.flow_id);
      if (it == receivers_.end()) return;  // stale packet of a finished flow
      RxState& rx = it->second;
      if (recorder_ != nullptr) recorder_->record_latency(now - pkt.sent_at);
      // NP: echo congestion back to the sender, at most one CNP per window.
      if (pkt.ce_marked && now - rx.last_cnp >= cfg_.cnp_interval) {
        rx.last_cnp = now;
        net::Packet cnp;
        cnp.flow_id = pkt.flow_id;
        cnp.src = pkt.dst;
        cnp.dst = pkt.src;
        cnp.type = net::PacketType::kCnp;
        cnp.size_bytes = net::kControlPacketBytes;
        cnp.ecn_capable = false;
        net_.host(pkt.dst).send_control(cnp);
        ++cnps_sent_;
      }
      rx.received += pkt.payload_bytes;
      if (rx.received >= rx.expected) complete_flow(pkt.flow_id, rx);
      break;
    }
    case net::PacketType::kCnp: {
      const auto it = senders_.find(pkt.flow_id);
      if (it != senders_.end()) it->second->on_cnp(now);
      break;
    }
    default:
      break;  // ACKs unused in the RDMA-write model; PFC handled by devices
  }
}

void RdmaTransport::complete_flow(net::FlowId id, RxState& rx) {
  if (recorder_ != nullptr) {
    recorder_->record_flow(rx.spec, net_.scheduler().now());
  }
  ++flows_completed_;
  if (const auto it = senders_.find(id); it != senders_.end()) {
    it->second->stop();
    senders_.erase(it);
  }
  receivers_.erase(id);
}

}  // namespace pet::transport
