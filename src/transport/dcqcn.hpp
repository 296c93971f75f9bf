#pragma once
// DCQCN (Zhu et al., SIGCOMM'15) — the end-to-end congestion control every
// scheme in the paper runs on. Switches CE-mark via RED/ECN (CP), receivers
// send rate-limited CNPs on marked arrivals (NP), and senders run the
// alpha/rate state machine with fast-recovery / additive / hyper increase
// stages (RP).

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "net/flow_source.hpp"
#include "net/host.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "transport/fct_recorder.hpp"
#include "transport/flow.hpp"

namespace pet::transport {

struct DcqcnConfig {
  std::int32_t mtu_bytes = 1000;    // payload per data packet
  std::int32_t header_bytes = 48;   // Eth+IP+UDP+IB BTH overhead on the wire
  sim::Time cnp_interval = sim::microseconds(50);  // NP: min CNP spacing
  double gain = 1.0 / 16.0;                        // g, alpha EWMA gain
  sim::Time alpha_timer = sim::microseconds(55);   // alpha decay period
  sim::Time increase_timer = sim::microseconds(300);  // RP increase period
  std::int64_t byte_counter = 10'000'000;  // bytes per increase event
  std::int32_t fast_recovery_stages = 5;   // F
  double rate_ai_bps = 40e6;               // additive increase step
  double rate_hai_bps = 400e6;             // hyper increase step
  double min_rate_fraction = 1e-3;         // floor as a fraction of line rate

  bool operator==(const DcqcnConfig&) const = default;
};

/// Sender-side (RP) state machine; one per active flow. Implements
/// FlowSource so the host NIC scheduler paces it at the DCQCN rate.
class DcqcnSender final : public net::FlowSource {
 public:
  DcqcnSender(sim::Scheduler& sched, net::HostDevice& host,
              const FlowSpec& spec, const DcqcnConfig& cfg);
  ~DcqcnSender() override;

  DcqcnSender(const DcqcnSender&) = delete;
  DcqcnSender& operator=(const DcqcnSender&) = delete;

  // --- FlowSource -----------------------------------------------------------
  [[nodiscard]] bool has_data() const override { return remaining_ > 0; }
  [[nodiscard]] sim::Time next_emit_time() const override { return next_emit_; }
  [[nodiscard]] net::Packet emit(sim::Time now) override;

  /// NP feedback arrived for this flow.
  void on_cnp(sim::Time now);

  /// Cancel timers and detach from the NIC (flow teardown).
  void stop();

  [[nodiscard]] const FlowSpec& spec() const { return spec_; }
  [[nodiscard]] double current_rate_bps() const { return rate_bps_; }
  [[nodiscard]] double target_rate_bps() const { return target_bps_; }
  [[nodiscard]] double alpha() const { return alpha_; }
  [[nodiscard]] std::int64_t cnps_received() const { return cnps_received_; }

 private:
  void cut_rate(sim::Time now);
  void do_increase();
  void arm_alpha_timer();
  void arm_increase_timer();
  void clamp_rates();

  sim::Scheduler& sched_;
  net::HostDevice& host_;
  FlowSpec spec_;
  const DcqcnConfig& cfg_;

  std::int64_t remaining_;
  std::uint32_t seq_ = 0;
  sim::Time next_emit_;

  double line_rate_bps_;
  double min_rate_bps_;
  double rate_bps_;    // Rc
  double target_bps_;  // Rt
  double alpha_ = 1.0;

  std::int32_t timer_stage_ = 0;
  std::int32_t byte_stage_ = 0;
  std::int64_t bytes_counted_ = 0;
  std::int64_t cnps_received_ = 0;

  // Both timers always re-arm one fixed period out, so they ride lanes.
  sim::LaneId alpha_lane_;
  sim::LaneId increase_lane_;
  sim::EventId alpha_ev_;
  sim::EventId increase_ev_;
  sim::EventId deregister_ev_;
  bool registered_ = false;
};

/// Whole-fabric RoCE transport: owns all sender/receiver flow state and is
/// installed as the HostApp on every host.
class RdmaTransport final : public net::HostApp {
 public:
  RdmaTransport(net::Network& net, const DcqcnConfig& cfg,
                FctRecorder* recorder);

  /// Begin emitting a flow now (spec.start_time is stamped with now if
  /// zero; spec.id of 0 means "allocate one"). Returns the flow id.
  net::FlowId start_flow(FlowSpec spec);

  void on_receive(const net::Packet& pkt) override;

  [[nodiscard]] const DcqcnConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t active_flows() const { return senders_.size(); }
  [[nodiscard]] std::int64_t flows_started() const { return flows_started_; }
  [[nodiscard]] std::int64_t flows_completed() const { return flows_completed_; }
  [[nodiscard]] std::int64_t cnps_sent() const { return cnps_sent_; }

  /// Test hook: sender state for a live flow (nullptr once completed).
  [[nodiscard]] DcqcnSender* find_sender(net::FlowId id);

 private:
  struct RxState {
    std::int64_t expected = 0;
    std::int64_t received = 0;
    sim::Time last_cnp = sim::Time(-1'000'000'000'000LL);
    FlowSpec spec;
  };

  void complete_flow(net::FlowId id, RxState& rx);

  net::Network& net_;
  DcqcnConfig cfg_;
  FctRecorder* recorder_;
  std::unordered_map<net::FlowId, std::unique_ptr<DcqcnSender>> senders_;
  std::unordered_map<net::FlowId, RxState> receivers_;
  std::int64_t flows_started_ = 0;
  std::int64_t flows_completed_ = 0;
  std::int64_t cnps_sent_ = 0;
  net::FlowId next_flow_id_ = 1;
};

}  // namespace pet::transport
