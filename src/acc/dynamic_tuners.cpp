#include "acc/dynamic_tuners.hpp"

#include <algorithm>

namespace pet::baselines {

// ---------------------------------------------------------------------------
// AmtTuner
// ---------------------------------------------------------------------------

AmtTuner::AmtTuner(sim::Scheduler& sched,
                   std::span<net::SwitchDevice* const> switches,
                   const AmtConfig& cfg)
    : EcnTuner(sched, cfg.period, "rl.tuner-tick"),
      cfg_(cfg),
      switches_(switches.begin(), switches.end()),
      util_(switches.size(), 0.0) {
  last_tx_.reserve(switches_.size());
  for (auto* sw : switches_) {
    std::vector<std::int64_t> base;
    for (std::int32_t p = 0; p < sw->num_ports(); ++p) {
      base.push_back(sw->port(p).tx_bytes());
    }
    last_tx_.push_back(std::move(base));
  }
}

void AmtTuner::tick() {
  // Ticks fire exactly one period apart, so the period is the window.
  const double window_sec = std::max(1e-12, cfg_.period.sec());

  for (std::size_t i = 0; i < switches_.size(); ++i) {
    net::SwitchDevice* sw = switches_[i];
    double max_util = 0.0;
    for (std::int32_t p = 0; p < sw->num_ports(); ++p) {
      const auto& port = sw->port(p);
      const double cap =
          static_cast<double>(port.rate().bps()) / 8.0 * window_sec;
      const double tx = static_cast<double>(port.tx_bytes() - last_tx_[i][p]);
      last_tx_[i][p] = port.tx_bytes();
      if (cap > 0.0) max_util = std::max(max_util, tx / cap);
    }
    util_[i] = (1.0 - cfg_.util_gain) * util_[i] +
               cfg_.util_gain * std::min(1.0, max_util);

    // Threshold follows utilization: busy links get headroom, idle links
    // get aggressive marking. Quadratic response keeps light load snappy.
    const double span = static_cast<double>(cfg_.kmax_ceiling_bytes -
                                            cfg_.kmax_floor_bytes);
    const auto kmax = static_cast<std::int64_t>(
        static_cast<double>(cfg_.kmax_floor_bytes) +
        span * util_[i] * util_[i]);
    const auto kmin = static_cast<std::int64_t>(
        static_cast<double>(kmax) * cfg_.kmin_fraction);
    sw->install_ecn(
        {.kmin_bytes = kmin, .kmax_bytes = kmax, .pmax = cfg_.pmax});
    ++adjustments_;
  }
}

// ---------------------------------------------------------------------------
// QaecnTuner
// ---------------------------------------------------------------------------

QaecnTuner::QaecnTuner(sim::Scheduler& sched,
                       std::span<net::SwitchDevice* const> switches,
                       const QaecnConfig& cfg)
    : EcnTuner(sched, cfg.period, "rl.tuner-tick"),
      cfg_(cfg),
      switches_(switches.begin(), switches.end()),
      kmax_(switches.size(), (cfg.kmax_floor_bytes + cfg.kmax_ceiling_bytes) / 2) {}

void QaecnTuner::tick() {
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    net::SwitchDevice* sw = switches_[i];
    std::int64_t max_qlen = 0;
    for (std::int32_t p = 0; p < sw->num_ports(); ++p) {
      max_qlen = std::max(max_qlen, sw->port(p).total_queue_bytes());
    }
    // Queue above target -> mark earlier (lower threshold); below ->
    // relax it. Integral control with clamping.
    const double error = static_cast<double>(max_qlen - cfg_.target_qlen_bytes);
    kmax_[i] = std::clamp(
        kmax_[i] - static_cast<std::int64_t>(cfg_.gain * error),
        cfg_.kmax_floor_bytes, cfg_.kmax_ceiling_bytes);
    const auto kmin = static_cast<std::int64_t>(
        static_cast<double>(kmax_[i]) * cfg_.kmin_fraction);
    sw->install_ecn(
        {.kmin_bytes = kmin, .kmax_bytes = kmax_[i], .pmax = cfg_.pmax});
    ++adjustments_;
  }
}

}  // namespace pet::baselines
