#pragma once
// RED/ECN marking: the knob every scheme in this library turns.
//
// Marking follows the AQM rule used by DCQCN switches: on enqueue, compare
// the *instantaneous* egress queue length against (Kmin, Kmax) and mark the
// packet CE with probability 0 below Kmin, Pmax*(q-Kmin)/(Kmax-Kmin) in
// between, and 1 above Kmax. Each egress port marks its one data queue;
// a switch's ports all take their config from SwitchDevice::install_ecn.

#include <algorithm>
#include <cstdint>

#include "sim/rng.hpp"

namespace pet::net {

struct RedEcnConfig {
  std::int64_t kmin_bytes = 5 * 1024;
  std::int64_t kmax_bytes = 200 * 1024;
  double pmax = 0.01;

  /// Validity: thresholds ordered, probability in [0, 1].
  [[nodiscard]] bool valid() const {
    return kmin_bytes >= 0 && kmax_bytes >= kmin_bytes && pmax >= 0.0 &&
           pmax <= 1.0;
  }

  /// Nearest valid configuration: negative thresholds raised to zero,
  /// Kmax raised to Kmin, Pmax clamped into [0, 1] (NaN becomes 0, i.e.
  /// marking off — the conservative reading of a garbage probability).
  [[nodiscard]] RedEcnConfig clamped() const {
    RedEcnConfig fixed = *this;
    fixed.kmin_bytes = std::max<std::int64_t>(0, fixed.kmin_bytes);
    fixed.kmax_bytes = std::max(fixed.kmin_bytes, fixed.kmax_bytes);
    if (!(fixed.pmax >= 0.0)) {  // catches negatives and NaN
      fixed.pmax = 0.0;
    } else if (fixed.pmax > 1.0) {
      fixed.pmax = 1.0;
    }
    return fixed;
  }

  friend bool operator==(const RedEcnConfig&, const RedEcnConfig&) = default;
};

/// Marking probability for instantaneous queue length `qlen_bytes`.
[[nodiscard]] inline double red_mark_probability(const RedEcnConfig& cfg,
                                                 std::int64_t qlen_bytes) {
  if (qlen_bytes <= cfg.kmin_bytes) return 0.0;
  if (qlen_bytes >= cfg.kmax_bytes) return 1.0;
  if (cfg.kmax_bytes == cfg.kmin_bytes) return 1.0;
  const double span = static_cast<double>(cfg.kmax_bytes - cfg.kmin_bytes);
  return cfg.pmax * static_cast<double>(qlen_bytes - cfg.kmin_bytes) / span;
}

/// Stateless marker: decides per-packet given the queue length seen at
/// enqueue time.
class RedEcnMarker {
 public:
  explicit RedEcnMarker(std::uint64_t seed) : rng_(seed) {}

  void set_config(const RedEcnConfig& cfg) { cfg_ = cfg; }
  [[nodiscard]] const RedEcnConfig& config() const { return cfg_; }

  /// Should the packet be CE-marked at this queue length?
  [[nodiscard]] bool should_mark(std::int64_t qlen_bytes) {
    const double p = red_mark_probability(cfg_, qlen_bytes);
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return rng_.bernoulli(p);
  }

 private:
  RedEcnConfig cfg_;
  sim::Rng rng_;
};

}  // namespace pet::net
