#pragma once
// Dynamic (rule-based) ECN tuning baselines from the paper's related work
// (Section 2.2). These are the non-learning comparators the learning
// schemes claim to supersede:
//
//  * AmtTuner — in the spirit of AMT (Zhang et al. 2016): the threshold
//    follows periodically measured link utilization (high utilization =>
//    higher threshold to protect throughput, low => aggressive marking
//    for low delay).
//  * QaecnTuner — in the spirit of QAECN (Kang et al. 2019): an integral
//    controller on the instantaneous queue length steers the threshold
//    toward a target occupancy.
//
// Both run per switch on a fixed period with hand-set rules — exactly the
// "manually pre-defined adjustment policies" limitation the paper
// describes. The period is the EcnTuner tick interval.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/tuner.hpp"
#include "net/network.hpp"
#include "net/switch.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace pet::baselines {

struct AmtConfig {
  sim::Time period = sim::microseconds(100);
  std::int64_t kmax_floor_bytes = 40 * 1024;
  std::int64_t kmax_ceiling_bytes = 400 * 1024;
  double pmax = 0.2;
  /// Kmin as a fraction of Kmax.
  double kmin_fraction = 0.25;
  /// EWMA gain for the utilization estimate.
  double util_gain = 0.3;
};

class AmtTuner final : public core::EcnTuner {
 public:
  AmtTuner(sim::Scheduler& sched, std::span<net::SwitchDevice* const> switches,
           const AmtConfig& cfg);

  /// Current smoothed utilization of a switch's bottleneck port.
  [[nodiscard]] double utilization(std::size_t i) const { return util_[i]; }
  [[nodiscard]] std::int64_t adjustments() const { return adjustments_; }

 protected:
  void tick() override;

 private:
  AmtConfig cfg_;
  std::vector<net::SwitchDevice*> switches_;
  std::vector<double> util_;
  std::vector<std::vector<std::int64_t>> last_tx_;
  std::int64_t adjustments_ = 0;
};

struct QaecnConfig {
  sim::Time period = sim::microseconds(100);
  std::int64_t target_qlen_bytes = 30 * 1024;
  std::int64_t kmax_floor_bytes = 20 * 1024;
  std::int64_t kmax_ceiling_bytes = 640 * 1024;
  double pmax = 0.2;
  double kmin_fraction = 0.25;
  /// Integral gain: bytes of threshold change per byte of queue error.
  double gain = 0.5;
};

class QaecnTuner final : public core::EcnTuner {
 public:
  QaecnTuner(sim::Scheduler& sched,
             std::span<net::SwitchDevice* const> switches,
             const QaecnConfig& cfg);

  [[nodiscard]] std::int64_t current_kmax(std::size_t i) const {
    return kmax_[i];
  }
  [[nodiscard]] std::int64_t adjustments() const { return adjustments_; }

 protected:
  void tick() override;

 private:
  QaecnConfig cfg_;
  std::vector<net::SwitchDevice*> switches_;
  std::vector<std::int64_t> kmax_;
  std::int64_t adjustments_ = 0;
};

}  // namespace pet::baselines
