#pragma once
// Empirical CDF over flow sizes with piecewise-linear inverse-transform
// sampling — the representation used by the Alibaba traffic generator's
// distribution files that the paper's workloads come from.

#include <cstdint>
#include <vector>

#include "sim/rng.hpp"

namespace pet::workload {

class EmpiricalCdf {
 public:
  /// Points must be appended with non-decreasing value and strictly
  /// increasing cumulative probability ending at 1.0.
  void add_point(double value, double cum_prob);

  [[nodiscard]] bool valid() const;

  /// Inverse-transform sample (linear interpolation between points).
  [[nodiscard]] double sample(sim::Rng& rng) const;

  /// Value at cumulative probability p in [0, 1].
  [[nodiscard]] double quantile(double p) const;

  /// Expectation of the piecewise-linear distribution.
  [[nodiscard]] double mean() const;

  /// A copy truncated at `max_value` (mass above collapses onto the cap);
  /// used to keep tail flows finishable in scaled-down simulations.
  [[nodiscard]] EmpiricalCdf truncated(double max_value) const;

 private:
  struct Point {
    double value;
    double cum_prob;
  };
  std::vector<Point> points_;
};

}  // namespace pet::workload
