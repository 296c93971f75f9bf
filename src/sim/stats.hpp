#pragma once
// Streaming and batch statistics used by monitors, recorders and benches.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace pet::sim {

/// Numerically stable streaming mean/variance (Welford).
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = n_ == 1 ? x : std::min(min_, x);
    max_ = n_ == 1 ? x : std::max(max_, x);
  }

  void reset() { *this = RunningStats{}; }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Time-weighted average of a piecewise-constant signal (e.g. queue length).
/// Sample points carry the value that held *since the previous sample*.
class TimeWeightedStats {
 public:
  /// Record that `value` held for `duration` (any time unit, must be >= 0).
  void add(double value, double duration) {
    if (duration <= 0.0) return;
    total_time_ += duration;
    weighted_sum_ += value * duration;
    weighted_sq_sum_ += value * value * duration;
  }

  void reset() { *this = TimeWeightedStats{}; }

  [[nodiscard]] double total_time() const { return total_time_; }
  [[nodiscard]] double mean() const {
    return total_time_ > 0.0 ? weighted_sum_ / total_time_ : 0.0;
  }
  [[nodiscard]] double variance() const {
    if (total_time_ <= 0.0) return 0.0;
    const double m = mean();
    return std::max(0.0, weighted_sq_sum_ / total_time_ - m * m);
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }

 private:
  double total_time_ = 0.0;
  double weighted_sum_ = 0.0;
  double weighted_sq_sum_ = 0.0;
};

/// Batch percentile over a sample vector (nearest-rank on a sorted copy).
[[nodiscard]] double percentile(std::vector<double> samples, double pct);

/// Mean of a sample vector (0 for empty input).
[[nodiscard]] double mean_of(const std::vector<double>& samples);

}  // namespace pet::sim
