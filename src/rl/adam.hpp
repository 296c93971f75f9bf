#pragma once
// Adam optimizer over the flat parameter view collected from modules: the
// moments are one contiguous vector in ParamRefs order, and each step runs
// the update kernel over every layer's weight and bias blocks in turn.

#include <cstdint>
#include <vector>

#include "rl/mlp.hpp"
#include "sim/checkpoint.hpp"

namespace pet::rl {

struct AdamConfig {
  double lr = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
  /// Clip the global gradient L2 norm before the step (0 disables).
  double max_grad_norm = 0.5;
};

class Adam {
 public:
  Adam(ParamRefs refs, const AdamConfig& cfg)
      : refs_(std::move(refs)),
        cfg_(cfg),
        m_(refs_.size(), 0.0),
        v_(refs_.size(), 0.0) {}

  void set_lr(double lr) { cfg_.lr = lr; }
  [[nodiscard]] double lr() const { return cfg_.lr; }
  [[nodiscard]] std::int64_t steps() const { return t_; }

  /// Apply one update from the currently accumulated gradients.
  /// Does NOT zero the gradients; callers own that.
  void step();

  /// Checkpoint the optimizer trajectory: step count, first/second moment
  /// estimates, and the (mutable) learning rate. The rest of the config is
  /// construction-time and not saved.
  void save_state(sim::ByteSink& out) const;
  /// Restores the trajectory; false (optimizer untouched) when the moment
  /// vectors do not match this optimizer's parameter count.
  [[nodiscard]] bool load_state(sim::ByteSource& in);

 private:
  ParamRefs refs_;
  AdamConfig cfg_;
  std::vector<double> m_;
  std::vector<double> v_;
  std::int64_t t_ = 0;
};

}  // namespace pet::rl
