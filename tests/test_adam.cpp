#include "rl/adam.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace pet::rl {
namespace {

/// Two-parameter "model" for optimizer tests: the weights {p0, p1} of a
/// 2-in, 1-out layer. Parameters are written with restore_params and read
/// with snapshot_params (no API hands out a pointer to one parameter), and
/// set_grads() gives the weights the gradients {g0, g1} exactly through one
/// backward pass over the unit inputs; the bias collects g0 + g1, and no
/// test reads it.
struct TwoParams {
  sim::Rng rng{1};
  Linear layer{2, 1, rng};

  TwoParams() { set(5.0, -3.0); }

  [[nodiscard]] ParamRefs refs() {
    ParamRefs r;
    layer.collect(r);
    return r;
  }
  void set(double p0, double p1) {
    restore_params(refs(), std::vector<double>{p0, p1, 0.0});
  }
  [[nodiscard]] double p(std::size_t i) {
    return snapshot_params(refs())[i];
  }
  void set_grads(double g0, double g1) {
    layer.zero_grad();
    const std::vector<double> x{1.0, 0.0, 0.0, 1.0};
    const std::vector<double> dy{g0, g1};
    layer.backward_batch(x, dy, {}, 2);
  }
};

TEST(Adam, MinimizesQuadratic) {
  TwoParams model;
  Adam opt(model.refs(), AdamConfig{.lr = 0.1, .max_grad_norm = 0.0});
  for (int i = 0; i < 500; ++i) {
    model.set_grads(2.0 * model.p(0),           // d/dp0 of p0^2
                    2.0 * (model.p(1) - 1.0));  // d/dp1 of (p1-1)^2
    opt.step();
  }
  EXPECT_NEAR(model.p(0), 0.0, 1e-2);
  EXPECT_NEAR(model.p(1), 1.0, 1e-2);
}

TEST(Adam, FirstStepMovesByLr) {
  // With bias correction, the first Adam step is ~lr * sign(grad).
  TwoParams model;
  model.set(0.0, -3.0);
  Adam opt(model.refs(), AdamConfig{.lr = 0.01, .max_grad_norm = 0.0});
  model.set_grads(3.7, -0.2);
  opt.step();
  EXPECT_NEAR(model.p(0), -0.01, 1e-6);
  EXPECT_NEAR(model.p(1), -3.0 + 0.01, 1e-6);
}

TEST(Adam, GradClipBoundsUpdateDirection) {
  TwoParams model;
  const double p0 = model.p(0);
  Adam clipped(model.refs(),
               AdamConfig{.lr = 0.1, .max_grad_norm = 1e-6});
  model.set_grads(1e6, 1e6);
  clipped.step();
  // Clipping rescales the gradient, but Adam normalizes by its RMS, so the
  // step size stays ~lr; direction must still be descent.
  EXPECT_LT(model.p(0), p0);
  EXPECT_GT(model.p(0), p0 - 0.2);
}

TEST(Adam, StepCounterAdvances) {
  TwoParams model;
  Adam opt(model.refs(), AdamConfig{});
  EXPECT_EQ(opt.steps(), 0);
  opt.step();
  opt.step();
  EXPECT_EQ(opt.steps(), 2);
}

TEST(Adam, SetLrTakesEffect) {
  TwoParams a, b;
  Adam oa(a.refs(), AdamConfig{.lr = 0.1, .max_grad_norm = 0.0});
  Adam ob(b.refs(), AdamConfig{.lr = 0.1, .max_grad_norm = 0.0});
  ob.set_lr(0.0);
  EXPECT_EQ(ob.lr(), 0.0);
  a.set_grads(1.0, 0.0);
  b.set_grads(1.0, 0.0);
  oa.step();
  ob.step();
  EXPECT_NE(a.p(0), 5.0);
  EXPECT_EQ(b.p(0), 5.0);
}

TEST(Adam, ZeroGradProducesNoMovement) {
  TwoParams model;
  Adam opt(model.refs(), AdamConfig{.lr = 0.5});
  opt.step();
  EXPECT_EQ(model.p(0), 5.0);
  EXPECT_EQ(model.p(1), -3.0);
}

}  // namespace
}  // namespace pet::rl
