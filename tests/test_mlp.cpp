#include "rl/mlp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

namespace pet::rl {
namespace {

TEST(Linear, ForwardComputesAffineMap) {
  sim::Rng rng(1);
  Linear lin(2, 3, rng);
  ParamRefs refs;
  lin.collect(refs);
  // Overwrite with known weights: W = [[1,2],[3,4],[5,6]], b = [10,20,30].
  const std::vector<double> params{1, 2, 3, 4, 5, 6, 10, 20, 30};
  restore_params(refs, params);
  const std::vector<double> x{1.0, -1.0};
  std::vector<double> y(3);
  lin.forward_batch(x, y, 1);
  EXPECT_DOUBLE_EQ(y[0], 1 - 2 + 10);
  EXPECT_DOUBLE_EQ(y[1], 3 - 4 + 20);
  EXPECT_DOUBLE_EQ(y[2], 5 - 6 + 30);
}

TEST(Linear, CollectSizesMatch) {
  sim::Rng rng(2);
  Linear lin(4, 5, rng);
  ParamRefs refs;
  lin.collect(refs);
  EXPECT_EQ(refs.size(), 4u * 5u + 5u);
  EXPECT_EQ(snapshot_params(refs).size(), snapshot_grads(refs).size());
}

TEST(Mlp, OutputDimensions) {
  sim::Rng rng(3);
  Mlp mlp({6, 8, 4}, Activation::kTanh, rng);
  EXPECT_EQ(mlp.input_size(), 6);
  EXPECT_EQ(mlp.output_size(), 4);
  const std::vector<double> x(6, 0.5);
  EXPECT_EQ(mlp.forward_batch(x, 1).size(), 4u);
  EXPECT_EQ(mlp.num_params(), 6u * 8 + 8 + 8 * 4 + 4);
}

TEST(Mlp, DeterministicForward) {
  sim::Rng rng(4);
  Mlp mlp({3, 5, 2}, Activation::kTanh, rng);
  const std::vector<double> x{0.1, -0.2, 0.3};
  EXPECT_EQ(mlp.forward_batch(x, 1), mlp.forward_batch(x, 1));
}

TEST(Mlp, SnapshotRestoreRoundTrip) {
  sim::Rng rng(5);
  Mlp a({3, 6, 2}, Activation::kTanh, rng);
  Mlp b({3, 6, 2}, Activation::kTanh, rng);
  ParamRefs ra, rb;
  a.collect(ra);
  b.collect(rb);
  const std::vector<double> x{0.3, 0.7, -0.5};
  EXPECT_NE(a.forward_batch(x, 1), b.forward_batch(x, 1));  // different init
  restore_params(rb, snapshot_params(ra));
  EXPECT_EQ(a.forward_batch(x, 1), b.forward_batch(x, 1));
}

/// Central-difference gradient check over architectures and activations:
/// the backbone correctness proof for the whole RL stack.
class GradCheckTest
    : public ::testing::TestWithParam<
          std::tuple<std::vector<std::int32_t>, Activation>> {};

TEST_P(GradCheckTest, BackwardMatchesFiniteDifferences) {
  const auto& [sizes, act] = GetParam();
  sim::Rng rng(77);
  Mlp mlp(sizes, act, rng);
  ParamRefs refs;
  mlp.collect(refs);

  std::vector<double> x(static_cast<std::size_t>(sizes.front()));
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  // Loss = sum of squared outputs (nontrivial dL/dy).
  const auto loss = [&] {
    const auto y = mlp.forward_batch(x, 1);
    double l = 0;
    for (const double v : y) l += v * v;
    return l;
  };

  Mlp::BatchCache cache;
  const auto y = mlp.forward_batch(x, 1, &cache);
  std::vector<double> dy(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) dy[i] = 2.0 * y[i];
  mlp.zero_grad();
  std::vector<double> dx(x.size());
  mlp.backward_batch(x, cache, dy, 1, dx);
  const std::vector<double> grads = snapshot_grads(refs);

  // Parameter gradients (check a stride to keep runtime sane). Each probe
  // edits a snapshot and restores it, so the layers repack every time.
  const double eps = 1e-6;
  std::vector<double> params = snapshot_params(refs);
  const std::size_t stride = std::max<std::size_t>(1, refs.size() / 64);
  for (std::size_t i = 0; i < refs.size(); i += stride) {
    const double orig = params[i];
    params[i] = orig + eps;
    restore_params(refs, params);
    const double lp = loss();
    params[i] = orig - eps;
    restore_params(refs, params);
    const double lm = loss();
    params[i] = orig;
    restore_params(refs, params);
    const double numeric = (lp - lm) / (2 * eps);
    EXPECT_NEAR(grads[i], numeric, 1e-4 * std::max(1.0, std::abs(numeric)))
        << "param " << i;
  }

  // Input gradients.
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double orig = x[i];
    x[i] = orig + eps;
    const double lp = loss();
    x[i] = orig - eps;
    const double lm = loss();
    x[i] = orig;
    const double numeric = (lp - lm) / (2 * eps);
    EXPECT_NEAR(dx[i], numeric, 1e-4 * std::max(1.0, std::abs(numeric)))
        << "input " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, GradCheckTest,
    ::testing::Combine(
        ::testing::Values(std::vector<std::int32_t>{2, 3},
                          std::vector<std::int32_t>{4, 8, 2},
                          std::vector<std::int32_t>{6, 16, 16, 3},
                          std::vector<std::int32_t>{24, 64, 64, 10}),
        ::testing::Values(Activation::kTanh, Activation::kRelu)));

TEST(Mlp, GradientsAccumulateAcrossBackwardCalls) {
  sim::Rng rng(9);
  Mlp mlp({2, 4, 1}, Activation::kTanh, rng);
  ParamRefs refs;
  mlp.collect(refs);
  const std::vector<double> x{0.2, -0.4};
  const std::vector<double> dy{1.0};

  Mlp::BatchCache cache;
  (void)mlp.forward_batch(x, 1, &cache);
  mlp.zero_grad();
  mlp.backward_batch(x, cache, dy, 1);
  const auto once = snapshot_grads(refs);
  mlp.backward_batch(x, cache, dy, 1);
  const auto twice = snapshot_grads(refs);
  for (std::size_t i = 0; i < refs.size(); ++i) {
    EXPECT_NEAR(twice[i], 2.0 * once[i], 1e-12);
  }
}

TEST(Mlp, ZeroGradClears) {
  sim::Rng rng(10);
  Mlp mlp({2, 3, 1}, Activation::kRelu, rng);
  ParamRefs refs;
  mlp.collect(refs);
  const std::vector<double> x{1.0, 1.0};
  Mlp::BatchCache cache;
  (void)mlp.forward_batch(x, 1, &cache);
  mlp.backward_batch(x, cache, std::vector<double>{1.0}, 1);
  mlp.zero_grad();
  for (const double g : snapshot_grads(refs)) EXPECT_EQ(g, 0.0);
}

}  // namespace
}  // namespace pet::rl
