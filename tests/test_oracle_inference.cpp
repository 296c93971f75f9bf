// Bitwise oracles for the fp64 kernels under rl::Mlp:
//
//  - forward: Mlp::forward_batch equals the naive per-layer chain (one
//    `acc = b; acc += w * x` chain per output, inputs ascending, then
//    std::tanh or ReLU) and is memcmp-equal under the scalar and AVX2
//    backends, infinities included;
//  - training: backward_batch and Adam::step are memcmp-equal under both
//    backends.
//
// Weight/observation generators are boundary-biased (signed zeros, fp64
// subnormals, large magnitudes, infinities) and every failure replays via
// PET_PBT_SEED / PET_PBT_REPLAY.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <tuple>
#include <vector>

#include "rl/adam.hpp"
#include "rl/kernels.hpp"
#include "rl/mlp.hpp"
#include "testkit/property.hpp"

namespace pet::testkit {
namespace {

// --- generators --------------------------------------------------------------

/// Boundary-biased parameter values: mostly a realistic trained-weight
/// range, spiced with signed zeros, subnormals, tiny normals and large
/// magnitudes.
[[nodiscard]] Gen<double> boundary_weight() {
  return frequency<double>(
      {{10, reals(-2.0, 2.0)},
       {2, reals(-1.0e6, 1.0e6)},
       {3, element_of<double>({0.0, -0.0, 5e-324, -5e-324, 1.0e-300,
                               -1.0e-300, 1.0e-40, -1.0e-40, 1.0e6, -1.0e6,
                               1.0, -1.0})}});
}

/// Observation values: the six-factor state is normalized, so realistic
/// draws live in [-1, 1]; boundary draws stress the same edges as weights.
[[nodiscard]] Gen<double> boundary_obs() {
  return frequency<double>(
      {{8, reals(-1.0, 1.0)},
       {2, element_of<double>({0.0, -0.0, 1.0e-300, 1.0e-40, -1.0e-40, 1.0e6,
                               -1.0e6, 0.5})}});
}

/// (input, hidden sizes, output, tanh?, weight pool, batch, obs pool).
/// The pools are fixed-size and consumed modulo so the shapes can shrink
/// independently of the values.
using NetCase = std::tuple<std::int64_t, std::vector<std::int64_t>,
                           std::int64_t, bool, std::vector<double>,
                           std::int64_t, std::vector<double>>;

/// Cases for the bitwise fp64 properties, shaped to cross every boundary of
/// the blocked fp64 GEMM: batches on both sides of each four-sample block
/// (and 33), layer widths on both sides of each 4-row tile and tile pair
/// (the 10-wide heads leave two remainder rows), the ACC/PET input widths,
/// and observations that include infinities on top of the boundary values.
[[nodiscard]] Gen<NetCase> kernel_net_cases() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Gen<std::int64_t> width = one_of<std::int64_t>(
      {element_of<std::int64_t>({1, 3, 4, 5, 8, 10, 12, 20, 64}),
       integers(1, 12)});
  const Gen<std::int64_t> input = one_of<std::int64_t>(
      {element_of<std::int64_t>({1, 18, 24, 64}), integers(1, 10)});
  const Gen<std::int64_t> batch = one_of<std::int64_t>(
      {element_of<std::int64_t>({1, 3, 4, 5, 7, 8, 9, 33}), integers(1, 5)});
  const Gen<double> obs = frequency<double>(
      {{8, boundary_obs()},
       {1, element_of<double>({kInf, -kInf, 5e-324, -5e-324})}});
  return tuple_of(input, vector_of(width, 0, 2), width, booleans(),
                  vector_of(boundary_weight(), 460, 460), batch,
                  vector_of(obs, 50, 50));
}

/// Build the fp64 reference network for a generated case: architecture from
/// the shape fields, parameters overwritten from the weight pool.
[[nodiscard]] rl::Mlp build_net(const NetCase& c) {
  const auto& [in, hidden, out, tanh_act, pool, batch, obs] = c;
  (void)batch;
  (void)obs;
  std::vector<std::int32_t> sizes;
  sizes.push_back(static_cast<std::int32_t>(in));
  for (const std::int64_t h : hidden) {
    sizes.push_back(static_cast<std::int32_t>(h));
  }
  sizes.push_back(static_cast<std::int32_t>(out));
  sim::Rng rng(0xBEEF);
  rl::Mlp net(sizes, tanh_act ? rl::Activation::kTanh : rl::Activation::kRelu,
              rng);
  rl::ParamRefs refs;
  net.collect(refs);
  std::vector<double> values(refs.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = pool[i % pool.size()];
  }
  rl::restore_params(refs, values);
  return net;
}

[[nodiscard]] std::vector<double> build_states(const NetCase& c) {
  const auto& [in, hidden, out, tanh_act, pool, batch, obs] = c;
  (void)hidden;
  (void)out;
  (void)tanh_act;
  (void)pool;
  std::vector<double> states(static_cast<std::size_t>(batch) *
                             static_cast<std::size_t>(in));
  for (std::size_t i = 0; i < states.size(); ++i) {
    states[i] = obs[i % obs.size()];
  }
  return states;
}

/// Pin the kernel backend for a scope (property failures throw).
struct BackendGuard {
  explicit BackendGuard(rl::kern::Backend b) { rl::kern::set_backend(b); }
  ~BackendGuard() { rl::kern::reset_backend(); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;
};

// --- properties --------------------------------------------------------------

/// The naive per-sample chain over the public weight views: what every
/// backend of the blocked GEMM must reproduce bit for bit.
[[nodiscard]] std::vector<double> naive_forward(const rl::Mlp& net,
                                                std::span<const double> x,
                                                std::int32_t batch) {
  const auto in = static_cast<std::size_t>(net.input_size());
  std::vector<double> out;
  for (std::int32_t s = 0; s < batch; ++s) {
    const auto row = x.subspan(static_cast<std::size_t>(s) * in, in);
    std::vector<double> cur(row.begin(), row.end());
    for (std::size_t l = 0; l < net.num_layers(); ++l) {
      const rl::Linear& layer = net.layer(l);
      const auto n = static_cast<std::size_t>(layer.in_size());
      std::vector<double> y(static_cast<std::size_t>(layer.out_size()));
      for (std::size_t o = 0; o < y.size(); ++o) {
        double acc = layer.biases()[o];
        for (std::size_t i = 0; i < n; ++i) {
          acc += layer.weights()[o * n + i] * cur[i];
        }
        y[o] = acc;
      }
      if (l + 1 < net.num_layers()) {
        for (double& v : y) {
          v = net.activation() == rl::Activation::kTanh ? std::tanh(v)
                                                        : (v > 0.0 ? v : 0.0);
        }
      }
      cur = std::move(y);
    }
    out.insert(out.end(), cur.begin(), cur.end());
  }
  return out;
}

/// Mlp::forward_batch is bitwise the naive per-layer chain, on every shape
/// the blocked GEMM distinguishes.
PROPERTY_CASES(InferenceOracle, ForwardBatchBitwiseMatchesNaiveChain, 2000,
               kernel_net_cases()) {
  const rl::Mlp net = build_net(arg);
  const std::vector<double> states = build_states(arg);
  const auto batch = static_cast<std::int32_t>(std::get<5>(arg));
  const std::vector<double> got = net.forward_batch(states, batch);
  const std::vector<double> want = naive_forward(net, states, batch);
  PROP_ASSERT_EQ(got.size(), want.size());
  PROP_ASSERT(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(double)) == 0);
}

/// Scalar and AVX2 kernels are bitwise interchangeable — the contract that
/// makes artifacts machine-independent. Observations include infinities.
PROPERTY_CASES(InferenceOracle, BackendsBitwiseIdentical, 1200,
               kernel_net_cases()) {
  const rl::Mlp net = build_net(arg);
  const std::vector<double> states = build_states(arg);
  const auto batch = static_cast<std::int32_t>(std::get<5>(arg));
  std::vector<double> scalar_y;
  std::vector<double> avx2_y;
  {
    BackendGuard guard(rl::kern::Backend::kScalar);
    scalar_y = net.forward_batch(states, batch);
  }
  {
    BackendGuard guard(rl::kern::Backend::kAvx2);
    avx2_y = net.forward_batch(states, batch);
  }
  PROP_ASSERT_EQ(scalar_y.size(), avx2_y.size());
  PROP_ASSERT(std::memcmp(scalar_y.data(), avx2_y.data(),
                          scalar_y.size() * sizeof(double)) == 0);
}

/// Layer widths for the training-kernel property: the listed ones hit the
/// 4-lane body alone (4, 8, 12, 20, 24, 64), the tail alone (1, 3) and both
/// (5, 6, 10, 18), and 65 and 100 outputs span more than one 64-entry
/// nonzero list; the uniform draw covers everything else up to 40.
[[nodiscard]] Gen<std::int64_t> lane_widths() {
  return one_of<std::int64_t>(
      {element_of<std::int64_t>(
           {1, 3, 4, 5, 6, 8, 10, 12, 18, 20, 24, 64, 65, 100}),
       integers(1, 40)});
}

/// (net, upstream-gradient pool, clip the gradient norm?). Half of the
/// upstream gradients are exactly zero, which exercises the g == 0 skip;
/// batches 1-9 and 33 cross the forward GEMM's four-sample blocks, and
/// above 64 span more than one nonzero list; parameters stay in a trained
/// range plus signed zeros and subnormals; observations add subnormals and
/// infinities.
using TrainCase = std::tuple<NetCase, std::vector<double>, bool>;

[[nodiscard]] Gen<TrainCase> train_cases() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Gen<double> weight = frequency<double>(
      {{10, reals(-2.0, 2.0)},
       {2, element_of<double>({0.0, -0.0, 5e-324, -1.0e-300, 1.0e-40})}});
  const Gen<double> obs = frequency<double>(
      {{8, reals(-1.0, 1.0)},
       {1, element_of<double>(
               {0.0, -0.0, 1.0e-300, 5e-324, -5e-324, kInf, -kInf})}});
  const Gen<double> dy =
      frequency<double>({{1, constant(0.0)}, {1, reals(-1.0, 1.0)}});
  return tuple_of(
      tuple_of(lane_widths(), vector_of(lane_widths(), 0, 2), lane_widths(),
               booleans(), vector_of(weight, 97, 97),
               one_of<std::int64_t>(
                   {integers(1, 9),
                    element_of<std::int64_t>({33, 64, 65, 130})}),
               vector_of(obs, 23, 23)),
      vector_of(dy, 41, 41), booleans());
}

/// Everything one training run produces, as raw bytes for memcmp.
struct TrainTrace {
  std::vector<double> grads;  // after each backward
  std::vector<double> dx;     // after each backward
  std::vector<double> params;
  // Adam's trajectory: learning rate, step count, both moment vectors.
  std::vector<double> adam_lr;
  std::vector<std::int64_t> adam_steps;
  std::vector<double> adam_m;
  std::vector<double> adam_v;
};

/// Two rounds of forward_batch, backward_batch and Adam::step on a fresh
/// copy of the case's net, under `backend`.
[[nodiscard]] TrainTrace train_under(const TrainCase& c,
                                     rl::kern::Backend backend) {
  const auto& [net_case, dy_pool, clip] = c;
  BackendGuard guard(backend);
  rl::Mlp net = build_net(net_case);
  const std::vector<double> states = build_states(net_case);
  const auto batch = static_cast<std::int32_t>(std::get<5>(net_case));
  std::vector<double> dy(static_cast<std::size_t>(batch) *
                         static_cast<std::size_t>(net.output_size()));
  for (std::size_t i = 0; i < dy.size(); ++i) {
    dy[i] = dy_pool[i % dy_pool.size()];
  }
  rl::ParamRefs refs;
  net.collect(refs);
  rl::Adam opt(refs, rl::AdamConfig{.max_grad_norm = clip ? 0.5 : 0.0});
  TrainTrace trace;
  for (int round = 0; round < 2; ++round) {
    net.zero_grad();
    rl::Mlp::BatchCache cache;
    (void)net.forward_batch(states, batch, &cache);
    std::vector<double> dx(states.size());
    net.backward_batch(states, cache, dy, batch, dx);
    trace.dx.insert(trace.dx.end(), dx.begin(), dx.end());
    const std::vector<double> grads = rl::snapshot_grads(refs);
    trace.grads.insert(trace.grads.end(), grads.begin(), grads.end());
    opt.step();
  }
  trace.params = rl::snapshot_params(refs);
  trace.adam_lr = {opt.lr()};
  trace.adam_steps = {opt.steps()};
  trace.adam_m.assign(opt.first_moments().begin(), opt.first_moments().end());
  trace.adam_v.assign(opt.second_moments().begin(),
                      opt.second_moments().end());
  return trace;
}

template <typename T>
[[nodiscard]] bool same_bytes(const std::vector<T>& a,
                              const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// The training kernels (Linear::backward_batch, Adam::step) are bitwise
/// interchangeable between backends: gradients, input gradients,
/// parameters and both Adam moments.
PROPERTY_CASES(TrainingOracle, BackendsBitwiseIdentical, 1200, train_cases()) {
  const TrainTrace scalar = train_under(arg, rl::kern::Backend::kScalar);
  const TrainTrace avx2 = train_under(arg, rl::kern::Backend::kAvx2);
  PROP_ASSERT(same_bytes(scalar.grads, avx2.grads));
  PROP_ASSERT(same_bytes(scalar.dx, avx2.dx));
  PROP_ASSERT(same_bytes(scalar.params, avx2.params));
  PROP_ASSERT(same_bytes(scalar.adam_lr, avx2.adam_lr));
  PROP_ASSERT(same_bytes(scalar.adam_steps, avx2.adam_steps));
  PROP_ASSERT(same_bytes(scalar.adam_m, avx2.adam_m));
  PROP_ASSERT(same_bytes(scalar.adam_v, avx2.adam_v));
}

}  // namespace
}  // namespace pet::testkit
