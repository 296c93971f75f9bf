// Differential oracle: fp32/int8 InferenceModel::forward_batch against the
// fp64 Mlp reference, with per-layer error bounds DERIVED from the snapshot
// itself rather than hand-tuned tolerances:
//
//  - representation error is measured exactly through the
//    dequantized_weights()/dequantized_biases() oracles (|w_q - w_64| is a
//    known number, not an estimate);
//  - arithmetic rounding is bounded analytically per neuron:
//    (in + 8) * 2^-23 * (|b| + sum_i |w_i||x_i|) for the fp32 chain, the
//    same term plus the 0.5 * sx activation-quantization slack for int8;
//  - the rational tanh contributes a flat 2.5e-6 (|err vs std::tanh| is
//    2e-6 by construction, plus the fp32 rounding of the stored result) and
//    propagates incoming error with Lipschitz constant 1.
//
// Every bound is multiplied by a x4 safety margin; a failure therefore
// means a real contract violation, not tolerance noise. Weight/observation
// generators are boundary-biased (signed zeros, fp64/fp32 subnormals, large
// magnitudes) and every failure replays via PET_PBT_SEED / PET_PBT_REPLAY.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "rl/adam.hpp"
#include "rl/categorical.hpp"
#include "rl/inference.hpp"
#include "rl/kernels.hpp"
#include "rl/mlp.hpp"
#include "sim/checkpoint.hpp"
#include "testkit/property.hpp"

namespace pet::testkit {
namespace {

constexpr double kEps32 = 1.1920928955078125e-07;  // 2^-23
constexpr double kSafety = 4.0;

// --- generators --------------------------------------------------------------

/// Boundary-biased parameter values: mostly a realistic trained-weight
/// range, spiced with signed zeros, fp64 subnormals, values that become
/// fp32 subnormals when narrowed, and large magnitudes (kept below the
/// range where a three-layer fp32 product could saturate to infinity —
/// saturation is a documented non-goal of the serving contract).
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

[[nodiscard]] Gen<NetCase> net_cases() {
  return tuple_of(integers(1, 10), vector_of(integers(1, 12), 0, 2),
                  integers(1, 10), booleans(),
                  vector_of(boundary_weight(), 460, 460), integers(1, 5),
                  vector_of(boundary_obs(), 50, 50));
}

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

// --- derived per-layer error bound -------------------------------------------

struct BoundedForward {
  std::vector<double> y;    // fp64 reference output (one sample)
  std::vector<double> err;  // per-element bound on |snapshot - reference|
};

/// Walk one sample through the fp64 reference while propagating a rigorous
/// per-element error bound for what the snapshot at `model`'s precision may
/// deviate by (see the file header for the derivation).
[[nodiscard]] BoundedForward forward_with_bounds(
    const rl::Mlp& net, const rl::InferenceModel& model,
    std::span<const double> x0) {
  const bool int8 = model.precision() == rl::InferPrecision::kInt8;
  std::vector<double> x(x0.begin(), x0.end());
  std::vector<double> dx(x.size());
  // Both reduced paths narrow the observation plane to fp32 once at entry.
  for (std::size_t i = 0; i < x.size(); ++i) {
    dx[i] = kEps32 * std::abs(x[i]) + 1e-38;
  }
  std::vector<double> y;
  std::vector<double> dy;
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    const rl::Linear& layer = net.layer(l);
    const std::span<const double> w64 = layer.weights();
    const std::span<const double> b64 = layer.biases();
    const std::vector<double> wq = model.dequantized_weights(l);
    const std::vector<double> bq = model.dequantized_biases(l);
    const auto in = static_cast<std::size_t>(layer.in_size());
    const auto out = static_cast<std::size_t>(layer.out_size());
    // int8 re-quantizes its input plane with a per-sample dynamic scale
    // sx = max|x| / 127; round-to-nearest loses at most sx / 2 per element.
    double qerr = 0.0;
    if (int8) {
      double max_abs = 0.0;
      for (std::size_t i = 0; i < in; ++i) {
        max_abs = std::max(max_abs, std::abs(x[i]) + dx[i]);
      }
      qerr = 0.5 * max_abs / 127.0;
    }
    y.assign(out, 0.0);
    dy.assign(out, 0.0);
    for (std::size_t o = 0; o < out; ++o) {
      double acc = b64[o];
      double err = std::abs(bq[o] - b64[o]);
      double sum_abs = std::abs(bq[o]);
      for (std::size_t i = 0; i < in; ++i) {
        const double mag = std::abs(x[i]) + dx[i];
        acc += w64[o * in + i] * x[i];
        err += std::abs(wq[o * in + i] - w64[o * in + i]) * mag +
               std::abs(wq[o * in + i]) * (dx[i] + qerr);
        sum_abs += std::abs(wq[o * in + i]) * mag;
      }
      const double n = static_cast<double>(in) + 8.0;
      err += n * kEps32 * sum_abs + n * 1e-38;
      y[o] = acc;
      dy[o] = err;
    }
    if (l + 1 < net.num_layers()) {
      for (std::size_t o = 0; o < out; ++o) {
        if (net.activation() == rl::Activation::kTanh) {
          y[o] = std::tanh(y[o]);
          // Lipschitz-1 propagation + rational-approximation budget; a
          // bounded function can never be more than 2 apart.
          dy[o] = std::min(2.0, dy[o] + 2.5e-6);
        } else {
          y[o] = y[o] > 0.0 ? y[o] : 0.0;
        }
        dy[o] += kEps32 * std::abs(y[o]) + 1e-38;
      }
    }
    x = y;
    dx = dy;
  }
  return {std::move(y), std::move(dy)};
}

/// Pin the kernel backend for a scope (property failures throw).
struct BackendGuard {
  explicit BackendGuard(rl::kern::Backend b) { rl::kern::set_backend(b); }
  ~BackendGuard() { rl::kern::reset_backend(); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;
};

void check_against_bound(const NetCase& c, rl::InferPrecision precision) {
  const rl::Mlp net = build_net(c);
  rl::InferenceModel model;
  PROP_ASSERT(model.quantize(net, precision));
  const std::vector<double> states = build_states(c);
  const auto batch = static_cast<std::int32_t>(std::get<5>(c));
  const auto in = static_cast<std::size_t>(net.input_size());
  const auto out = static_cast<std::size_t>(net.output_size());
  std::vector<double> got(static_cast<std::size_t>(batch) * out);
  model.forward_batch(states, batch, got);
  for (std::int32_t s = 0; s < batch; ++s) {
    const BoundedForward ref = forward_with_bounds(
        net, model,
        std::span<const double>(&states[static_cast<std::size_t>(s) * in], in));
    for (std::size_t o = 0; o < out; ++o) {
      const double bound = kSafety * ref.err[o] + 1e-12;
      if (!std::isfinite(bound)) continue;  // fp32 range saturated
      PROP_ASSERT_NEAR(got[static_cast<std::size_t>(s) * out + o], ref.y[o],
                       bound);
    }
  }
}

// --- properties --------------------------------------------------------------

/// The fp64 snapshot is not error-bounded — it is bitwise the training
/// network (same kernels, same std::tanh), which is what makes fp64 serving
/// golden-safe.
PROPERTY_CASES(InferenceOracle, Fp64SnapshotBitwiseMatchesMlp, 2000,
               kernel_net_cases()) {
  const rl::Mlp net = build_net(arg);
  rl::InferenceModel model;
  PROP_ASSERT(model.quantize(net, rl::InferPrecision::kFp64));
  const std::vector<double> states = build_states(arg);
  const auto batch = static_cast<std::int32_t>(std::get<5>(arg));
  const auto out = static_cast<std::size_t>(net.output_size());
  std::vector<double> got(static_cast<std::size_t>(batch) * out);
  model.forward_batch(states, batch, got);
  const std::vector<double> want = net.forward_batch(states, batch);
  PROP_ASSERT_EQ(got.size(), want.size());
  PROP_ASSERT(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(double)) == 0);
}

PROPERTY_CASES(InferenceOracle, Fp32ForwardWithinDerivedBound, 2500,
               net_cases()) {
  check_against_bound(arg, rl::InferPrecision::kFp32);
}

PROPERTY_CASES(InferenceOracle, Int8ForwardWithinDerivedBound, 2500,
               net_cases()) {
  check_against_bound(arg, rl::InferPrecision::kInt8);
}

/// Scalar and AVX2 kernels are bitwise interchangeable at every precision —
/// the contract that makes artifacts machine-independent. Non-finite
/// observations are outside the fp32/int8 domain (see rl/kernels.hpp), so
/// those two precisions see the same states with each infinity replaced by
/// the largest finite boundary value of its sign; fp64 sees them as drawn.
PROPERTY_CASES(InferenceOracle, BackendsBitwiseIdentical, 1200,
               kernel_net_cases()) {
  const rl::Mlp net = build_net(arg);
  const std::vector<double> states = build_states(arg);
  std::vector<double> finite_states = states;
  for (double& v : finite_states) {
    if (std::isinf(v)) v = std::copysign(1.0e6, v);
  }
  const auto batch = static_cast<std::int32_t>(std::get<5>(arg));
  const auto out = static_cast<std::size_t>(net.output_size());
  for (const rl::InferPrecision precision :
       {rl::InferPrecision::kFp64, rl::InferPrecision::kFp32,
        rl::InferPrecision::kInt8}) {
    const std::vector<double>& x =
        precision == rl::InferPrecision::kFp64 ? states : finite_states;
    rl::InferenceModel model;
    PROP_ASSERT(model.quantize(net, precision));
    std::vector<double> scalar_y(static_cast<std::size_t>(batch) * out);
    std::vector<double> avx2_y(scalar_y.size());
    {
      BackendGuard guard(rl::kern::Backend::kScalar);
      model.forward_batch(x, batch, scalar_y);
    }
    {
      BackendGuard guard(rl::kern::Backend::kAvx2);
      model.forward_batch(x, batch, avx2_y);
    }
    PROP_ASSERT(std::memcmp(scalar_y.data(), avx2_y.data(),
                            scalar_y.size() * sizeof(double)) == 0);
  }
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
  std::vector<std::uint8_t> adam;  // Adam::save_state: lr, t, m, v
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
  sim::ByteSink sink;
  opt.save_state(sink);
  trace.adam = sink.bytes();
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
  PROP_ASSERT(same_bytes(scalar.adam, avx2.adam));
}

/// On realistic (normalized) observations: whenever the fp64 top-logit gap
/// exceeds twice the derived bound, the reduced-precision argmax matches —
/// the property that makes int8 serving safe for well-separated decisions.
PROPERTY_CASES(InferenceOracle, ArgmaxAgreesWhenGapExceedsBound, 2000,
               tuple_of(integers(2, 20), vector_of(reals(-1.5, 1.5), 460, 460),
                        vector_of(reals(-1.0, 1.0), 24, 24), booleans())) {
  const auto& [head_n, pool, obs, use_int8] = arg;
  NetCase c{24,
            {16},
            head_n,
            /*tanh=*/true,
            pool,
            /*batch=*/1,
            obs};
  const rl::Mlp net = build_net(c);
  rl::InferenceModel model;
  const rl::InferPrecision precision =
      use_int8 ? rl::InferPrecision::kInt8 : rl::InferPrecision::kFp32;
  PROP_ASSERT(model.quantize(net, precision));
  const std::vector<double> state = build_states(c);
  const BoundedForward ref = forward_with_bounds(net, model, state);
  std::vector<double> got(static_cast<std::size_t>(net.output_size()));
  model.forward_batch(state, 1, got);
  double bound = 0.0;
  for (const double e : ref.err) bound = std::max(bound, kSafety * e);
  const std::int32_t best = rl::argmax(ref.y);
  double runner_up = -std::numeric_limits<double>::infinity();
  for (std::size_t o = 0; o < ref.y.size(); ++o) {
    if (static_cast<std::int32_t>(o) == best) continue;
    runner_up = std::max(runner_up, ref.y[o]);
  }
  if (ref.y[static_cast<std::size_t>(best)] - runner_up > 2.0 * bound) {
    PROP_ASSERT_EQ(rl::argmax(got), best);
  }
}

/// A poisoned network must never become a serving snapshot: quantize()
/// refuses and leaves any previous snapshot untouched.
PROPERTY_CASES(InferenceOracle, QuantizeRejectsNonFinite, 400,
               tuple_of(net_cases(), integers(0, 1))) {
  const auto& [c, kind] = arg;
  rl::Mlp net = build_net(c);
  rl::InferenceModel model;
  PROP_ASSERT(model.quantize(net, rl::InferPrecision::kInt8));
  const std::vector<double> states = build_states(c);
  const auto batch = static_cast<std::int32_t>(std::get<5>(c));
  const auto out = static_cast<std::size_t>(net.output_size());
  std::vector<double> before(static_cast<std::size_t>(batch) * out);
  model.forward_batch(states, batch, before);

  rl::ParamRefs refs;
  net.collect(refs);
  std::vector<double> params = rl::snapshot_params(refs);
  params[params.size() / 2] = kind == 0
                                  ? std::numeric_limits<double>::quiet_NaN()
                                  : std::numeric_limits<double>::infinity();
  rl::restore_params(refs, params);
  PROP_ASSERT(!model.quantize(net, rl::InferPrecision::kInt8));
  PROP_ASSERT(model.ready());
  std::vector<double> after(before.size());
  model.forward_batch(states, batch, after);
  PROP_ASSERT(std::memcmp(before.data(), after.data(),
                          before.size() * sizeof(double)) == 0);
}

}  // namespace
}  // namespace pet::testkit
