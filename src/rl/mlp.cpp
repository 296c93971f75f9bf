#include "rl/mlp.hpp"

#include <cassert>
#include <cmath>

#include "rl/kernels.hpp"

namespace pet::rl {

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

Linear::Linear(std::int32_t in, std::int32_t out, sim::Rng& rng)
    : in_(in),
      out_(out),
      w_(static_cast<std::size_t>(in) * static_cast<std::size_t>(out)),
      b_(static_cast<std::size_t>(out), 0.0),
      gw_(w_.size(), 0.0),
      gb_(b_.size(), 0.0) {
  assert(in > 0 && out > 0);
  // Glorot-uniform initialization.
  const double bound = std::sqrt(6.0 / static_cast<double>(in + out));
  for (auto& v : w_) v = rng.uniform(-bound, bound);
}

void Linear::forward_batch(std::span<const double> x, std::span<double> y,
                           std::int32_t batch) const {
  assert(static_cast<std::int32_t>(x.size()) == batch * in_);
  assert(static_cast<std::int32_t>(y.size()) == batch * out_);
  // Runtime-dispatched GEMM (scalar reference or AVX2); both backends keep
  // each (sample, output) accumulation in ascending-input order with
  // separate multiply/add roundings, so no row depends on the others.
  kern::gemm_bias_f64(w_.data(), b_.data(), x.data(), y.data(), batch, in_,
                      out_);
}

void Linear::backward_batch(std::span<const double> x,
                            std::span<const double> dy, std::span<double> dx,
                            std::int32_t batch) {
  assert(static_cast<std::int32_t>(x.size()) == batch * in_);
  assert(static_cast<std::int32_t>(dy.size()) == batch * out_);
  if (!dx.empty()) {
    assert(static_cast<std::int32_t>(dx.size()) == batch * in_);
  }
  // Runtime-dispatched backward (scalar reference or AVX2); both backends
  // accumulate samples in ascending order per parameter — the same order a
  // loop of one-row calls produces — so how a minibatch is split into calls
  // never changes the gradients.
  kern::linear_backward_f64(w_.data(), x.data(), dy.data(), gw_.data(),
                            gb_.data(), dx.empty() ? nullptr : dx.data(),
                            batch, in_, out_);
}

void Linear::zero_grad() {
  std::fill(gw_.begin(), gw_.end(), 0.0);
  std::fill(gb_.begin(), gb_.end(), 0.0);
}

void Linear::collect(ParamRefs& refs) {
  for (std::size_t i = 0; i < w_.size(); ++i) {
    refs.params.push_back(&w_[i]);
    refs.grads.push_back(&gw_[i]);
  }
  for (std::size_t i = 0; i < b_.size(); ++i) {
    refs.params.push_back(&b_[i]);
    refs.grads.push_back(&gb_[i]);
  }
}

// ---------------------------------------------------------------------------
// Mlp
// ---------------------------------------------------------------------------

namespace {
[[nodiscard]] double activate(Activation act, double pre) {
  return act == Activation::kTanh ? std::tanh(pre) : (pre > 0.0 ? pre : 0.0);
}
/// Derivative through the activation, expressed with whichever of pre/post
/// is cheapest.
[[nodiscard]] double activate_grad(Activation act, double pre, double post) {
  return act == Activation::kTanh ? 1.0 - post * post
                                  : (pre > 0.0 ? 1.0 : 0.0);
}
}  // namespace

Mlp::Mlp(std::vector<std::int32_t> sizes, Activation act, sim::Rng& rng)
    : sizes_(std::move(sizes)), act_(act) {
  assert(sizes_.size() >= 2);
  layers_.reserve(sizes_.size() - 1);
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    layers_.emplace_back(sizes_[l], sizes_[l + 1], rng);
  }
}

std::vector<double> Mlp::forward_batch(std::span<const double> x,
                                       std::int32_t batch,
                                       BatchCache* cache) const {
  assert(static_cast<std::int32_t>(x.size()) == batch * input_size());
  if (cache != nullptr) {
    // resize, not assign: a reused cache keeps its planes' capacity.
    cache->batch = batch;
    cache->pre.resize(layers_.size());
    cache->post.resize(layers_.size());
  }
  std::vector<double> cur;
  std::span<const double> input = x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    std::vector<double> y(static_cast<std::size_t>(batch) *
                          static_cast<std::size_t>(layers_[l].out_size()));
    layers_[l].forward_batch(input, y, batch);
    // Training captures the pre-activation plane for backward_batch, then
    // the post-activation plane (backprop reads both); inference keeps
    // neither. Either way activate() runs in place on the same outputs.
    if (cache != nullptr) cache->pre[l] = y;
    if (l + 1 < layers_.size()) {
      for (auto& v : y) v = activate(act_, v);
    }
    if (cache != nullptr) cache->post[l] = y;
    cur = std::move(y);
    input = cur;
  }
  return cur;
}

std::vector<double> Mlp::backward_batch(std::span<const double> x,
                                        const BatchCache& cache,
                                        std::span<const double> dy,
                                        std::int32_t batch) {
  assert(cache.pre.size() == layers_.size());
  assert(cache.batch == batch);
  assert(static_cast<std::int32_t>(dy.size()) == batch * output_size());
  std::vector<double> grad;
  std::span<const double> upstream = dy;
  for (std::size_t li = layers_.size(); li-- > 0;) {
    if (li + 1 < layers_.size()) {
      // Through the activation; `grad` is the dx this loop produced.
      for (std::size_t i = 0; i < grad.size(); ++i) {
        grad[i] *= activate_grad(act_, cache.pre[li][i], cache.post[li][i]);
      }
    }
    const std::span<const double> input =
        li == 0 ? x : std::span<const double>(cache.post[li - 1]);
    std::vector<double> dx(input.size());
    layers_[li].backward_batch(input, upstream, dx, batch);
    grad = std::move(dx);
    upstream = grad;
  }
  return grad;
}

void Mlp::zero_grad() {
  for (auto& layer : layers_) layer.zero_grad();
}

void Mlp::collect(ParamRefs& refs) {
  for (auto& layer : layers_) layer.collect(refs);
}

std::size_t Mlp::num_params() const {
  std::size_t total = 0;
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    total += static_cast<std::size_t>(sizes_[l]) * sizes_[l + 1] + sizes_[l + 1];
  }
  return total;
}

void Linear::save_state(sim::ByteSink& out) const {
  out.i32(in_);
  out.i32(out_);
  out.f64_vec(w_);
  out.f64_vec(b_);
}

bool Linear::load_state(sim::ByteSource& in) {
  const std::int32_t in_size = in.i32();
  const std::int32_t out_size = in.i32();
  std::vector<double> w = in.f64_vec();
  std::vector<double> b = in.f64_vec();
  if (!in.ok() || in_size != in_ || out_size != out_ || w.size() != w_.size() ||
      b.size() != b_.size()) {
    return false;
  }
  w_ = std::move(w);
  b_ = std::move(b);
  return true;
}

void Mlp::save_state(sim::ByteSink& out) const {
  out.i32_vec(sizes_);
  out.u8(act_ == Activation::kTanh ? 0 : 1);
  for (const Linear& layer : layers_) layer.save_state(out);
}

bool Mlp::load_state(sim::ByteSource& in) {
  const std::vector<std::int32_t> sizes = in.i32_vec();
  const std::uint8_t act = in.u8();
  if (!in.ok() || sizes != sizes_ ||
      act != (act_ == Activation::kTanh ? 0 : 1)) {
    return false;
  }
  for (Linear& layer : layers_) {
    if (!layer.load_state(in)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------

std::vector<double> snapshot_params(const ParamRefs& refs) {
  std::vector<double> out;
  out.reserve(refs.params.size());
  for (const double* p : refs.params) out.push_back(*p);
  return out;
}

void restore_params(const ParamRefs& refs, std::span<const double> values) {
  assert(values.size() == refs.params.size());
  for (std::size_t i = 0; i < values.size(); ++i) *refs.params[i] = values[i];
}

}  // namespace pet::rl
