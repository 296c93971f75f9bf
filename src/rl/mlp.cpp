#include "rl/mlp.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <utility>

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
  repack();
}

void Linear::repack() { kern::pack_weights_f64(w_.data(), in_, out_, pack_); }

void Linear::forward_batch(std::span<const double> x, std::span<double> y,
                           std::int32_t batch) const {
  assert(static_cast<std::int32_t>(x.size()) == batch * in_);
  assert(static_cast<std::int32_t>(y.size()) == batch * out_);
  // Runtime-dispatched GEMM (scalar reference or AVX2 over the packed
  // tiles); both backends keep each (sample, output) accumulation in
  // ascending-input order with separate multiply/add roundings, so no row
  // depends on the others.
  kern::gemm_bias_f64(w_.data(), pack_.data(), b_.data(), x.data(), y.data(),
                      batch, in_, out_);
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

void Linear::collect(ParamRefs& refs) { refs.layers.push_back(this); }

void Linear::set_params(std::span<const double> values) {
  assert(values.size() == num_params());
  const auto split = values.begin() + static_cast<std::ptrdiff_t>(w_.size());
  std::copy(values.begin(), split, w_.begin());
  std::copy(split, values.end(), b_.begin());
  repack();
}

void Linear::copy_params(const Linear& other) {
  assert(other.in_ == in_ && other.out_ == out_);
  std::copy(other.w_.begin(), other.w_.end(), w_.begin());
  std::copy(other.b_.begin(), other.b_.end(), b_.begin());
  repack();
}

void Linear::adam_step(const kern::AdamStep& step, std::span<double> m,
                       std::span<double> v) {
  assert(m.size() == num_params() && v.size() == num_params());
  const std::size_t nw = w_.size();
  kern::adam_update_f64(w_.data(), gw_.data(), m.data(), v.data(), nw, step);
  kern::adam_update_f64(b_.data(), gb_.data(), m.data() + nw, v.data() + nw,
                        b_.size(), step);
  repack();
}

// ---------------------------------------------------------------------------
// Mlp
// ---------------------------------------------------------------------------

namespace {
/// v[i] = act(v[i]) in place. The activation is chosen once per plane, so
/// each loop is branch-free.
void activate(Activation act, std::span<double> v) {
  if (act == Activation::kTanh) {
    for (double& x : v) x = std::tanh(x);
  } else {
    for (double& x : v) x = x > 0.0 ? x : 0.0;
  }
}
/// grad[i] *= act'(.) through the activation, read from its output `post`:
/// tanh' = 1 - post^2, and ReLU's post > 0 holds exactly when its input was
/// > 0 (a non-positive or NaN input leaves +0.0).
void activate_grad(Activation act, std::span<const double> post,
                   std::span<double> grad) {
  if (act == Activation::kTanh) {
    for (std::size_t i = 0; i < grad.size(); ++i) {
      grad[i] *= 1.0 - post[i] * post[i];
    }
  } else {
    for (std::size_t i = 0; i < grad.size(); ++i) {
      grad[i] *= post[i] > 0.0 ? 1.0 : 0.0;
    }
  }
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
  std::array<std::vector<double>, 2> local;
  const std::span<const double> out = forward_layers(x, batch, cache, local);
  if (cache != nullptr) return {out.begin(), out.end()};
  return std::move(local[(layers_.size() - 1) % 2]);
}

std::span<const double> Mlp::forward_batch(std::span<const double> x,
                                           std::int32_t batch,
                                           BatchCache& cache) const {
  std::array<std::vector<double>, 2> unused;
  return forward_layers(x, batch, &cache, unused);
}

std::span<const double> Mlp::forward_layers(
    std::span<const double> x, std::int32_t batch, BatchCache* cache,
    std::array<std::vector<double>, 2>& local) const {
  assert(static_cast<std::int32_t>(x.size()) == batch * input_size());
  const std::size_t depth = layers_.size();
  if (cache != nullptr) {
    // resize, not assign: a reused cache keeps its planes' capacity.
    cache->batch = batch;
    cache->post.resize(depth);
  }
  // Training writes each layer straight into the cache's planes; inference
  // keeps none, so two local planes take turns as the layers' outputs.
  // Either way each hidden activation runs in place.
  std::span<const double> input = x;
  for (std::size_t l = 0; l < depth; ++l) {
    std::vector<double>& out = cache != nullptr ? cache->post[l] : local[l % 2];
    out.resize(static_cast<std::size_t>(batch) *
               static_cast<std::size_t>(layers_[l].out_size()));
    layers_[l].forward_batch(input, out, batch);
    if (l + 1 < depth) activate(act_, out);
    input = out;
  }
  return input;
}

void Mlp::reserve(BatchCache& cache, std::int32_t batch) const {
  const std::size_t depth = layers_.size();
  cache.post.resize(depth);
  std::size_t hidden = 0;  // widest hidden plane: the gradient planes' size
  for (std::size_t l = 0; l < depth; ++l) {
    const std::size_t n = static_cast<std::size_t>(batch) *
                          static_cast<std::size_t>(layers_[l].out_size());
    cache.post[l].reserve(n);
    if (l + 1 < depth) hidden = std::max(hidden, n);
  }
  cache.grad.reserve(hidden);
  cache.next_grad.reserve(hidden);
}

void Mlp::backward_batch(std::span<const double> x, BatchCache& cache,
                         std::span<const double> dy, std::int32_t batch,
                         std::span<double> dx) {
  assert(cache.post.size() == layers_.size());
  assert(cache.batch == batch);
  assert(static_cast<std::int32_t>(dy.size()) == batch * output_size());
  // `grad` holds dL/d(post) of the layer below the one being processed;
  // `next` receives the next input gradient (the two swap every layer).
  std::vector<double>& grad = cache.grad;
  std::vector<double>& next = cache.next_grad;
  std::span<const double> upstream = dy;
  for (std::size_t li = layers_.size(); li-- > 1;) {
    const std::vector<double>& post = cache.post[li - 1];
    next.resize(post.size());
    layers_[li].backward_batch(post, upstream, next, batch);
    activate_grad(act_, post, next);  // through the layer below
    std::swap(grad, next);
    upstream = grad;
  }
  layers_.front().backward_batch(x, upstream, dx, batch);
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

// ---------------------------------------------------------------------------

std::size_t ParamRefs::size() const {
  std::size_t total = 0;
  for (const Linear* layer : layers) total += layer->num_params();
  return total;
}

std::vector<double> snapshot_params(const ParamRefs& refs) {
  std::vector<double> out;
  out.reserve(refs.size());
  for (const Linear* layer : refs.layers) {
    out.insert(out.end(), layer->weights().begin(), layer->weights().end());
    out.insert(out.end(), layer->biases().begin(), layer->biases().end());
  }
  return out;
}

void restore_params(const ParamRefs& refs, std::span<const double> values) {
  assert(values.size() == refs.size());
  std::size_t off = 0;
  for (Linear* layer : refs.layers) {
    layer->set_params(values.subspan(off, layer->num_params()));
    off += layer->num_params();
  }
}

void copy_params(const ParamRefs& from, const ParamRefs& to) {
  assert(from.layers.size() == to.layers.size());
  for (std::size_t l = 0; l < from.layers.size(); ++l) {
    to.layers[l]->copy_params(*from.layers[l]);
  }
}

std::vector<double> snapshot_grads(const ParamRefs& refs) {
  std::vector<double> out;
  out.reserve(refs.size());
  for (const Linear* layer : refs.layers) {
    out.insert(out.end(), layer->weight_grads().begin(),
               layer->weight_grads().end());
    out.insert(out.end(), layer->bias_grads().begin(),
               layer->bias_grads().end());
  }
  return out;
}

}  // namespace pet::rl
