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
/// post[i] = act(pre[i]); `pre` and `post` may be the same plane. The
/// activation is chosen once per plane, so each loop is branch-free.
void activate(Activation act, std::span<const double> pre,
              std::span<double> post) {
  if (act == Activation::kTanh) {
    for (std::size_t i = 0; i < pre.size(); ++i) post[i] = std::tanh(pre[i]);
  } else {
    for (std::size_t i = 0; i < pre.size(); ++i) {
      post[i] = pre[i] > 0.0 ? pre[i] : 0.0;
    }
  }
}
/// grad[i] *= act'(.) through the activation, expressed with whichever of
/// pre/post is cheapest.
void activate_grad(Activation act, std::span<const double> pre,
                   std::span<const double> post, std::span<double> grad) {
  if (act == Activation::kTanh) {
    for (std::size_t i = 0; i < grad.size(); ++i) {
      grad[i] *= 1.0 - post[i] * post[i];
    }
  } else {
    for (std::size_t i = 0; i < grad.size(); ++i) {
      grad[i] *= pre[i] > 0.0 ? 1.0 : 0.0;
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
  assert(static_cast<std::int32_t>(x.size()) == batch * input_size());
  const std::size_t depth = layers_.size();
  if (cache != nullptr) {
    // resize, not assign: a reused cache keeps its planes' capacity.
    cache->batch = batch;
    cache->pre.resize(depth);
    cache->post.resize(depth);
  }
  // Training writes each layer straight into the cache's planes; inference
  // keeps neither plane, so two local ones take turns as the layers' outputs
  // and activations run in place.
  std::array<std::vector<double>, 2> local;
  std::span<const double> input = x;
  for (std::size_t l = 0; l < depth; ++l) {
    std::vector<double>& pre = cache != nullptr ? cache->pre[l] : local[l % 2];
    std::vector<double>& post = cache != nullptr ? cache->post[l] : pre;
    pre.resize(static_cast<std::size_t>(batch) *
               static_cast<std::size_t>(layers_[l].out_size()));
    post.resize(pre.size());
    layers_[l].forward_batch(input, pre, batch);
    if (l + 1 < depth) {
      activate(act_, pre, post);
    } else if (&post != &pre) {
      // Linear output layer: both cached planes hold the output.
      std::copy(pre.begin(), pre.end(), post.begin());
    }
    input = post;
  }
  if (cache != nullptr) return cache->post.back();
  return std::move(local[(depth - 1) % 2]);
}

void Mlp::backward_batch(std::span<const double> x, const BatchCache& cache,
                         std::span<const double> dy, std::int32_t batch,
                         std::span<double> dx) {
  assert(cache.pre.size() == layers_.size());
  assert(cache.batch == batch);
  assert(static_cast<std::int32_t>(dy.size()) == batch * output_size());
  // `grad` holds dL/d(post) of the layer below the one being processed;
  // `next` receives the next input gradient (the two swap every layer).
  std::vector<double> grad;
  std::vector<double> next;
  std::span<const double> upstream = dy;
  for (std::size_t li = layers_.size(); li-- > 1;) {
    const std::vector<double>& pre = cache.pre[li - 1];
    const std::vector<double>& post = cache.post[li - 1];
    next.resize(post.size());
    layers_[li].backward_batch(post, upstream, next, batch);
    activate_grad(act_, pre, post, next);  // through the layer below
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
