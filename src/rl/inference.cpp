#include "rl/inference.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

#include "rl/categorical.hpp"
#include "rl/kernels.hpp"

// NOTE: this translation unit is the audited fp64 -> int8 narrowing site in
// src/rl (pet_lint rule `quantize-narrowing`). Every conversion here goes
// through an explicit clamp to [-127, 127] after round-to-nearest, and
// quantize() rejects non-finite weights before any cast runs. The only other
// narrowing cast lives in kern::detail::quantize_lane_s8 (the fp32
// activation quantizer shared by both kernel backends), suppressed inline
// with the same clamp-audit justification.

namespace pet::rl {

namespace {

[[nodiscard]] bool all_finite(std::span<const double> values) {
  for (const double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

/// Round-to-nearest-even int8 quantization with saturation. `inv` is
/// 127 / max|row| (finite by construction: callers skip all-zero rows).
[[nodiscard]] std::int8_t quantize_one(double v, double inv) {
  const auto q = static_cast<std::int32_t>(std::lrint(v * inv));
  return static_cast<std::int8_t>(std::clamp(q, -127, 127));
}

void relu_inplace_f64(double* v, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) v[i] = v[i] > 0.0 ? v[i] : 0.0;
}

void relu_inplace_f32(float* v, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) v[i] = v[i] > 0.0f ? v[i] : 0.0f;
}

}  // namespace

const char* infer_precision_name(InferPrecision precision) {
  switch (precision) {
    case InferPrecision::kFp64:
      return "fp64";
    case InferPrecision::kFp32:
      return "fp32";
    case InferPrecision::kInt8:
      return "int8";
  }
  return "?";
}

const char* infer_mode_name(InferMode mode) {
  switch (mode) {
    case InferMode::kDirect:
      return "direct";
    case InferMode::kFp64:
      return "fp64";
    case InferMode::kFp32:
      return "fp32";
    case InferMode::kInt8:
      return "int8";
  }
  return "?";
}

InferPrecision infer_mode_precision(InferMode mode) {
  switch (mode) {
    case InferMode::kFp32:
      return InferPrecision::kFp32;
    case InferMode::kInt8:
      return InferPrecision::kInt8;
    case InferMode::kDirect:
    case InferMode::kFp64:
      break;
  }
  return InferPrecision::kFp64;
}

// ---------------------------------------------------------------------------
// InferenceModel
// ---------------------------------------------------------------------------

bool InferenceModel::quantize(const Mlp& net, InferPrecision precision) {
  // Validate before mutating anything: a snapshot with NaN/Inf weights must
  // never replace a good one (the server keeps serving the old weights and
  // reports the failure up).
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    if (!all_finite(net.layer(l).weights()) ||
        !all_finite(net.layer(l).biases())) {
      return false;
    }
  }

  precision_ = precision;
  act_ = net.activation();
  sizes_ = net.sizes();
  layers_.resize(net.num_layers());
  max_width_ = 0;
  for (const std::int32_t s : sizes_) max_width_ = std::max(max_width_, s);

  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    const Linear& src = net.layer(l);
    Layer& dst = layers_[l];
    dst.in = src.in_size();
    dst.out = src.out_size();
    const std::span<const double> w = src.weights();
    const std::span<const double> b = src.biases();
    switch (precision) {
      case InferPrecision::kFp64:
        dst.wd.assign(w.begin(), w.end());
        dst.bd.assign(b.begin(), b.end());
        kern::pack_weights_f64(dst.wd.data(), dst.in, dst.out, dst.pd);
        break;
      case InferPrecision::kFp32:
        dst.wf.resize(w.size());
        for (std::size_t i = 0; i < w.size(); ++i) {
          dst.wf[i] = static_cast<float>(w[i]);
        }
        kern::pack_weights_f32(dst.wf.data(), dst.in, dst.out, dst.pf);
        dst.bf.resize(b.size());
        for (std::size_t i = 0; i < b.size(); ++i) {
          dst.bf[i] = static_cast<float>(b[i]);
        }
        break;
      case InferPrecision::kInt8: {
        dst.wq.resize(w.size());
        dst.scale.resize(static_cast<std::size_t>(dst.out));
        for (std::int32_t o = 0; o < dst.out; ++o) {
          const double* row = &w[static_cast<std::size_t>(o) * dst.in];
          double max_abs = 0.0;
          for (std::int32_t i = 0; i < dst.in; ++i) {
            max_abs = std::max(max_abs, std::abs(row[i]));
          }
          std::int8_t* qrow = &dst.wq[static_cast<std::size_t>(o) * dst.in];
          if (max_abs == 0.0) {
            dst.scale[static_cast<std::size_t>(o)] = 0.0f;
            std::fill_n(qrow, dst.in, std::int8_t{0});
            continue;
          }
          const double inv = 127.0 / max_abs;
          dst.scale[static_cast<std::size_t>(o)] =
              static_cast<float>(max_abs / 127.0);
          for (std::int32_t i = 0; i < dst.in; ++i) {
            qrow[i] = quantize_one(row[i], inv);
          }
        }
        dst.bf.resize(b.size());
        for (std::size_t i = 0; i < b.size(); ++i) {
          dst.bf[i] = static_cast<float>(b[i]);
        }
        break;
      }
    }
  }
  ready_ = true;
  return true;
}

void InferenceModel::reserve(std::int32_t batch) {
  if (!ready_ || batch <= 0) return;
  const std::size_t plane =
      static_cast<std::size_t>(batch) * static_cast<std::size_t>(max_width_);
  switch (precision_) {
    case InferPrecision::kFp64:
      buf_d_[0].reserve(plane);
      buf_d_[1].reserve(plane);
      break;
    case InferPrecision::kFp32:
      buf_f_[0].reserve(plane);
      buf_f_[1].reserve(plane);
      break;
    case InferPrecision::kInt8:
      buf_f_[0].reserve(plane);
      buf_f_[1].reserve(plane);
      xq_.reserve(plane);
      acc_.reserve(plane);
      sx_.reserve(static_cast<std::size_t>(batch));
      break;
  }
}

void InferenceModel::forward_batch(std::span<const double> x,
                                   std::int32_t batch, std::span<double> y) {
  assert(ready_);
  assert(x.size() == static_cast<std::size_t>(batch) *
                         static_cast<std::size_t>(input_size()));
  assert(y.size() == static_cast<std::size_t>(batch) *
                         static_cast<std::size_t>(output_size()));
  switch (precision_) {
    case InferPrecision::kFp64:
      forward_f64(x, batch, y);
      break;
    case InferPrecision::kFp32:
      forward_f32(x, batch, y);
      break;
    case InferPrecision::kInt8:
      forward_s8(x, batch, y);
      break;
  }
}

void InferenceModel::forward_f64(std::span<const double> x, std::int32_t batch,
                                 std::span<double> y) {
  const double* src = x.data();
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    const bool is_last = (l + 1 == layers_.size());
    const std::int64_t n = static_cast<std::int64_t>(batch) * layer.out;
    double* dst;
    if (is_last) {
      dst = y.data();
    } else {
      buf_d_[l % 2].resize(static_cast<std::size_t>(n));
      dst = buf_d_[l % 2].data();
    }
    kern::gemm_bias_f64(layer.wd.data(), layer.pd.data(), layer.bd.data(), src,
                        dst, batch, layer.in, layer.out);
    if (!is_last) {
      if (act_ == Activation::kTanh) {
        kern::tanh_inplace_f64(dst, n);
      } else {
        relu_inplace_f64(dst, n);
      }
      src = dst;
    }
  }
}

void InferenceModel::forward_f32(std::span<const double> x, std::int32_t batch,
                                 std::span<double> y) {
  // Inputs narrow once at entry; the final layer widens back to double.
  buf_f_[0].resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    buf_f_[0][i] = static_cast<float>(x[i]);
  }
  const float* src = buf_f_[0].data();
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    const bool is_last = (l + 1 == layers_.size());
    const std::int64_t n = static_cast<std::int64_t>(batch) * layer.out;
    // Ping-pong buffers offset by one so layer 0 never overwrites its own
    // input plane (buf_f_[0] holds the narrowed x).
    std::vector<float>& out_buf = buf_f_[(l + 1) % 2];
    out_buf.resize(static_cast<std::size_t>(n));
    float* dst = out_buf.data();
    kern::gemm_bias_f32(layer.wf.data(), layer.pf.data(), layer.bf.data(), src,
                        dst, batch, layer.in, layer.out);
    if (is_last) {
      for (std::int64_t i = 0; i < n; ++i) {
        y[static_cast<std::size_t>(i)] = static_cast<double>(dst[i]);
      }
      return;
    }
    if (act_ == Activation::kTanh) {
      kern::tanh_inplace_f32(dst, n);
    } else {
      relu_inplace_f32(dst, n);
    }
    src = dst;
  }
}

void InferenceModel::forward_s8(std::span<const double> x, std::int32_t batch,
                                std::span<double> y) {
  // Activations stay fp32 between layers; each layer re-quantizes its input
  // plane with a per-sample dynamic scale (max|row| / 127) through
  // kern::quantize_rows_s8, runs the exact int32 GEMM and applies
  // bias + (row scale * sample scale) in fp32.
  buf_f_[0].resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    buf_f_[0][i] = static_cast<float>(x[i]);
  }
  const float* src = buf_f_[0].data();
  sx_.resize(static_cast<std::size_t>(batch));
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    const bool is_last = (l + 1 == layers_.size());
    const std::size_t in_plane =
        static_cast<std::size_t>(batch) * static_cast<std::size_t>(layer.in);
    xq_.resize(in_plane);
    kern::quantize_rows_s8(src, xq_.data(), sx_.data(), batch, layer.in);
    const std::int64_t n = static_cast<std::int64_t>(batch) * layer.out;
    acc_.resize(static_cast<std::size_t>(n));
    kern::gemm_s8i32(layer.wq.data(), xq_.data(), acc_.data(), batch, layer.in,
                     layer.out);
    std::vector<float>& out_buf = buf_f_[(l + 1) % 2];
    out_buf.resize(static_cast<std::size_t>(n));
    float* dst = out_buf.data();
    for (std::int32_t s = 0; s < batch; ++s) {
      const std::int32_t* arow = &acc_[static_cast<std::size_t>(s) * layer.out];
      float* yrow = dst + static_cast<std::size_t>(s) * layer.out;
      const float sxs = sx_[static_cast<std::size_t>(s)];
      for (std::int32_t o = 0; o < layer.out; ++o) {
        const float m = layer.scale[static_cast<std::size_t>(o)] * sxs;
        yrow[o] = layer.bf[static_cast<std::size_t>(o)] +
                  m * static_cast<float>(arow[o]);
      }
    }
    if (is_last) {
      for (std::int64_t i = 0; i < n; ++i) {
        y[static_cast<std::size_t>(i)] = static_cast<double>(dst[i]);
      }
      return;
    }
    if (act_ == Activation::kTanh) {
      kern::tanh_inplace_f32(dst, n);
    } else {
      relu_inplace_f32(dst, n);
    }
    src = dst;
  }
}

std::vector<double> InferenceModel::dequantized_weights(std::size_t l) const {
  const Layer& layer = layers_[l];
  std::vector<double> w(static_cast<std::size_t>(layer.in) *
                        static_cast<std::size_t>(layer.out));
  switch (precision_) {
    case InferPrecision::kFp64:
      w.assign(layer.wd.begin(), layer.wd.end());
      break;
    case InferPrecision::kFp32:
      for (std::size_t i = 0; i < w.size(); ++i) {
        w[i] = static_cast<double>(layer.wf[i]);
      }
      break;
    case InferPrecision::kInt8:
      for (std::int32_t o = 0; o < layer.out; ++o) {
        const auto s =
            static_cast<double>(layer.scale[static_cast<std::size_t>(o)]);
        for (std::int32_t i = 0; i < layer.in; ++i) {
          const std::size_t idx =
              static_cast<std::size_t>(o) * layer.in + static_cast<std::size_t>(i);
          w[idx] = s * static_cast<double>(layer.wq[idx]);
        }
      }
      break;
  }
  return w;
}

std::vector<double> InferenceModel::dequantized_biases(std::size_t l) const {
  const Layer& layer = layers_[l];
  std::vector<double> b(static_cast<std::size_t>(layer.out));
  if (precision_ == InferPrecision::kFp64) {
    b.assign(layer.bd.begin(), layer.bd.end());
  } else {
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = static_cast<double>(layer.bf[i]);
    }
  }
  return b;
}

double InferenceModel::weight_row_scale(std::size_t l, std::int32_t row) const {
  assert(precision_ == InferPrecision::kInt8);
  return static_cast<double>(layers_[l].scale[static_cast<std::size_t>(row)]);
}

// ---------------------------------------------------------------------------
// PolicyServer
// ---------------------------------------------------------------------------

bool PolicyServer::install(const PpoAgent& agent, InferPrecision precision) {
  heads_.resize(agent.num_heads());
  head_sizes_.resize(agent.num_heads());
  for (std::size_t h = 0; h < heads_.size(); ++h) {
    if (!heads_[h].quantize(agent.actor_head(h), precision)) {
      ready_ = false;
      return false;
    }
    head_sizes_[h] = agent.actor_head(h).output_size();
  }
  precision_ = precision;
  version_ = agent.weights_version();
  ready_ = !heads_.empty();
  return ready_;
}

bool PolicyServer::refresh(const PpoAgent& agent) {
  if (!ready_) return false;
  if (agent.weights_version() == version_) return true;
  for (std::size_t h = 0; h < heads_.size(); ++h) {
    if (!heads_[h].quantize(agent.actor_head(h), precision_)) {
      // Keep serving the last good snapshot; the caller decides whether to
      // fall back to kDirect decisions (guardrails own the poisoned policy).
      return false;
    }
  }
  version_ = agent.weights_version();
  return true;
}

void PolicyServer::reserve(std::int32_t batch) {
  std::int32_t max_head = 0;
  for (std::size_t h = 0; h < heads_.size(); ++h) {
    heads_[h].reserve(batch);
    max_head = std::max(max_head, head_sizes_[h]);
  }
  logits_.reserve(static_cast<std::size_t>(batch) *
                  static_cast<std::size_t>(max_head));
}

void PolicyServer::serve_greedy(std::span<const double> states,
                                std::int32_t batch,
                                std::span<std::int32_t> actions) {
  assert(ready_);
  assert(actions.size() ==
         static_cast<std::size_t>(batch) * heads_.size());
  const std::size_t num_heads = heads_.size();
  for (std::size_t h = 0; h < num_heads; ++h) {
    const auto nh = static_cast<std::size_t>(head_sizes_[h]);
    logits_.resize(static_cast<std::size_t>(batch) * nh);
    heads_[h].forward_batch(states, batch, logits_);
    for (std::int32_t s = 0; s < batch; ++s) {
      const std::span<const double> row(
          &logits_[static_cast<std::size_t>(s) * nh], nh);
      actions[static_cast<std::size_t>(s) * num_heads + h] = argmax(row);
    }
  }
}

}  // namespace pet::rl
