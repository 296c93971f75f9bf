#include "rl/kernels.hpp"

#include <atomic>
#include <cassert>

#include "rl/kernels_detail.hpp"

namespace pet::rl::kern {

namespace {

enum class Mode : std::uint8_t { kAuto = 0, kForceScalar, kForceAvx2 };

std::atomic<Mode> g_mode{Mode::kAuto};

[[nodiscard]] bool use_avx2() {
  switch (g_mode.load(std::memory_order_relaxed)) {
    case Mode::kForceScalar:
      return false;
    case Mode::kForceAvx2:
      return true;
    case Mode::kAuto:
      break;
  }
  static const bool supported = detail::cpu_has_avx2();
  return supported;
}

void gemm_bias_f64_scalar(const double* PET_KERN_RESTRICT w,
                          const double* PET_KERN_RESTRICT b,
                          const double* PET_KERN_RESTRICT x,
                          double* PET_KERN_RESTRICT y, std::int32_t batch,
                          std::int32_t in, std::int32_t out) {
  // Register blocking: four output rows share each load of the input row.
  // Every accumulator sums inputs in ascending order with separate multiply
  // and add roundings, so each output is bitwise identical to the naive
  // per-output loop (and to one AVX2 lane of the vector path).
  constexpr std::int32_t kRowTile = 4;
  for (std::int32_t s = 0; s < batch; ++s) {
    const double* xs = &x[static_cast<std::size_t>(s) * in];
    double* ys = &y[static_cast<std::size_t>(s) * out];
    std::int32_t o = 0;
    for (; o + kRowTile <= out; o += kRowTile) {
      const double* r0 = &w[static_cast<std::size_t>(o) * in];
      const double* r1 = r0 + in;
      const double* r2 = r1 + in;
      const double* r3 = r2 + in;
      double a0 = b[o];
      double a1 = b[o + 1];
      double a2 = b[o + 2];
      double a3 = b[o + 3];
      for (std::int32_t i = 0; i < in; ++i) {
        const double xi = xs[i];
        a0 += r0[i] * xi;
        a1 += r1[i] * xi;
        a2 += r2[i] * xi;
        a3 += r3[i] * xi;
      }
      ys[o] = a0;
      ys[o + 1] = a1;
      ys[o + 2] = a2;
      ys[o + 3] = a3;
    }
    for (; o < out; ++o) {
      const double* row = &w[static_cast<std::size_t>(o) * in];
      double acc = b[o];
      for (std::int32_t i = 0; i < in; ++i) acc += row[i] * xs[i];
      ys[o] = acc;
    }
  }
}

void linear_backward_f64_scalar(const double* PET_KERN_RESTRICT w,
                                const double* PET_KERN_RESTRICT x,
                                const double* PET_KERN_RESTRICT dy,
                                double* PET_KERN_RESTRICT gw,
                                double* PET_KERN_RESTRICT gb,
                                double* PET_KERN_RESTRICT dx,
                                std::int32_t batch, std::int32_t in,
                                std::int32_t out) {
  // The reference order: one sample at a time, exactly the loop a sequence
  // of one-row backward_batch() calls runs.
  for (std::int32_t s = 0; s < batch; ++s) {
    const double* xs = &x[static_cast<std::size_t>(s) * in];
    const double* dys = &dy[static_cast<std::size_t>(s) * out];
    double* dxs =
        dx == nullptr ? nullptr : &dx[static_cast<std::size_t>(s) * in];
    if (dxs != nullptr) {
      for (std::int32_t i = 0; i < in; ++i) dxs[i] = 0.0;
    }
    for (std::int32_t o = 0; o < out; ++o) {
      const double g = dys[o];
      if (g == 0.0) continue;
      double* grow = &gw[static_cast<std::size_t>(o) * in];
      const double* row = &w[static_cast<std::size_t>(o) * in];
      gb[o] += g;
      for (std::int32_t i = 0; i < in; ++i) {
        grow[i] += g * xs[i];
        if (dxs != nullptr) dxs[i] += g * row[i];
      }
    }
  }
}

}  // namespace

bool avx2_supported() { return detail::cpu_has_avx2(); }

Backend active_backend() {
  return use_avx2() ? Backend::kAvx2 : Backend::kScalar;
}

void set_backend(Backend backend) {
  if (backend == Backend::kAvx2 && !detail::cpu_has_avx2()) {
    backend = Backend::kScalar;
  }
  g_mode.store(backend == Backend::kAvx2 ? Mode::kForceAvx2
                                         : Mode::kForceScalar,
               std::memory_order_relaxed);
}

void reset_backend() { g_mode.store(Mode::kAuto, std::memory_order_relaxed); }

void pack_weights_f64(const double* w, std::int32_t in, std::int32_t out,
                      std::vector<double>& pack) {
  constexpr std::int32_t kRows = 4;
  const std::int32_t full = out - out % kRows;
  pack.resize(static_cast<std::size_t>(full) * static_cast<std::size_t>(in));
  double* p = pack.data();
  for (std::int32_t o = 0; o < full; o += kRows) {
    const double* base = w + static_cast<std::size_t>(o) * in;
    for (std::int32_t i = 0; i < in; ++i) {
      for (std::int32_t r = 0; r < kRows; ++r) {
        *p++ = base[static_cast<std::size_t>(r) * in + i];
      }
    }
  }
}

void gemm_bias_f64(const double* PET_KERN_RESTRICT w,
                   const double* PET_KERN_RESTRICT pack,
                   const double* PET_KERN_RESTRICT b,
                   const double* PET_KERN_RESTRICT x,
                   double* PET_KERN_RESTRICT y, std::int32_t batch,
                   std::int32_t in, std::int32_t out) {
  assert(batch >= 0 && in > 0 && out > 0);
  if (use_avx2()) {
    detail::gemm_bias_f64_avx2(w, pack, b, x, y, batch, in, out);
    return;
  }
  gemm_bias_f64_scalar(w, b, x, y, batch, in, out);
}

void linear_backward_f64(const double* PET_KERN_RESTRICT w,
                         const double* PET_KERN_RESTRICT x,
                         const double* PET_KERN_RESTRICT dy,
                         double* PET_KERN_RESTRICT gw,
                         double* PET_KERN_RESTRICT gb,
                         double* PET_KERN_RESTRICT dx, std::int32_t batch,
                         std::int32_t in, std::int32_t out) {
  assert(batch >= 0 && in > 0 && out > 0);
  if (use_avx2()) {
    detail::linear_backward_f64_avx2(w, x, dy, gw, gb, dx, batch, in, out);
    return;
  }
  linear_backward_f64_scalar(w, x, dy, gw, gb, dx, batch, in, out);
}

void adam_update_f64(double* PET_KERN_RESTRICT params,
                     const double* PET_KERN_RESTRICT grads,
                     double* PET_KERN_RESTRICT m, double* PET_KERN_RESTRICT v,
                     std::size_t n, const AdamStep& step) {
  if (use_avx2()) {
    detail::adam_update_f64_avx2(params, grads, m, v, n, step);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    detail::adam_lane(params[i], grads[i], m[i], v[i], step);
  }
}

}  // namespace pet::rl::kern
