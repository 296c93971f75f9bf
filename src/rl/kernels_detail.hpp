#pragma once
// Private declarations shared between kernels.cpp (scalar + dispatch) and
// kernels_avx2.cpp (the target("avx2")-attributed implementations). Not an
// installed/public header.

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "rl/kernels.hpp"

namespace pet::rl::kern::detail {

// Defined in kernels_avx2.cpp. On non-x86-64 builds these are stubs that
// must never be reached (dispatch reports avx2 unsupported).
void gemm_bias_f64_avx2(const double* w, const double* pack, const double* b,
                        const double* x, double* y, std::int32_t batch,
                        std::int32_t in, std::int32_t out);
void linear_backward_f64_avx2(const double* w, const double* x,
                              const double* dy, double* gw, double* gb,
                              double* dx, std::int32_t batch, std::int32_t in,
                              std::int32_t out);
void adam_update_f64_avx2(double* params, const double* grads, double* m,
                          double* v, std::size_t n, const AdamStep& step);
[[nodiscard]] bool cpu_has_avx2();

/// One Adam parameter update in the operation order adam_update_f64
/// documents. The scalar backend and the AVX2 remainder loop call this
/// helper, so tails match the vector body's lanes bitwise.
inline void adam_lane(double& param, double grad, double& m, double& v,
                      const AdamStep& step) {
  const double g = grad * step.scale;
  m = step.beta1 * m + (1.0 - step.beta1) * g;
  v = step.beta2 * v + (1.0 - step.beta2) * g * g;
  const double mhat = m / step.bc1;
  const double vhat = v / step.bc2;
  param -= step.lr * mhat / (std::sqrt(vhat) + step.eps);
}

}  // namespace pet::rl::kern::detail
