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
void gemm_bias_f32_avx2(const float* w, const float* pack, const float* b,
                        const float* x, float* y, std::int32_t batch,
                        std::int32_t in, std::int32_t out);
void gemm_s8i32_avx2(const std::int8_t* w, const std::int8_t* x,
                     std::int32_t* acc, std::int32_t batch, std::int32_t in,
                     std::int32_t out);
void quantize_rows_s8_avx2(const float* x, std::int8_t* q, float* sx,
                           std::int32_t batch, std::int32_t in);
void tanh_inplace_f32_avx2(float* v, std::int64_t n);
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

// Round-to-nearest-even via the 1.5 * 2^23 magic constant: adding then
// subtracting forces the mantissa to integer precision under the default
// rounding mode (exact for |x| <= 2^22; larger magnitudes land beyond the
// clamp either way). The AVX2 plane kernel runs the same add/sub pair.
inline constexpr float kQuantMagic = 12582912.0f;

/// One int8 quantization lane: mul, magic-constant rne, clamp in the float
/// domain, exact integer conversion. The scalar backend and every AVX2
/// remainder loop call this helper, so row tails match the vector body's
/// operation sequence bitwise.
[[nodiscard]] inline std::int8_t quantize_lane_s8(float v, float inv) {
  const float scaled = v * inv;
  const float r = (scaled + kQuantMagic) - kQuantMagic;
  float c = r < -127.0f ? -127.0f : r;
  c = c > 127.0f ? 127.0f : c;
  // pet-lint: allow(quantize-narrowing): audited rne+clamp lane shared by all
  // kernel backends; c is integral in [-127, 127] so the cast is exact
  return static_cast<std::int8_t>(static_cast<std::int32_t>(c));
}

// Rational tanh approximation coefficients (minimax fit on [-7.9053, 7.9053],
// the classic 13/6-degree odd/even pair). Both backends consume the same
// constants in the same operation order so lanes match scalar bitwise.
inline constexpr float kTanhClamp = 7.90531110763549805f;
inline constexpr float kTanhAlpha1 = 4.89352455891786e-03f;
inline constexpr float kTanhAlpha3 = 6.37261928875436e-04f;
inline constexpr float kTanhAlpha5 = 1.48572235717979e-05f;
inline constexpr float kTanhAlpha7 = 5.12229709037114e-08f;
inline constexpr float kTanhAlpha9 = -8.60467152213735e-11f;
inline constexpr float kTanhAlpha11 = 2.00018790482477e-13f;
inline constexpr float kTanhAlpha13 = -2.76076847742355e-16f;
inline constexpr float kTanhBeta0 = 4.89352518554385e-03f;
inline constexpr float kTanhBeta2 = 2.26843463243900e-03f;
inline constexpr float kTanhBeta4 = 1.18534705686654e-04f;
inline constexpr float kTanhBeta6 = 1.19825839466702e-06f;

}  // namespace pet::rl::kern::detail
