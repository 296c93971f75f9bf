// AVX2 implementations of the rl::kern kernels, isolated in one TU behind
// function-level target attributes so the rest of the build keeps the
// portable baseline ISA. Dispatch (kernels.cpp) only calls into this TU
// after cpu_has_avx2() confirms AVX2+FMA at runtime.
//
// Bitwise contracts (see kernels.hpp):
//  - f64 uses target("avx2") WITHOUT fma so the compiler cannot contract
//    the mul+add pair; every lane reproduces the scalar two-rounding chain.
//  - f32 uses one vfmadd chain per output lane; the scalar fallback runs
//    the same IEEE fma sequence, so results match bitwise.
//  - s8 accumulates exactly in int32 (order-independent).
//  - the fp64 training kernels (linear backward, Adam) use target("avx2")
//    without fma like the f64 GEMM; each lane is one element of the scalar
//    loop, with the same operation order.

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "rl/kernels.hpp"
#include "rl/kernels_detail.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PET_KERN_X86 1
#else
#define PET_KERN_X86 0
#endif

namespace pet::rl::kern::detail {

#if PET_KERN_X86

bool cpu_has_avx2() {
  // The fp32 kernels need FMA as well; on x86-64 the two arrived together
  // (Haswell), so gate the whole AVX2 backend on both.
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") != 0;
}

namespace {

/// S consecutive samples (rows of `x` and `y`) through every output row of
/// one layer. `pack` interleaves full 4-row tiles: element (row r, input i)
/// of the tile at base row o sits at pack[o*in + i*4 + r]. Two tiles per
/// pass, then a lone tile, then the out % 4 remainder rows from `w`. Every
/// (sample, output) pair is its own accumulator chain that starts at the
/// bias and adds w[o,i] * x[s,i] for ascending i with separate multiply and
/// add roundings (this TU compiles the function without FMA), so the result
/// is bitwise the scalar reference. S only sets how many independent chains
/// are in flight to hide the add latency: 2 * S in the tile body.
template <int S>
__attribute__((target("avx2"))) inline void gemm_f64_samples(
    const double* w, const double* pack, const double* b, const double* x,
    double* y, std::int32_t in, std::int32_t out) {
  const std::int32_t full = out - out % 4;
  const std::size_t tile = 4 * static_cast<std::size_t>(in);
  const auto xrow = [&](int s) {
    return x + static_cast<std::size_t>(s) * in;
  };
  const auto yrow = [&](int s) {
    return y + static_cast<std::size_t>(s) * out;
  };
  std::int32_t o = 0;
  for (; o + 8 <= full; o += 8) {
    const double* p0 = pack + static_cast<std::size_t>(o) * in;
    const double* p1 = p0 + tile;
    __m256d acc0[S];
    __m256d acc1[S];
    for (int s = 0; s < S; ++s) {
      acc0[s] = _mm256_loadu_pd(b + o);
      acc1[s] = _mm256_loadu_pd(b + o + 4);
    }
    for (std::int32_t i = 0; i < in; ++i) {
      const __m256d w0 = _mm256_loadu_pd(p0 + 4 * i);
      const __m256d w1 = _mm256_loadu_pd(p1 + 4 * i);
      for (int s = 0; s < S; ++s) {
        const __m256d xv = _mm256_broadcast_sd(xrow(s) + i);
        acc0[s] = _mm256_add_pd(acc0[s], _mm256_mul_pd(w0, xv));
        acc1[s] = _mm256_add_pd(acc1[s], _mm256_mul_pd(w1, xv));
      }
    }
    for (int s = 0; s < S; ++s) {
      _mm256_storeu_pd(yrow(s) + o, acc0[s]);
      _mm256_storeu_pd(yrow(s) + o + 4, acc1[s]);
    }
  }
  if (o < full) {
    const double* p0 = pack + static_cast<std::size_t>(o) * in;
    __m256d acc[S];
    for (int s = 0; s < S; ++s) acc[s] = _mm256_loadu_pd(b + o);
    for (std::int32_t i = 0; i < in; ++i) {
      const __m256d w0 = _mm256_loadu_pd(p0 + 4 * i);
      for (int s = 0; s < S; ++s) {
        acc[s] = _mm256_add_pd(
            acc[s], _mm256_mul_pd(w0, _mm256_broadcast_sd(xrow(s) + i)));
      }
    }
    for (int s = 0; s < S; ++s) _mm256_storeu_pd(yrow(s) + o, acc[s]);
    o += 4;
  }
  for (; o < out; ++o) {
    const double* row = &w[static_cast<std::size_t>(o) * in];
    double acc[S];
    for (int s = 0; s < S; ++s) acc[s] = b[o];
    for (std::int32_t i = 0; i < in; ++i) {
      for (int s = 0; s < S; ++s) acc[s] += row[i] * xrow(s)[i];
    }
    for (int s = 0; s < S; ++s) yrow(s)[o] = acc[s];
  }
}

}  // namespace

__attribute__((target("avx2"))) void gemm_bias_f64_avx2(
    const double* w, const double* pack, const double* b, const double* x,
    double* y, std::int32_t batch, std::int32_t in, std::int32_t out) {
  // Four samples share every weight load; the last batch % 4 samples run
  // the same body one at a time.
  std::int32_t s = 0;
  for (; s + 4 <= batch; s += 4) {
    gemm_f64_samples<4>(w, pack, b, x + static_cast<std::size_t>(s) * in,
                        y + static_cast<std::size_t>(s) * out, in, out);
  }
  for (; s < batch; ++s) {
    gemm_f64_samples<1>(w, pack, b, x + static_cast<std::size_t>(s) * in,
                        y + static_cast<std::size_t>(s) * out, in, out);
  }
}

__attribute__((target("avx2,fma"))) void gemm_bias_f32_avx2(
    const float* w, const float* pack, const float* b, const float* x,
    float* y, std::int32_t batch, std::int32_t in, std::int32_t out) {
  // 8-row tiles: pack[o*in + i*8 + r] holds (row o+r, input i). Each lane
  // is one fused-multiply-add chain in ascending-input order; the scalar
  // remainder rows run the identical std::fma sequence.
  const std::int32_t full = out - out % 8;
  const std::size_t tile = 8 * static_cast<std::size_t>(in);
  for (std::int32_t s = 0; s < batch; ++s) {
    const float* xs = &x[static_cast<std::size_t>(s) * in];
    float* ys = &y[static_cast<std::size_t>(s) * out];
    std::int32_t o = 0;
    for (; o + 16 <= full; o += 16) {
      const float* p0 = pack + static_cast<std::size_t>(o) * in;
      const float* p1 = p0 + tile;
      __m256 acc0 = _mm256_loadu_ps(b + o);
      __m256 acc1 = _mm256_loadu_ps(b + o + 8);
      for (std::int32_t i = 0; i < in; ++i) {
        const __m256 xv = _mm256_broadcast_ss(xs + i);
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(p0 + 8 * i), xv, acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(p1 + 8 * i), xv, acc1);
      }
      _mm256_storeu_ps(ys + o, acc0);
      _mm256_storeu_ps(ys + o + 8, acc1);
    }
    for (; o + 8 <= full; o += 8) {
      const float* p0 = pack + static_cast<std::size_t>(o) * in;
      __m256 acc0 = _mm256_loadu_ps(b + o);
      for (std::int32_t i = 0; i < in; ++i) {
        const __m256 xv = _mm256_broadcast_ss(xs + i);
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(p0 + 8 * i), xv, acc0);
      }
      _mm256_storeu_ps(ys + o, acc0);
    }
    for (; o < out; ++o) {
      const float* row = &w[static_cast<std::size_t>(o) * in];
      float acc = b[o];
      for (std::int32_t i = 0; i < in; ++i) acc = std::fma(row[i], xs[i], acc);
      ys[o] = acc;
    }
  }
}

namespace {

__attribute__((target("avx2"))) inline std::int32_t hsum_epi32(__m256i v) {
  __m128i s =
      _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

}  // namespace

namespace {

/// Sign-extend 16 int8 lanes to int16 from `p`.
__attribute__((target("avx2"))) inline __m256i load_s8x16_epi16(
    const std::int8_t* p) {
  return _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

}  // namespace

__attribute__((target("avx2"))) void gemm_s8i32_avx2(
    const std::int8_t* w, const std::int8_t* x, std::int32_t* acc,
    std::int32_t batch, std::int32_t in, std::int32_t out) {
  // Horizontal dot products over the contiguous int8 weight rows:
  // sign-extend 16 int8 lanes to int16, _mm256_madd_epi16 pairs them into
  // int32 partials. Four output rows share each load of the input vector,
  // and their partial sums reduce together through one hadd tree instead of
  // four scalar horizontal sums. Integer addition is exact, so any
  // summation order gives the same accumulator as the scalar loop.
  for (std::int32_t s = 0; s < batch; ++s) {
    const std::int8_t* xs = &x[static_cast<std::size_t>(s) * in];
    std::int32_t* as = &acc[static_cast<std::size_t>(s) * out];
    std::int32_t o = 0;
    for (; o + 4 <= out; o += 4) {
      const std::int8_t* r0 = &w[static_cast<std::size_t>(o) * in];
      const std::int8_t* r1 = r0 + in;
      const std::int8_t* r2 = r1 + in;
      const std::int8_t* r3 = r2 + in;
      __m256i v0 = _mm256_setzero_si256();
      __m256i v1 = _mm256_setzero_si256();
      __m256i v2 = _mm256_setzero_si256();
      __m256i v3 = _mm256_setzero_si256();
      std::int32_t i = 0;
      for (; i + 16 <= in; i += 16) {
        const __m256i xv = load_s8x16_epi16(xs + i);
        v0 = _mm256_add_epi32(
            v0, _mm256_madd_epi16(load_s8x16_epi16(r0 + i), xv));
        v1 = _mm256_add_epi32(
            v1, _mm256_madd_epi16(load_s8x16_epi16(r1 + i), xv));
        v2 = _mm256_add_epi32(
            v2, _mm256_madd_epi16(load_s8x16_epi16(r2 + i), xv));
        v3 = _mm256_add_epi32(
            v3, _mm256_madd_epi16(load_s8x16_epi16(r3 + i), xv));
      }
      // hadd tree: lane k of `quad` ends up holding the full sum of v_k.
      const __m256i t01 = _mm256_hadd_epi32(v0, v1);
      const __m256i t23 = _mm256_hadd_epi32(v2, v3);
      const __m256i t = _mm256_hadd_epi32(t01, t23);
      __m128i quad = _mm_add_epi32(_mm256_castsi256_si128(t),
                                   _mm256_extracti128_si256(t, 1));
      if (i < in) {
        std::int32_t e0 = 0;
        std::int32_t e1 = 0;
        std::int32_t e2 = 0;
        std::int32_t e3 = 0;
        for (; i < in; ++i) {
          const auto xi = static_cast<std::int32_t>(xs[i]);
          e0 += static_cast<std::int32_t>(r0[i]) * xi;
          e1 += static_cast<std::int32_t>(r1[i]) * xi;
          e2 += static_cast<std::int32_t>(r2[i]) * xi;
          e3 += static_cast<std::int32_t>(r3[i]) * xi;
        }
        quad = _mm_add_epi32(quad, _mm_setr_epi32(e0, e1, e2, e3));
      }
      _mm_storeu_si128(reinterpret_cast<__m128i*>(as + o), quad);
    }
    for (; o < out; ++o) {
      const std::int8_t* row = &w[static_cast<std::size_t>(o) * in];
      __m256i vacc = _mm256_setzero_si256();
      std::int32_t i = 0;
      for (; i + 16 <= in; i += 16) {
        vacc = _mm256_add_epi32(
            vacc, _mm256_madd_epi16(load_s8x16_epi16(row + i),
                                    load_s8x16_epi16(xs + i)));
      }
      std::int32_t a = hsum_epi32(vacc);
      for (; i < in; ++i) {
        a += static_cast<std::int32_t>(row[i]) *
             static_cast<std::int32_t>(xs[i]);
      }
      as[o] = a;
    }
  }
}

__attribute__((target("avx2"))) void quantize_rows_s8_avx2(
    const float* x, std::int8_t* q, float* sx, std::int32_t batch,
    std::int32_t in) {
  // Compiled without FMA so the mul + magic add/sub pair below cannot be
  // contracted: every lane reproduces quantize_lane_s8 exactly.
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 magic = _mm256_set1_ps(kQuantMagic);
  const __m256 lo = _mm256_set1_ps(-127.0f);
  const __m256 hi = _mm256_set1_ps(127.0f);
  for (std::int32_t s = 0; s < batch; ++s) {
    const float* row = &x[static_cast<std::size_t>(s) * in];
    std::int8_t* qrow = &q[static_cast<std::size_t>(s) * in];
    __m256 vmax = _mm256_setzero_ps();
    std::int32_t i = 0;
    for (; i + 8 <= in; i += 8) {
      vmax = _mm256_max_ps(vmax,
                           _mm256_and_ps(_mm256_loadu_ps(row + i), abs_mask));
    }
    __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(vmax),
                           _mm256_extractf128_ps(vmax, 1));
    m4 = _mm_max_ps(m4, _mm_shuffle_ps(m4, m4, _MM_SHUFFLE(1, 0, 3, 2)));
    m4 = _mm_max_ps(m4, _mm_shuffle_ps(m4, m4, _MM_SHUFFLE(2, 3, 0, 1)));
    float max_abs = _mm_cvtss_f32(m4);
    for (; i < in; ++i) {
      const float a = std::fabs(row[i]);
      max_abs = a > max_abs ? a : max_abs;
    }
    if (max_abs == 0.0f) {
      sx[s] = 0.0f;
      for (i = 0; i < in; ++i) qrow[i] = 0;
      continue;
    }
    sx[s] = max_abs / 127.0f;
    const float inv = 127.0f / max_abs;
    const __m256 vinv = _mm256_set1_ps(inv);
    for (i = 0; i + 16 <= in; i += 16) {
      __m256 a = _mm256_mul_ps(_mm256_loadu_ps(row + i), vinv);
      __m256 b = _mm256_mul_ps(_mm256_loadu_ps(row + i + 8), vinv);
      a = _mm256_sub_ps(_mm256_add_ps(a, magic), magic);
      b = _mm256_sub_ps(_mm256_add_ps(b, magic), magic);
      a = _mm256_min_ps(_mm256_max_ps(a, lo), hi);
      b = _mm256_min_ps(_mm256_max_ps(b, lo), hi);
      // Values are integral in [-127, 127]: the i32 conversion is exact and
      // the saturating packs cannot saturate.
      const __m256i ai = _mm256_cvtps_epi32(a);
      const __m256i bi = _mm256_cvtps_epi32(b);
      __m256i p16 = _mm256_packs_epi32(ai, bi);
      p16 = _mm256_permute4x64_epi64(p16, _MM_SHUFFLE(3, 1, 2, 0));
      const __m128i p8 = _mm_packs_epi16(_mm256_castsi256_si128(p16),
                                         _mm256_extracti128_si256(p16, 1));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(qrow + i), p8);
    }
    for (; i < in; ++i) qrow[i] = quantize_lane_s8(row[i], inv);
  }
}

__attribute__((target("avx2,fma"))) void tanh_inplace_f32_avx2(
    float* v, std::int64_t n) {
  const __m256 clamp_hi = _mm256_set1_ps(kTanhClamp);
  const __m256 clamp_lo = _mm256_set1_ps(-kTanhClamp);
  const __m256 a13 = _mm256_set1_ps(kTanhAlpha13);
  const __m256 a11 = _mm256_set1_ps(kTanhAlpha11);
  const __m256 a9 = _mm256_set1_ps(kTanhAlpha9);
  const __m256 a7 = _mm256_set1_ps(kTanhAlpha7);
  const __m256 a5 = _mm256_set1_ps(kTanhAlpha5);
  const __m256 a3 = _mm256_set1_ps(kTanhAlpha3);
  const __m256 a1 = _mm256_set1_ps(kTanhAlpha1);
  const __m256 b6 = _mm256_set1_ps(kTanhBeta6);
  const __m256 b4 = _mm256_set1_ps(kTanhBeta4);
  const __m256 b2 = _mm256_set1_ps(kTanhBeta2);
  const __m256 b0 = _mm256_set1_ps(kTanhBeta0);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 x = _mm256_loadu_ps(v + i);
    x = _mm256_max_ps(x, clamp_lo);
    x = _mm256_min_ps(x, clamp_hi);
    const __m256 x2 = _mm256_mul_ps(x, x);
    __m256 p = _mm256_fmadd_ps(x2, a13, a11);
    p = _mm256_fmadd_ps(x2, p, a9);
    p = _mm256_fmadd_ps(x2, p, a7);
    p = _mm256_fmadd_ps(x2, p, a5);
    p = _mm256_fmadd_ps(x2, p, a3);
    p = _mm256_fmadd_ps(x2, p, a1);
    p = _mm256_mul_ps(x, p);
    __m256 q = _mm256_fmadd_ps(x2, b6, b4);
    q = _mm256_fmadd_ps(x2, q, b2);
    q = _mm256_fmadd_ps(x2, q, b0);
    _mm256_storeu_ps(v + i, _mm256_div_ps(p, q));
  }
  // Scalar tail: the identical operation sequence (std::fma is one vfmadd
  // lane), so vector vs scalar coverage of an element is indistinguishable.
  for (; i < n; ++i) {
    float xc = v[i] < -kTanhClamp ? -kTanhClamp : v[i];
    xc = xc > kTanhClamp ? kTanhClamp : xc;
    const float x2 = xc * xc;
    float p = std::fma(x2, kTanhAlpha13, kTanhAlpha11);
    p = std::fma(x2, p, kTanhAlpha9);
    p = std::fma(x2, p, kTanhAlpha7);
    p = std::fma(x2, p, kTanhAlpha5);
    p = std::fma(x2, p, kTanhAlpha3);
    p = std::fma(x2, p, kTanhAlpha1);
    p = xc * p;
    float q = std::fma(x2, kTanhBeta6, kTanhBeta4);
    q = std::fma(x2, q, kTanhBeta2);
    q = std::fma(x2, q, kTanhBeta0);
    v[i] = p / q;
  }
}

namespace {

/// acc[i] += g[k] * rows[idx[k] * in + i] for k = 0, 1, ... n-1 in that
/// order, each term a separate multiply and add. Sixteen inputs run as four
/// independent register chains; the remainder runs the same sequence in one
/// lane or in scalar code.
__attribute__((target("avx2"))) void axpy_rows(double* acc, const double* rows,
                                               const std::int32_t* idx,
                                               const double* g, std::int32_t n,
                                               std::int32_t in) {
  std::int32_t i = 0;
  for (; i + 16 <= in; i += 16) {
    __m256d a0 = _mm256_loadu_pd(acc + i);
    __m256d a1 = _mm256_loadu_pd(acc + i + 4);
    __m256d a2 = _mm256_loadu_pd(acc + i + 8);
    __m256d a3 = _mm256_loadu_pd(acc + i + 12);
    for (std::int32_t k = 0; k < n; ++k) {
      const __m256d gv = _mm256_broadcast_sd(g + k);
      const double* r = rows + static_cast<std::size_t>(idx[k]) * in + i;
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(gv, _mm256_loadu_pd(r)));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(gv, _mm256_loadu_pd(r + 4)));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(gv, _mm256_loadu_pd(r + 8)));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(gv, _mm256_loadu_pd(r + 12)));
    }
    _mm256_storeu_pd(acc + i, a0);
    _mm256_storeu_pd(acc + i + 4, a1);
    _mm256_storeu_pd(acc + i + 8, a2);
    _mm256_storeu_pd(acc + i + 12, a3);
  }
  for (; i + 4 <= in; i += 4) {
    __m256d a0 = _mm256_loadu_pd(acc + i);
    for (std::int32_t k = 0; k < n; ++k) {
      const double* r = rows + static_cast<std::size_t>(idx[k]) * in + i;
      a0 = _mm256_add_pd(
          a0, _mm256_mul_pd(_mm256_broadcast_sd(g + k), _mm256_loadu_pd(r)));
    }
    _mm256_storeu_pd(acc + i, a0);
  }
  for (; i < in; ++i) {
    double a = acc[i];
    for (std::int32_t k = 0; k < n; ++k) {
      a += g[k] * rows[static_cast<std::size_t>(idx[k]) * in + i];
    }
    acc[i] = a;
  }
}

}  // namespace

__attribute__((target("avx2"))) void linear_backward_f64_avx2(
    const double* w, const double* x, const double* dy, double* gw,
    double* gb, double* dx, std::int32_t batch, std::int32_t in,
    std::int32_t out) {
  // Two passes over the nonzero upstream gradients, each keeping its
  // accumulators in registers (this function is compiled without FMA):
  //  - weight gradients: per output o, the nonzero samples of column o in
  //    ascending order, so each gw[o,i] and gb[o] sees the samples in the
  //    scalar loop's order;
  //  - input gradients: per sample s, the nonzero outputs of row s in
  //    ascending order, starting from +0.0 as the scalar loop does.
  // Every element therefore gets the reference sequence of mul + add. The
  // nonzero lists live on the stack and cover kList samples (or outputs) at
  // a time; each block continues the previous block's chains in memory.
  constexpr std::int32_t kList = 64;
  std::int32_t nz_index[kList];
  double nz_grad[kList];
  for (std::int32_t o = 0; o < out; ++o) {
    double* grow = &gw[static_cast<std::size_t>(o) * in];
    for (std::int32_t s0 = 0; s0 < batch; s0 += kList) {
      const std::int32_t s1 = batch - s0 < kList ? batch : s0 + kList;
      std::int32_t n = 0;
      for (std::int32_t s = s0; s < s1; ++s) {
        const double g = dy[static_cast<std::size_t>(s) * out + o];
        nz_index[n] = s;
        nz_grad[n] = g;
        n += g != 0.0 ? 1 : 0;
      }
      for (std::int32_t k = 0; k < n; ++k) gb[o] += nz_grad[k];
      axpy_rows(grow, x, nz_index, nz_grad, n, in);
    }
  }
  if (dx == nullptr) return;
  for (std::int32_t s = 0; s < batch; ++s) {
    const double* dys = &dy[static_cast<std::size_t>(s) * out];
    double* dxs = &dx[static_cast<std::size_t>(s) * in];
    for (std::int32_t i = 0; i < in; ++i) dxs[i] = 0.0;
    for (std::int32_t o0 = 0; o0 < out; o0 += kList) {
      const std::int32_t o1 = out - o0 < kList ? out : o0 + kList;
      std::int32_t n = 0;
      for (std::int32_t o = o0; o < o1; ++o) {
        nz_index[n] = o;
        nz_grad[n] = dys[o];
        n += dys[o] != 0.0 ? 1 : 0;
      }
      axpy_rows(dxs, w, nz_index, nz_grad, n, in);
    }
  }
}

__attribute__((target("avx2"))) void adam_update_f64_avx2(
    double* params, const double* grads, double* m, double* v, std::size_t n,
    const AdamStep& step) {
  // Four parameters per pass over one contiguous block. Each lane runs
  // adam_lane's operation sequence (no FMA contraction; division and square
  // root are correctly rounded in both), and the remainder calls adam_lane.
  const __m256d scale = _mm256_set1_pd(step.scale);
  const __m256d b1 = _mm256_set1_pd(step.beta1);
  const __m256d c1 = _mm256_set1_pd(1.0 - step.beta1);
  const __m256d b2 = _mm256_set1_pd(step.beta2);
  const __m256d c2 = _mm256_set1_pd(1.0 - step.beta2);
  const __m256d bc1 = _mm256_set1_pd(step.bc1);
  const __m256d bc2 = _mm256_set1_pd(step.bc2);
  const __m256d lr = _mm256_set1_pd(step.lr);
  const __m256d eps = _mm256_set1_pd(step.eps);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d g = _mm256_mul_pd(_mm256_loadu_pd(grads + i), scale);
    const __m256d mi = _mm256_add_pd(_mm256_mul_pd(b1, _mm256_loadu_pd(m + i)),
                                     _mm256_mul_pd(c1, g));
    const __m256d vi =
        _mm256_add_pd(_mm256_mul_pd(b2, _mm256_loadu_pd(v + i)),
                      _mm256_mul_pd(_mm256_mul_pd(c2, g), g));
    _mm256_storeu_pd(m + i, mi);
    _mm256_storeu_pd(v + i, vi);
    const __m256d mhat = _mm256_div_pd(mi, bc1);
    const __m256d vhat = _mm256_div_pd(vi, bc2);
    const __m256d delta =
        _mm256_div_pd(_mm256_mul_pd(lr, mhat),
                      _mm256_add_pd(_mm256_sqrt_pd(vhat), eps));
    _mm256_storeu_pd(params + i,
                     _mm256_sub_pd(_mm256_loadu_pd(params + i), delta));
  }
  for (; i < n; ++i) adam_lane(params[i], grads[i], m[i], v[i], step);
}

#else  // !PET_KERN_X86

bool cpu_has_avx2() { return false; }

// Unreachable off x86 — dispatch never selects the AVX2 backend when
// cpu_has_avx2() is false.
void gemm_bias_f64_avx2(const double*, const double*, const double*,
                        const double*, double*, std::int32_t, std::int32_t,
                        std::int32_t) {}
void gemm_bias_f32_avx2(const float*, const float*, const float*,
                        const float*, float*, std::int32_t, std::int32_t,
                        std::int32_t) {}
void gemm_s8i32_avx2(const std::int8_t*, const std::int8_t*, std::int32_t*,
                     std::int32_t, std::int32_t, std::int32_t) {}
void quantize_rows_s8_avx2(const float*, std::int8_t*, float*, std::int32_t,
                           std::int32_t) {}
void tanh_inplace_f32_avx2(float*, std::int64_t) {}
void linear_backward_f64_avx2(const double*, const double*, const double*,
                              double*, double*, double*, std::int32_t,
                              std::int32_t, std::int32_t) {}
void adam_update_f64_avx2(double*, const double*, double*, double*,
                          std::size_t, const AdamStep&) {}

#endif  // PET_KERN_X86

}  // namespace pet::rl::kern::detail
