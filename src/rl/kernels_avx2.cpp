// AVX2 implementations of the rl::kern kernels, isolated in one TU behind
// function-level target attributes so the rest of the build keeps the
// portable baseline ISA. Dispatch (kernels.cpp) only calls into this TU
// after cpu_has_avx2() confirms AVX2 at runtime.
//
// Bitwise contract (see kernels.hpp): every kernel uses target("avx2")
// WITHOUT fma, so the compiler cannot contract a mul+add pair; each lane
// is one element of the scalar loop, with the same two-rounding operation
// order.

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

bool cpu_has_avx2() { return __builtin_cpu_supports("avx2") != 0; }

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
void linear_backward_f64_avx2(const double*, const double*, const double*,
                              double*, double*, double*, std::int32_t,
                              std::int32_t, std::int32_t) {}
void adam_update_f64_avx2(double*, const double*, double*, double*,
                          std::size_t, const AdamStep&) {}

#endif  // PET_KERN_X86

}  // namespace pet::rl::kern::detail
