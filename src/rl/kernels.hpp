#pragma once
// Batched dense kernels for the RL hot path. Every kernel has a scalar
// reference implementation and (on x86-64) an AVX2 implementation selected
// by runtime dispatch; the two produce bitwise-identical results:
//
//  - f64: each output accumulates inputs in ascending order with separate
//    multiply and add roundings (no FMA contraction) — the exact floating-
//    point sequence of the naive per-sample loop, so the batched/AVX2 path
//    is a pure reordering of the training forward and goldens are safe.
//  - f32: each output is one fused-multiply-add chain in ascending order;
//    the scalar path uses std::fma(float) which is the same IEEE operation
//    as one vfmadd lane.
//  - s8:  exact int32 arithmetic (order-independent), scales applied by the
//    caller in a fixed scalar sequence; activation quantization rounds the
//    single-precision product to nearest-even and clamps in the float
//    domain, the same operation chain on every backend.
//
// The fp64 training kernels follow the same rule: every element sees the
// operation sequence of the naive scalar loop, with separate multiply and
// add roundings.
//
// Results are therefore a function of the *precision*, never of the machine
// the binary happens to run on.
//
// The dense GEMMs read their weights twice over: row-major (the scalar
// backend and the rows left over after the last full tile) and as a pack of
// interleaved row tiles (the AVX2 body). Packs are built by the owner of the
// weights whenever the weights change (rl::Linear after every write,
// rl::InferenceModel at quantize time), never by the kernels, so a forward
// pass is read-only and allocation-free.

#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__GNUC__) || defined(__clang__)
#define PET_KERN_RESTRICT __restrict__
#else
#define PET_KERN_RESTRICT
#endif

namespace pet::rl::kern {

enum class Backend : std::uint8_t { kScalar = 0, kAvx2 = 1 };

/// True when the CPU supports the AVX2 kernels (always false off x86-64).
[[nodiscard]] bool avx2_supported();

/// Backend the next kernel call will use. Defaults to runtime detection
/// (kAvx2 when supported, kScalar otherwise).
[[nodiscard]] Backend active_backend();

/// Pin the backend (tests and benchmarks); requests for an unsupported
/// backend clamp to kScalar. The setting is process-global.
void set_backend(Backend backend);

/// Restore runtime detection.
void reset_backend();

/// Rebuild `pack` from row-major `w` (out x in) in the layout the AVX2
/// gemm_bias_f64 reads: full 4-row tiles, tile t holding element (r, i) at
/// pack[t*4*in + i*4 + r], so one vector load yields column i of the tile.
/// The out % 4 remainder rows stay in `w`. Re-packing the same shape reuses
/// the storage (no allocation).
void pack_weights_f64(const double* w, std::int32_t in, std::int32_t out,
                      std::vector<double>& pack);

/// fp32 counterpart for gemm_bias_f32: 8-row tiles, out % 8 rows in `w`.
void pack_weights_f32(const float* w, std::int32_t in, std::int32_t out,
                      std::vector<float>& pack);

/// y[s,o] = b[o] + sum_i w[o,i] * x[s,i] over row-major operands:
/// `w` is (out x in), `x` is (batch x in), `y` is (batch x out), and `pack`
/// is pack_weights_f64 of the current `w` (the caller keeps it in step).
/// The AVX2 path runs four samples at a time over two tiles, eight
/// independent accumulator chains, and the remainder rows four samples at a
/// time too; each chain is still the scalar ascending mul-then-add sequence.
/// Calls never allocate.
void gemm_bias_f64(const double* PET_KERN_RESTRICT w,
                   const double* PET_KERN_RESTRICT pack,
                   const double* PET_KERN_RESTRICT b,
                   const double* PET_KERN_RESTRICT x,
                   double* PET_KERN_RESTRICT y, std::int32_t batch,
                   std::int32_t in, std::int32_t out);

/// fp32 variant; one FMA chain per output (see header comment). `pack` is
/// pack_weights_f32 of the current `w`.
void gemm_bias_f32(const float* PET_KERN_RESTRICT w,
                   const float* PET_KERN_RESTRICT pack,
                   const float* PET_KERN_RESTRICT b,
                   const float* PET_KERN_RESTRICT x,
                   float* PET_KERN_RESTRICT y, std::int32_t batch,
                   std::int32_t in, std::int32_t out);

/// Exact int32 accumulation acc[s,o] = sum_i w[o,i] * x[s,i] of int8
/// operands. Safe against overflow for in <= 2^16 (|product| <= 127^2).
/// The caller applies bias and scales.
void gemm_s8i32(const std::int8_t* PET_KERN_RESTRICT w,
                const std::int8_t* PET_KERN_RESTRICT x,
                std::int32_t* PET_KERN_RESTRICT acc, std::int32_t batch,
                std::int32_t in, std::int32_t out);

/// Per-sample dynamic int8 quantization of a (batch x in) row-major fp32
/// activation plane. For each row s: sx[s] = max|row| / 127 and
/// q[s,i] = clamp(rne(x[s,i] * (127 / max|row|)), -127, 127), where rne is
/// round-to-nearest-even of the single-precision product; an all-zero row
/// emits sx[s] = 0 and a zero q row. Inputs must be finite (quantize()
/// validates weights; activations are finite by construction). Scalar and
/// AVX2 backends run the identical operation sequence, so the quantized
/// plane and scales are bitwise backend-independent.
void quantize_rows_s8(const float* PET_KERN_RESTRICT x,
                      std::int8_t* PET_KERN_RESTRICT q,
                      float* PET_KERN_RESTRICT sx, std::int32_t batch,
                      std::int32_t in);

/// Elementwise tanh for the fp64 inference path: exactly std::tanh per
/// element (bitwise-matching the training-path activation), all backends.
void tanh_inplace_f64(double* v, std::int64_t n);

/// Elementwise tanh for the fp32/int8 inference paths: a clamped rational
/// minimax approximation (|error vs std::tanh| <= 2e-6 over all finite
/// inputs; NaN is outside the domain). Scalar and AVX2 apply the identical
/// operation sequence, so the result is bitwise backend-independent.
void tanh_inplace_f32(float* v, std::int64_t n);

// --- training kernels (fp64) -------------------------------------------------

/// Batched backward of y = W x + b over row-major operands: `w` is
/// (out x in), `x` is (batch x in), `dy` is (batch x out). Accumulates
/// gw[o,i] += dy[s,o] * x[s,i] and gb[o] += dy[s,o], and when `dx` is not
/// null overwrites it (batch x in) with dx[s,i] = sum_o dy[s,o] * w[o,i].
/// Zero upstream gradients are skipped. Per parameter, samples accumulate in
/// ascending order; per input gradient, outputs accumulate in ascending
/// order, so the result is bitwise the sequential per-sample loop.
void linear_backward_f64(const double* PET_KERN_RESTRICT w,
                         const double* PET_KERN_RESTRICT x,
                         const double* PET_KERN_RESTRICT dy,
                         double* PET_KERN_RESTRICT gw,
                         double* PET_KERN_RESTRICT gb,
                         double* PET_KERN_RESTRICT dx, std::int32_t batch,
                         std::int32_t in, std::int32_t out);

/// Per-step constants of one Adam update (see adam_update_f64).
struct AdamStep {
  double lr;
  double beta1;
  double beta2;
  double eps;
  double bc1;    // 1 - beta1^t
  double bc2;    // 1 - beta2^t
  double scale;  // gradient clip factor
};

/// Adam's per-parameter update over one contiguous block of `n`
/// parameters, their gradients and both moments. Element i runs
///   g = grads[i] * scale
///   m = beta1 * m + (1 - beta1) * g
///   v = beta2 * v + (1 - beta2) * g * g
///   params[i] -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
/// in exactly this order on every backend. Elements are independent, so
/// splitting a parameter vector into blocks never changes a bit.
void adam_update_f64(double* PET_KERN_RESTRICT params,
                     const double* PET_KERN_RESTRICT grads,
                     double* PET_KERN_RESTRICT m, double* PET_KERN_RESTRICT v,
                     std::size_t n, const AdamStep& step);

}  // namespace pet::rl::kern
