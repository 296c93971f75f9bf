#pragma once
// Batched fp64 dense kernels for the RL hot path: the forward GEMM, the
// linear backward pass and Adam's update. Every kernel has a scalar
// reference implementation and (on x86-64) an AVX2 implementation selected
// by runtime dispatch; the two produce bitwise-identical results. Every
// element sees the operation sequence of the naive scalar loop, with
// separate multiply and add roundings (no FMA contraction), so the
// batched/AVX2 path is a pure reordering of the per-sample loop and goldens
// are safe. Results are therefore a function of the inputs, never of the
// machine the binary happens to run on.
//
// The dense GEMM reads its weights twice over: row-major (the scalar
// backend and the rows left over after the last full tile) and as a pack of
// interleaved row tiles (the AVX2 body). Packs are built by the owner of the
// weights whenever the weights change (rl::Linear after every write), never
// by the kernels, so a forward pass is read-only and allocation-free.

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

// --- backward pass and optimizer ---------------------------------------------

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
