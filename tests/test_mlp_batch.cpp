// The MLP has one pass per direction, forward_batch and backward_batch; a
// single observation is a batch of one. These tests pin two contracts with
// EXPECT_EQ on doubles — any reassociation of the floating-point sums is a
// failure:
//  - a batch of N is bitwise N single-row calls (rows never mix, and the
//    gradients of a batch accumulate samples in ascending order);
//  - each pass is bitwise the per-sample pass it replaced, rebuilt here from
//    the public weight views: one `acc = b; acc += w * x` chain per output
//    with inputs ascending, and a backward that adds each sample's
//    contribution in order, skipping zero upstream gradients.
// The shape sweep at the end holds the fp64 GEMM to both contracts on the
// scalar and AVX2 backends across every boundary of its blocking.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "rl/kernels.hpp"
#include "rl/mlp.hpp"
#include "sim/rng.hpp"

namespace pet::rl {
namespace {

std::vector<double> random_matrix(std::size_t rows, std::size_t cols,
                                  sim::Rng& rng) {
  std::vector<double> m(rows * cols);
  for (double& v : m) v = rng.uniform() * 2.0 - 1.0;
  return m;
}

std::span<const double> row_of(const std::vector<double>& m, std::int32_t r,
                               std::int32_t cols) {
  return std::span<const double>(m).subspan(
      static_cast<std::size_t>(r) * static_cast<std::size_t>(cols),
      static_cast<std::size_t>(cols));
}

/// Per-layer activations of one sample through the reference pass.
struct RefTrace {
  std::vector<std::vector<double>> pre;
  std::vector<std::vector<double>> post;
};

/// The per-sample forward the batched kernels replaced.
std::vector<double> reference_forward(const Mlp& mlp,
                                      std::span<const double> x,
                                      RefTrace* trace = nullptr) {
  std::vector<double> cur(x.begin(), x.end());
  for (std::size_t l = 0; l < mlp.num_layers(); ++l) {
    const Linear& layer = mlp.layer(l);
    const auto in = static_cast<std::size_t>(layer.in_size());
    std::vector<double> y(static_cast<std::size_t>(layer.out_size()));
    for (std::size_t o = 0; o < y.size(); ++o) {
      double acc = layer.biases()[o];
      for (std::size_t i = 0; i < in; ++i) {
        acc += layer.weights()[o * in + i] * cur[i];
      }
      y[o] = acc;
    }
    if (trace != nullptr) trace->pre.push_back(y);
    if (l + 1 < mlp.num_layers()) {
      for (double& v : y) {
        v = mlp.activation() == Activation::kTanh ? std::tanh(v)
                                                  : (v > 0.0 ? v : 0.0);
      }
    }
    if (trace != nullptr) trace->post.push_back(y);
    cur = std::move(y);
  }
  return cur;
}

/// The per-sample backward the batched kernels replaced: accumulates into
/// `grads` (per layer: weights then biases, the ParamRefs order) and
/// returns dL/dx.
std::vector<double> reference_backward(
    const Mlp& mlp, std::span<const double> x, const RefTrace& trace,
    std::span<const double> dy, std::vector<std::vector<double>>& grads) {
  std::vector<double> grad(dy.begin(), dy.end());
  for (std::size_t li = mlp.num_layers(); li-- > 0;) {
    const Linear& layer = mlp.layer(li);
    if (li + 1 < mlp.num_layers()) {
      for (std::size_t i = 0; i < grad.size(); ++i) {
        const double post = trace.post[li][i];
        grad[i] *= mlp.activation() == Activation::kTanh
                       ? 1.0 - post * post
                       : (trace.pre[li][i] > 0.0 ? 1.0 : 0.0);
      }
    }
    const std::span<const double> input =
        li == 0 ? x : std::span<const double>(trace.post[li - 1]);
    const auto in = static_cast<std::size_t>(layer.in_size());
    const std::size_t out = grad.size();
    std::vector<double>& g = grads[li];
    std::vector<double> dx(in, 0.0);
    for (std::size_t o = 0; o < out; ++o) {
      if (grad[o] == 0.0) continue;
      g[in * out + o] += grad[o];
      for (std::size_t i = 0; i < in; ++i) {
        g[o * in + i] += grad[o] * input[i];
        dx[i] += grad[o] * layer.weights()[o * in + i];
      }
    }
    grad = std::move(dx);
  }
  return grad;
}

std::vector<std::vector<double>> zero_grads(const Mlp& mlp) {
  std::vector<std::vector<double>> grads;
  for (std::size_t l = 0; l < mlp.num_layers(); ++l) {
    grads.emplace_back(mlp.layer(l).weights().size() +
                       mlp.layer(l).biases().size());
  }
  return grads;
}

TEST(MlpBatch, ForwardBatchBitwiseMatchesLoopedForward) {
  sim::Rng rng(11);
  const std::int32_t in = 7;
  const std::int32_t out = 5;
  for (const Activation act : {Activation::kTanh, Activation::kRelu}) {
    Mlp mlp({in, 16, 16, out}, act, rng);
    for (const std::int32_t batch : {1, 2, 3, 4, 5, 7, 8, 9, 33}) {
      const std::vector<double> x =
          random_matrix(static_cast<std::size_t>(batch),
                        static_cast<std::size_t>(in), rng);
      const std::vector<double> y = mlp.forward_batch(x, batch);
      ASSERT_EQ(y.size(), static_cast<std::size_t>(batch * out));
      for (std::int32_t b = 0; b < batch; ++b) {
        const std::span<const double> row = row_of(x, b, in);
        const std::vector<double> single = mlp.forward_batch(row, 1);
        const std::vector<double> ref = reference_forward(mlp, row);
        for (std::int32_t j = 0; j < out; ++j) {
          const double got = y[static_cast<std::size_t>(b * out + j)];
          // EXPECT_EQ, not NEAR: the contract is bitwise identity.
          EXPECT_EQ(got, single[static_cast<std::size_t>(j)])
              << "batch=" << batch << " sample=" << b << " out=" << j;
          EXPECT_EQ(got, ref[static_cast<std::size_t>(j)])
              << "batch=" << batch << " sample=" << b << " out=" << j;
        }
      }
    }
  }
}

TEST(MlpBatch, ForwardBatchCacheMatchesSingleSampleCache) {
  sim::Rng rng(12);
  Mlp mlp({4, 8, 3}, Activation::kRelu, rng);
  const std::int32_t batch = 6;
  const std::vector<double> x = random_matrix(6, 4, rng);

  Mlp::BatchCache bcache;
  (void)mlp.forward_batch(x, batch, &bcache);
  ASSERT_EQ(bcache.batch, batch);

  for (std::int32_t b = 0; b < batch; ++b) {
    Mlp::BatchCache cache;
    (void)mlp.forward_batch(row_of(x, b, 4), 1, &cache);
    RefTrace trace;
    (void)reference_forward(mlp, row_of(x, b, 4), &trace);
    ASSERT_EQ(bcache.post.size(), cache.post.size());
    ASSERT_EQ(cache.post.size(), trace.post.size());
    for (std::size_t l = 0; l < cache.post.size(); ++l) {
      const std::size_t width = cache.post[l].size();
      for (std::size_t j = 0; j < width; ++j) {
        const std::size_t at = static_cast<std::size_t>(b) * width + j;
        EXPECT_EQ(bcache.post[l][at], cache.post[l][j]);
        EXPECT_EQ(bcache.post[l][at], trace.post[l][j]);
      }
    }
  }
}

/// The reference reads ReLU's derivative from the pre-activation, the
/// network from its cached output alone.
void expect_backward_matches_looped(Activation act) {
  const std::int32_t in = 6;
  const std::int32_t out = 4;
  const std::int32_t batch = 5;

  // Two identically initialized networks: one trained a row at a time, one
  // by the whole batch.
  sim::Rng rng_a(21);
  sim::Rng rng_b(21);
  Mlp looped({in, 12, out}, act, rng_a);
  Mlp batched({in, 12, out}, act, rng_b);

  sim::Rng data_rng(22);
  const std::vector<double> x =
      random_matrix(static_cast<std::size_t>(batch),
                    static_cast<std::size_t>(in), data_rng);
  std::vector<double> dy =
      random_matrix(static_cast<std::size_t>(batch),
                    static_cast<std::size_t>(out), data_rng);
  // Exercise the `g == 0` skip path too.
  dy[1] = 0.0;
  dy[static_cast<std::size_t>(out) + 2] = 0.0;

  looped.zero_grad();
  std::vector<double> dx_looped;
  std::vector<double> dx_ref;
  std::vector<std::vector<double>> ref_grads = zero_grads(looped);
  for (std::int32_t b = 0; b < batch; ++b) {
    Mlp::BatchCache cache;
    (void)looped.forward_batch(row_of(x, b, in), 1, &cache);
    std::vector<double> dx(static_cast<std::size_t>(in));
    looped.backward_batch(row_of(x, b, in), cache, row_of(dy, b, out), 1, dx);
    dx_looped.insert(dx_looped.end(), dx.begin(), dx.end());

    RefTrace trace;
    (void)reference_forward(looped, row_of(x, b, in), &trace);
    const std::vector<double> rdx = reference_backward(
        looped, row_of(x, b, in), trace, row_of(dy, b, out), ref_grads);
    dx_ref.insert(dx_ref.end(), rdx.begin(), rdx.end());
  }

  batched.zero_grad();
  Mlp::BatchCache bcache;
  (void)batched.forward_batch(x, batch, &bcache);
  std::vector<double> dx_batched(x.size());
  batched.backward_batch(x, bcache, dy, batch, dx_batched);

  ASSERT_EQ(dx_batched.size(), dx_looped.size());
  ASSERT_EQ(dx_batched.size(), dx_ref.size());
  for (std::size_t i = 0; i < dx_looped.size(); ++i) {
    EXPECT_EQ(dx_batched[i], dx_looped[i]) << "dx element " << i;
    EXPECT_EQ(dx_batched[i], dx_ref[i]) << "dx element " << i;
  }

  ParamRefs ra;
  ParamRefs rb;
  looped.collect(ra);
  batched.collect(rb);
  std::vector<double> ref_flat;
  for (const std::vector<double>& g : ref_grads) {
    ref_flat.insert(ref_flat.end(), g.begin(), g.end());
  }
  const std::vector<double> ga = snapshot_grads(ra);
  const std::vector<double> gb = snapshot_grads(rb);
  ASSERT_EQ(ga.size(), gb.size());
  ASSERT_EQ(ref_flat.size(), gb.size());
  for (std::size_t i = 0; i < ga.size(); ++i) {
    EXPECT_EQ(ga[i], gb[i]) << "grad element " << i;
    EXPECT_EQ(ref_flat[i], gb[i]) << "grad element " << i;
  }
}

TEST(MlpBatch, BackwardBatchBitwiseMatchesLoopedBackward) {
  for (const Activation act : {Activation::kTanh, Activation::kRelu}) {
    SCOPED_TRACE(act == Activation::kTanh ? "tanh" : "relu");
    expect_backward_matches_looped(act);
  }
}

TEST(MlpBatch, NoCacheForwardMatchesCachedAndLeavesTrainingUntouched) {
  // Without a cache, forward_batch takes the inference fast path:
  // activations applied in place, no per-layer capture. That path must be
  // bitwise identical to the cached forward, and interleaving it with
  // training must not perturb the gradients of a subsequent backward pass.
  sim::Rng rng_a(41);
  sim::Rng rng_b(41);
  Mlp clean({5, 10, 4}, Activation::kTanh, rng_a);
  Mlp mixed({5, 10, 4}, Activation::kTanh, rng_b);

  sim::Rng data_rng(42);
  const std::int32_t batch = 4;
  const std::vector<double> x = random_matrix(4, 5, data_rng);
  const std::vector<double> dy = random_matrix(4, 4, data_rng);
  const std::vector<double> probe = random_matrix(3, 5, data_rng);

  // The no-cache output equals the cached output bit for bit.
  Mlp::BatchCache cache;
  const std::vector<double> y_cached = clean.forward_batch(x, batch, &cache);
  const std::vector<double> y_nocache = mixed.forward_batch(x, batch);
  ASSERT_EQ(y_cached.size(), y_nocache.size());
  for (std::size_t i = 0; i < y_cached.size(); ++i) {
    EXPECT_EQ(y_cached[i], y_nocache[i]) << "output element " << i;
  }

  // Reference gradients: one clean cached-forward + backward.
  clean.zero_grad();
  (void)clean.forward_batch(x, batch, &cache);
  clean.backward_batch(x, cache, dy, batch);

  // Same training step with inference traffic interleaved before, inside
  // and after it.
  mixed.zero_grad();
  (void)mixed.forward_batch(probe, 3);
  Mlp::BatchCache mixed_cache;
  (void)mixed.forward_batch(x, batch, &mixed_cache);
  (void)mixed.forward_batch(row_of(probe, 0, 5), 1);
  mixed.backward_batch(x, mixed_cache, dy, batch);

  ParamRefs ra;
  ParamRefs rb;
  clean.collect(ra);
  mixed.collect(rb);
  ASSERT_EQ(ra.size(), rb.size());
  const std::vector<double> pa = snapshot_params(ra);
  const std::vector<double> pb = snapshot_params(rb);
  const std::vector<double> ga = snapshot_grads(ra);
  const std::vector<double> gb = snapshot_grads(rb);
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(pa[i], pb[i]) << "param element " << i;
    EXPECT_EQ(ga[i], gb[i]) << "grad element " << i;
  }
}

TEST(MlpBatch, LinearBatchKernelsMatchSingleSample) {
  sim::Rng rng(31);
  const std::int32_t in = 9;
  const std::int32_t out = 7;  // not a multiple of the row tile
  Linear a(in, out, rng);

  sim::Rng data_rng(32);
  const std::int32_t batch = 3;
  const std::vector<double> x =
      random_matrix(static_cast<std::size_t>(batch),
                    static_cast<std::size_t>(in), data_rng);
  std::vector<double> y_batch(static_cast<std::size_t>(batch * out));
  a.forward_batch(x, y_batch, batch);
  for (std::int32_t b = 0; b < batch; ++b) {
    std::vector<double> y(static_cast<std::size_t>(out));
    a.forward_batch(row_of(x, b, in), y, 1);
    for (std::int32_t j = 0; j < out; ++j) {
      EXPECT_EQ(y_batch[static_cast<std::size_t>(b * out + j)],
                y[static_cast<std::size_t>(j)]);
    }
  }
}

/// Pin the kernel backend for a scope.
struct BackendGuard {
  explicit BackendGuard(kern::Backend b) { kern::set_backend(b); }
  ~BackendGuard() { kern::reset_backend(); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;
};

/// A (rows x cols) plane where about one value in four is a boundary value:
/// a signed zero, a subnormal, the smallest normal or an infinity (only
/// when `with_inf`).
std::vector<double> boundary_matrix(std::size_t rows, std::size_t cols,
                                    bool with_inf, sim::Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> special{0.0,     -0.0,    5e-324, -5e-324,
                                    1e-310,  -1e-310, 2.2250738585072014e-308,
                                    kInf,    -kInf};
  const std::size_t choices = with_inf ? special.size() : special.size() - 2;
  std::vector<double> m(rows * cols);
  for (double& v : m) {
    v = rng.uniform() < 0.25 ? special[rng.uniform_int(choices)]
                             : rng.uniform(-1.0, 1.0);
  }
  return m;
}

[[nodiscard]] bool same_bytes(std::span<const double> a,
                              std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The AVX2 fp64 GEMM runs four samples at a time over pairs of 4-row
/// tiles, then a lone tile, then the out % 4 remainder rows. Batches of 1,
/// 3, 4, 5, 7, 8, 9 and 33 cross every sample-block boundary; the output
/// widths cross every tile boundary; the inputs include signed zeros,
/// subnormals and infinities. For every shape, the scalar and AVX2 planes
/// are memcmp-equal, each equals one-row calls on every row, and each is
/// the naive ascending chain.
TEST(MlpBatch, GemmShapeSweepBitwiseAcrossBackendsAndBatching) {
  sim::Rng rng(51);
  for (const std::int32_t in : {1, 18, 24, 64}) {
    for (const std::int32_t out : {1, 3, 4, 5, 8, 10, 12, 20, 64}) {
      Linear layer(in, out, rng);
      ParamRefs refs;
      layer.collect(refs);
      restore_params(refs, boundary_matrix(layer.num_params(), 1,
                                           /*with_inf=*/false, rng));
      for (const std::int32_t batch : {1, 3, 4, 5, 7, 8, 9, 33}) {
        const auto rows = static_cast<std::size_t>(batch);
        const auto in_n = static_cast<std::size_t>(in);
        const auto out_n = static_cast<std::size_t>(out);
        const std::vector<double> x =
            boundary_matrix(rows, in_n, /*with_inf=*/true, rng);
        std::vector<double> ref(rows * out_n);
        for (std::size_t s = 0; s < rows; ++s) {
          for (std::size_t o = 0; o < out_n; ++o) {
            double acc = layer.biases()[o];
            for (std::size_t i = 0; i < in_n; ++i) {
              acc += layer.weights()[o * in_n + i] * x[s * in_n + i];
            }
            ref[s * out_n + o] = acc;
          }
        }
        std::vector<double> planes[2];
        const kern::Backend backends[2] = {kern::Backend::kScalar,
                                           kern::Backend::kAvx2};
        for (int k = 0; k < 2; ++k) {
          BackendGuard guard(backends[k]);
          planes[k].resize(rows * out_n);
          layer.forward_batch(x, planes[k], batch);
          for (std::int32_t s = 0; s < batch; ++s) {
            std::vector<double> one(out_n);
            layer.forward_batch(row_of(x, s, in), one, 1);
            EXPECT_TRUE(same_bytes(one, row_of(planes[k], s, out)))
                << "backend=" << k << " in=" << in << " out=" << out
                << " batch=" << batch << " sample=" << s;
          }
        }
        EXPECT_TRUE(same_bytes(planes[0], planes[1]))
            << "in=" << in << " out=" << out << " batch=" << batch;
        EXPECT_TRUE(same_bytes(planes[0], ref))
            << "in=" << in << " out=" << out << " batch=" << batch;
      }
    }
  }
}

}  // namespace
}  // namespace pet::rl
