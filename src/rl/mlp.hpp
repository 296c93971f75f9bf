#pragma once
// Small dense networks with explicit backpropagation. The policy/value
// networks in this problem are tiny (tens of inputs, two hidden layers), so
// a hand-rolled MLP with numerically verified gradients replaces the
// paper's PyTorch dependency.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "rl/kernels.hpp"
#include "sim/rng.hpp"

namespace pet::rl {

class Linear;

/// The layers collected from one or more modules, in the flat parameter
/// order optimizers and snapshots use: layer by layer, each layer's weights
/// (row-major) then its biases. It holds whole layers, never a pointer to a
/// single parameter, so every write goes through a Linear member that
/// rebuilds the layer's packed weights. Layers stay valid for the module
/// lifetime (an Mlp never reallocates its layers).
struct ParamRefs {
  std::vector<Linear*> layers;

  /// Total parameter count over all layers.
  [[nodiscard]] std::size_t size() const;
};

/// Fully connected layer y = W x + b with gradient accumulation. The layer
/// keeps a second copy of W in the GEMM's tile layout (kern::pack_weights_f64)
/// and rebuilds it at the end of every member that writes parameters
/// (construction, set_params, adam_step), so forward_batch is const,
/// read-only and never repacks.
class Linear {
 public:
  Linear(std::int32_t in, std::int32_t out, sim::Rng& rng);

  [[nodiscard]] std::int32_t in_size() const { return in_; }
  [[nodiscard]] std::int32_t out_size() const { return out_; }
  [[nodiscard]] std::size_t num_params() const {
    return w_.size() + b_.size();
  }

  /// Read-only parameter views (row-major out x in), for snapshots and
  /// test oracles.
  [[nodiscard]] std::span<const double> weights() const { return w_; }
  [[nodiscard]] std::span<const double> biases() const { return b_; }
  /// Read-only views of the accumulated gradients, same shapes.
  [[nodiscard]] std::span<const double> weight_grads() const { return gw_; }
  [[nodiscard]] std::span<const double> bias_grads() const { return gb_; }

  /// Forward over row-major matrices: `x` is (batch x in), `y` is
  /// (batch x out). A register-blocked GEMM that keeps each (sample, output)
  /// accumulation in ascending-input order, so every row is bitwise the
  /// result of a one-row call on that row.
  void forward_batch(std::span<const double> x, std::span<double> y,
                     std::int32_t batch) const;

  /// Accumulate dL/dW, dL/db from upstream gradients `dy` (batch x out) for
  /// inputs `x` (batch x in); if `dx` is non-empty (batch x in), also
  /// produce per-sample input gradients. Every parameter gradient adds its
  /// samples in ascending order, so a batch accumulates bitwise what one-row
  /// calls over the same rows in order would.
  void backward_batch(std::span<const double> x, std::span<const double> dy,
                      std::span<double> dx, std::int32_t batch);

  void zero_grad();
  void collect(ParamRefs& refs);

  /// Overwrite every parameter from `values` (num_params() long: weights
  /// row-major, then biases).
  void set_params(std::span<const double> values);
  /// set_params from another layer of the same shape.
  void copy_params(const Linear& other);

  /// One Adam update of every parameter from the accumulated gradients:
  /// the weights block, then the biases block. `m` and `v` hold this
  /// layer's num_params() moments in the same flat order.
  void adam_step(const kern::AdamStep& step, std::span<double> m,
                 std::span<double> v);

 private:
  void repack();

  std::int32_t in_;
  std::int32_t out_;
  std::vector<double> w_;   // out x in, row-major
  std::vector<double> b_;   // out
  std::vector<double> gw_;  // same shape as w_
  std::vector<double> gb_;
  std::vector<double> pack_;  // w_ in tile layout, rebuilt on each write
};

enum class Activation { kTanh, kRelu };

/// Multi-layer perceptron: Linear layers with `act` on hidden layers and a
/// linear output layer.
class Mlp {
 public:
  /// sizes = {input, hidden..., output}; at least {input, output}.
  Mlp(std::vector<std::int32_t> sizes, Activation act, sim::Rng& rng);

  [[nodiscard]] std::int32_t input_size() const { return sizes_.front(); }
  [[nodiscard]] std::int32_t output_size() const { return sizes_.back(); }

  /// Architecture introspection (test oracles).
  [[nodiscard]] const std::vector<std::int32_t>& sizes() const {
    return sizes_;
  }
  [[nodiscard]] Activation activation() const { return act_; }
  [[nodiscard]] std::size_t num_layers() const { return layers_.size(); }
  [[nodiscard]] const Linear& layer(std::size_t l) const { return layers_[l]; }

  /// Per-layer activations captured by forward_batch, consumed by
  /// backward_batch. post[l] is layer l's row-major (batch x sizes_[l+1])
  /// output after its activation (the output layer has none). Backward
  /// reads every activation derivative from `post` alone (tanh' = 1 - y^2;
  /// ReLU passes where y > 0, which holds exactly where its input was > 0),
  /// so no pre-activation plane is kept. forward_batch writes the planes in
  /// place and backward_batch its two gradient planes, so a reused cache
  /// keeps all their storage and a warm pass allocates nothing.
  struct BatchCache {
    std::int32_t batch = 0;
    std::vector<std::vector<double>> post;
    std::vector<double> grad;
    std::vector<double> next_grad;
  };

  /// Forward pass: `x` is row-major (batch x input_size()); returns
  /// row-major (batch x output_size()). There is no per-sample twin: one
  /// observation is a batch of one, and a batch of N is bitwise N one-row
  /// calls (rows never mix).
  [[nodiscard]] std::vector<double> forward_batch(
      std::span<const double> x, std::int32_t batch,
      BatchCache* cache = nullptr) const;
  /// The same pass into `cache`; returns a view of its output plane.
  std::span<const double> forward_batch(std::span<const double> x,
                                        std::int32_t batch,
                                        BatchCache& cache) const;

  /// Size every plane of `cache` for passes of up to `batch` rows, so
  /// forward and backward passes through it allocate nothing. A cache
  /// sized by the net with the widest output also serves nets that differ
  /// from it only in output width.
  void reserve(BatchCache& cache, std::int32_t batch) const;

  /// Backprop of `dy` (batch x output_size()); accumulates parameter
  /// gradients for the whole batch. When `dx` is non-empty it receives
  /// dL/dx (batch x input_size()); left empty, the first layer's input
  /// gradient is never computed (training only needs the parameter
  /// gradients). `x` and `cache` must come from the matching forward_batch.
  /// Bitwise identical to one-row calls over the same samples in order.
  void backward_batch(std::span<const double> x, BatchCache& cache,
                      std::span<const double> dy, std::int32_t batch,
                      std::span<double> dx = {});

  void zero_grad();
  void collect(ParamRefs& refs);

  [[nodiscard]] std::size_t num_params() const;

 private:
  /// The one layer loop: into `cache`'s planes when given, else into the
  /// two `local` planes in turn. Returns the output plane.
  std::span<const double> forward_layers(
      std::span<const double> x, std::int32_t batch, BatchCache* cache,
      std::array<std::vector<double>, 2>& local) const;

  std::vector<std::int32_t> sizes_;
  Activation act_;
  std::vector<Linear> layers_;
};

/// Snapshot / restore all parameters of `refs` in flat order (model
/// serialization and target-network sync): one block copy per layer
/// weights and biases. restore_params rebuilds each layer's packed weights.
[[nodiscard]] std::vector<double> snapshot_params(const ParamRefs& refs);
void restore_params(const ParamRefs& refs, std::span<const double> values);
/// restore_params(to, snapshot_params(from)) layer by layer, without the
/// intermediate vector. `from` and `to` must have the same shapes.
void copy_params(const ParamRefs& from, const ParamRefs& to);
/// The accumulated gradients of `refs`, in the same flat order.
[[nodiscard]] std::vector<double> snapshot_grads(const ParamRefs& refs);

}  // namespace pet::rl
