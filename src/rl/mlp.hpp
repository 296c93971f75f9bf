#pragma once
// Small dense networks with explicit backpropagation. The policy/value
// networks in this problem are tiny (tens of inputs, two hidden layers), so
// a hand-rolled MLP with numerically verified gradients replaces the
// paper's PyTorch dependency.

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

  /// Read-only parameter views (row-major out x in), for inference-only
  /// snapshots (rl::InferenceModel) and test oracles.
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

  /// Architecture introspection for inference-only weight snapshots.
  [[nodiscard]] const std::vector<std::int32_t>& sizes() const {
    return sizes_;
  }
  [[nodiscard]] Activation activation() const { return act_; }
  [[nodiscard]] std::size_t num_layers() const { return layers_.size(); }
  [[nodiscard]] const Linear& layer(std::size_t l) const { return layers_[l]; }

  /// Per-layer activations captured by forward_batch, consumed by
  /// backward_batch. Layer l holds row-major (batch x sizes_[l+1]) planes:
  /// `pre` before the activation, `post` after it (the output layer has no
  /// activation, so its two planes are equal). forward_batch writes the
  /// planes in place, so a reused cache keeps their storage.
  struct BatchCache {
    std::int32_t batch = 0;
    std::vector<std::vector<double>> pre;
    std::vector<std::vector<double>> post;
  };

  /// Forward pass: `x` is row-major (batch x input_size()); returns
  /// row-major (batch x output_size()). There is no per-sample twin: one
  /// observation is a batch of one, and a batch of N is bitwise N one-row
  /// calls (rows never mix).
  [[nodiscard]] std::vector<double> forward_batch(
      std::span<const double> x, std::int32_t batch,
      BatchCache* cache = nullptr) const;

  /// Backprop of `dy` (batch x output_size()); accumulates parameter
  /// gradients for the whole batch. When `dx` is non-empty it receives
  /// dL/dx (batch x input_size()); left empty, the first layer's input
  /// gradient is never computed (training only needs the parameter
  /// gradients). `x` and `cache` must come from the matching forward_batch.
  /// Bitwise identical to one-row calls over the same samples in order.
  void backward_batch(std::span<const double> x, const BatchCache& cache,
                      std::span<const double> dy, std::int32_t batch,
                      std::span<double> dx = {});

  void zero_grad();
  void collect(ParamRefs& refs);

  [[nodiscard]] std::size_t num_params() const;

 private:
  std::vector<std::int32_t> sizes_;
  Activation act_;
  std::vector<Linear> layers_;
};

/// Snapshot / restore all parameters of `refs` in flat order (model
/// serialization and target-network sync): one block copy per layer
/// weights and biases. restore_params rebuilds each layer's packed weights.
[[nodiscard]] std::vector<double> snapshot_params(const ParamRefs& refs);
void restore_params(const ParamRefs& refs, std::span<const double> values);
/// The accumulated gradients of `refs`, in the same flat order.
[[nodiscard]] std::vector<double> snapshot_grads(const ParamRefs& refs);

}  // namespace pet::rl
