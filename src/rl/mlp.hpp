#pragma once
// Small dense networks with explicit backpropagation. The policy/value
// networks in this problem are tiny (tens of inputs, two hidden layers), so
// a hand-rolled MLP with numerically verified gradients replaces the
// paper's PyTorch dependency.

#include <cstdint>
#include <span>
#include <vector>

#include "sim/checkpoint.hpp"
#include "sim/rng.hpp"

namespace pet::rl {

/// Parameter/gradient element pointers collected from modules; the flat
/// view optimizers operate on. Pointers stay valid for the module lifetime
/// (parameter vectors never resize).
struct ParamRefs {
  std::vector<double*> params;
  std::vector<double*> grads;

  [[nodiscard]] std::size_t size() const { return params.size(); }
};

/// Fully connected layer y = W x + b with gradient accumulation.
class Linear {
 public:
  Linear(std::int32_t in, std::int32_t out, sim::Rng& rng);

  [[nodiscard]] std::int32_t in_size() const { return in_; }
  [[nodiscard]] std::int32_t out_size() const { return out_; }

  /// Read-only parameter views (row-major out x in), for inference-only
  /// snapshots (rl::InferenceModel) and test oracles.
  [[nodiscard]] std::span<const double> weights() const { return w_; }
  [[nodiscard]] std::span<const double> biases() const { return b_; }

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

  /// Checkpoint the layer shape + parameters (gradients are transient and
  /// zeroed before every update, so they are not saved).
  void save_state(sim::ByteSink& out) const;
  /// Restores parameters; false (layer untouched) on a shape mismatch or
  /// truncated payload.
  [[nodiscard]] bool load_state(sim::ByteSource& in);

 private:
  std::int32_t in_;
  std::int32_t out_;
  std::vector<double> w_;   // out x in, row-major
  std::vector<double> b_;   // out
  std::vector<double> gw_;  // same shape as w_
  std::vector<double> gb_;
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
  /// backward_batch. Layer l holds row-major (batch x sizes_[l+1]) planes.
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
  /// gradients for the whole batch and returns dL/dx (batch x input_size()).
  /// `x` and `cache` must come from the matching forward_batch. Bitwise
  /// identical to one-row calls over the same samples in order.
  std::vector<double> backward_batch(std::span<const double> x,
                                     const BatchCache& cache,
                                     std::span<const double> dy,
                                     std::int32_t batch);

  void zero_grad();
  void collect(ParamRefs& refs);

  [[nodiscard]] std::size_t num_params() const;

  /// Checkpoint architecture fingerprint + all layer parameters.
  void save_state(sim::ByteSink& out) const;
  /// Restores all layers; false on an architecture mismatch (sizes or
  /// activation differ) or truncated payload.
  [[nodiscard]] bool load_state(sim::ByteSource& in);

 private:
  std::vector<std::int32_t> sizes_;
  Activation act_;
  std::vector<Linear> layers_;
};

/// Snapshot / restore all parameters reachable through `refs` (model
/// serialization and target-network sync).
[[nodiscard]] std::vector<double> snapshot_params(const ParamRefs& refs);
void restore_params(const ParamRefs& refs, std::span<const double> values);

}  // namespace pet::rl
