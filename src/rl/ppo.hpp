#pragma once
// PPO with clipped surrogate objective (Schulman et al. 2017) over a
// factored discrete action space: one categorical head per action dimension
// (Kmin exponent, Kmax exponent, Pmax step), joint log-prob = sum of heads.
// The multi-agent IPPO scheme of the paper is "independent learning": every
// switch owns one of these agents and trains on its local trajectory only.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "rl/adam.hpp"
#include "rl/mlp.hpp"
#include "rl/rollout.hpp"
#include "sim/rng.hpp"

namespace pet::rl {

struct PpoConfig {
  std::int32_t input_size = 0;
  std::vector<std::int32_t> head_sizes;         // action dims
  std::vector<std::int32_t> hidden = {64, 64};  // per-network hidden layers
  double actor_lr = 4e-4;   // paper Section 5.2
  double critic_lr = 1e-3;  // paper Section 5.2
  double gamma = 0.99;
  double gae_lambda = 0.95;
  double clip_eps = 0.2;  // paper Section 5.2
  double entropy_coef = 0.04;
  std::int32_t update_epochs = 4;  // N optimization epochs per rollout
  std::int32_t minibatch_size = 64;
  double max_grad_norm = 0.5;
  std::uint64_t seed = 0;
};

class PpoAgent {
 public:
  explicit PpoAgent(const PpoConfig& cfg);

  struct ActResult {
    std::vector<std::int32_t> actions;
    double log_prob = 0.0;
    double value = 0.0;
  };

  /// Sample actions for row-major (batch x input_size) states — one policy
  /// evaluated for many agents/observations in a single pass. With
  /// probability `exploration[s]` a head of row s picks a uniformly random
  /// action instead of sampling the policy (the paper's decaying
  /// exploration, Eq. (13)); log_prob is always evaluated under the current
  /// policy so the PPO ratio stays well-defined. Row s draws only from
  /// `rngs[s]`, heads in order, so a batch of N returns and draws bitwise
  /// what N one-row calls in row order would.
  [[nodiscard]] std::vector<ActResult> act_batch(
      std::span<const double> states, std::int32_t batch,
      std::span<sim::Rng* const> rngs, std::span<const double> exploration);

  /// Deterministic (argmax per head) actions for row-major
  /// (batch x input_size) states; `actions` is row-major
  /// (batch x num_heads()). The fp64 reference PolicyServer::serve_greedy
  /// serves.
  void act_greedy_batch(std::span<const double> states, std::int32_t batch,
                        std::span<std::int32_t> actions) const;

  /// Critic value estimates for row-major (batch x input_size) states (a
  /// bootstrap for unfinished episodes is a batch of one).
  [[nodiscard]] std::vector<double> value_batch(std::span<const double> states,
                                                std::int32_t batch) const;

  /// Joint log-prob (under the current policy) and value for externally
  /// chosen actions — lets a deployment-mode agent act greedily while still
  /// feeding consistent transitions to PPO. `states` is
  /// (batch x input_size), `actions` is (batch x num_heads), both row-major.
  struct Evaluation {
    double log_prob = 0.0;
    double value = 0.0;
  };
  [[nodiscard]] std::vector<Evaluation> evaluate_batch(
      std::span<const double> states, std::span<const std::int32_t> actions,
      std::int32_t batch) const;

  struct UpdateStats {
    double policy_loss = 0.0;
    double value_loss = 0.0;
    double entropy = 0.0;
    double approx_kl = 0.0;
    std::int32_t minibatches = 0;
  };

  /// One PPO update from a contiguous trajectory: GAE bootstrapped from
  /// `bootstrap_value`, advantages normalized, then the shuffled-minibatch
  /// epochs. Leaves the buffer intact (callers clear it).
  UpdateStats update(const RolloutBuffer& buffer, double bootstrap_value);

  // --- online-training knobs (hybrid training, Section 4.4) -----------------
  /// The exploration rate the policy's agents last acted with. act_batch
  /// takes its rates per row; this copy is reported.
  void set_exploration_rate(double rate) { exploration_rate_ = rate; }
  [[nodiscard]] double exploration_rate() const { return exploration_rate_; }
  void set_clip_eps(double eps) { cfg_.clip_eps = eps; }
  [[nodiscard]] double clip_eps() const { return cfg_.clip_eps; }
  void set_entropy_coef(double coef) { cfg_.entropy_coef = coef; }
  [[nodiscard]] double entropy_coef() const { return cfg_.entropy_coef; }

  /// Adjust optimizer learning rates (offline pre-training typically runs
  /// hotter than online incremental training).
  void set_learning_rates(double actor_lr, double critic_lr);
  [[nodiscard]] double actor_lr() const;
  [[nodiscard]] double critic_lr() const;

  /// Rebuild both Adam optimizers with fresh (zeroed) moment estimates at
  /// the current learning rates. Required after a weight rollback: the old
  /// moments belong to the discarded trajectory and may carry NaN/Inf from
  /// the update that poisoned the weights.
  void reset_optimizers();

  // --- serialization (offline pre-training -> per-switch deployment) --------
  [[nodiscard]] std::vector<double> weights() const;
  /// Installs a full parameter snapshot. Returns false (and leaves the
  /// current model untouched) when `values` does not match num_params() —
  /// e.g. a stale weight cache trained with a different architecture.
  [[nodiscard]] bool set_weights(std::span<const double> values);

  [[nodiscard]] const PpoConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t num_params() const { return refs_.size(); }

  // --- inference-only snapshots (rl::InferenceModel / rl::PolicyServer) -----
  [[nodiscard]] std::size_t num_heads() const { return actor_heads_.size(); }
  [[nodiscard]] const Mlp& actor_head(std::size_t h) const {
    return actor_heads_[h];
  }
  /// Monotonic counter bumped whenever the parameters change (optimizer
  /// steps, set_weights). A policy server compares it against
  /// the version it quantized so steady-state ticks skip re-quantization.
  [[nodiscard]] std::uint64_t weights_version() const {
    return weights_version_;
  }

 private:
  /// Per-head logits for a (batch x input_size) state matrix; logits[h] is
  /// row-major (batch x head_sizes[h]).
  void head_logits_batch(std::span<const double> states, std::int32_t batch,
                         std::vector<std::vector<double>>& logits,
                         std::vector<Mlp::BatchCache>* caches = nullptr) const;

  PpoConfig cfg_;
  sim::Rng init_rng_;
  std::vector<Mlp> actor_heads_;  // one small MLP per action dimension
  Mlp critic_;
  ParamRefs actor_refs_;
  ParamRefs critic_refs_;
  ParamRefs refs_;  // actor + critic, for snapshots
  std::unique_ptr<Adam> actor_opt_;
  std::unique_ptr<Adam> critic_opt_;
  double exploration_rate_ = 0.0;
  std::uint64_t weights_version_ = 1;
  sim::Rng shuffle_rng_;
};

}  // namespace pet::rl
