#pragma once
// Double DQN (van Hasselt et al. 2016) with action branching: one Q-value
// head per action dimension, the factored-discrete analogue of PET's
// categorical heads. This is the learning algorithm ACC runs; unlike IPPO
// it trains from (optionally global/shared) experience replay.

#include <cstdint>
#include <memory>
#include <vector>

#include "rl/adam.hpp"
#include "rl/mlp.hpp"
#include "rl/replay.hpp"
#include "sim/rng.hpp"

namespace pet::rl {

struct DdqnConfig {
  std::int32_t input_size = 0;
  std::vector<std::int32_t> head_sizes;
  std::vector<std::int32_t> hidden = {64, 64};
  double lr = 1e-3;
  double gamma = 0.99;
  double epsilon_start = 1.0;
  double epsilon_end = 0.05;
  std::int32_t epsilon_decay_steps = 2000;
  std::int32_t batch_size = 32;
  std::int32_t target_sync_interval = 200;  // gradient steps
  double max_grad_norm = 1.0;
  std::uint64_t seed = 0;
};

class DdqnAgent {
 public:
  /// `replay` may be shared between agents (ACC's global experience
  /// replay) or exclusive.
  DdqnAgent(const DdqnConfig& cfg, std::shared_ptr<ReplayBuffer> replay,
            std::int32_t agent_id);

  /// Epsilon-greedy action (one index per head).
  [[nodiscard]] std::vector<std::int32_t> act(std::span<const double> state,
                                              sim::Rng& rng);
  /// The same draw into `actions` (one slot per head); allocates nothing
  /// once warm.
  void act(std::span<const double> state, sim::Rng& rng,
           std::span<std::int32_t> actions);
  [[nodiscard]] std::vector<std::int32_t> act_greedy(
      std::span<const double> state) const;

  /// Store a transition and advance the epsilon schedule.
  void observe(DqnTransition t);

  /// One gradient step from a replay minibatch (no-op until the buffer has
  /// at least one batch): sample_batch() then train_on_batch().
  void train_step();
  /// Draw a minibatch from the replay and copy its rows, rewards and
  /// actions into this agent's batch scratch (no-op until the buffer has
  /// at least one batch). Once copied, later pushes may overwrite the
  /// sampled slots. The first call also sizes the scratch of the step and
  /// of act, on the calling thread.
  void sample_batch();
  /// The gradient step on the batch sample_batch() copied (no-op when it
  /// copied none). It touches only this agent's networks, optimizer and
  /// scratch, never the replay, and allocates nothing once warm.
  void train_on_batch();

  [[nodiscard]] double epsilon() const;
  [[nodiscard]] std::int64_t train_steps() const { return train_steps_; }
  [[nodiscard]] const Adam& optimizer() const { return *opt_; }
  [[nodiscard]] const sim::Rng& sample_rng() const { return sample_rng_; }
  [[nodiscard]] ReplayBuffer& replay() { return *replay_; }
  [[nodiscard]] std::int32_t agent_id() const { return agent_id_; }

  [[nodiscard]] std::vector<double> weights() const;
  /// Installs a full online-net snapshot (and syncs the target net).
  /// Returns false and keeps the current model on a size mismatch.
  [[nodiscard]] bool set_weights(std::span<const double> values);
  [[nodiscard]] std::size_t num_params() const;

  void set_lr(double lr);
  [[nodiscard]] double lr() const;

  /// The online and target Q-networks of head `h` (read-only; tests check
  /// that every weight write leaves their forward passes current).
  [[nodiscard]] const Mlp& online_head(std::size_t h) const {
    return online_[h];
  }
  [[nodiscard]] const Mlp& target_head(std::size_t h) const {
    return target_[h];
  }

 private:
  void sync_target();
  /// Size every scratch buffer the step and act use, so neither allocates.
  void reserve_scratch();

  DdqnConfig cfg_;
  sim::Rng init_rng_;
  std::vector<Mlp> online_;  // one net per head
  std::vector<Mlp> target_;
  ParamRefs online_refs_;
  ParamRefs target_refs_;
  std::unique_ptr<Adam> opt_;
  std::shared_ptr<ReplayBuffer> replay_;
  std::int32_t agent_id_;
  std::int64_t observe_steps_ = 0;
  std::int64_t train_steps_ = 0;
  sim::Rng sample_rng_;

  // The copied minibatch: row-major (batch x input) states and next
  // states, one reward per row and (batch x heads) actions.
  bool batch_ready_ = false;
  std::vector<double> states_;
  std::vector<double> next_states_;
  std::vector<double> rewards_;
  std::vector<std::int32_t> actions_;
  // One reused cache serves every pass in turn: the next-state passes (the
  // step keeps only each row's argmax and TD target), the training pass
  // and act's pass.
  Mlp::BatchCache cache_;
  std::vector<std::int32_t> best_next_;
  std::vector<double> td_targets_;
  std::vector<double> dq_;
};

}  // namespace pet::rl
