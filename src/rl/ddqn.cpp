#include "rl/ddqn.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

#include "rl/categorical.hpp"

namespace pet::rl {

DdqnAgent::DdqnAgent(const DdqnConfig& cfg,
                     std::shared_ptr<ReplayBuffer> replay,
                     std::int32_t agent_id)
    : cfg_(cfg),
      init_rng_(sim::derive_seed(cfg.seed, "ddqn-init") +
                static_cast<std::uint64_t>(agent_id)),
      replay_(std::move(replay)),
      agent_id_(agent_id),
      sample_rng_(sim::derive_seed(cfg.seed, "ddqn-sample") +
                  static_cast<std::uint64_t>(agent_id)) {
  assert(cfg.input_size > 0 && !cfg.head_sizes.empty());
  assert(replay_ != nullptr);
  for (const std::int32_t n : cfg.head_sizes) {
    std::vector<std::int32_t> sizes{cfg.input_size};
    sizes.insert(sizes.end(), cfg.hidden.begin(), cfg.hidden.end());
    sizes.push_back(n);
    online_.emplace_back(sizes, Activation::kRelu, init_rng_);
    target_.emplace_back(sizes, Activation::kRelu, init_rng_);
  }
  for (auto& net : online_) net.collect(online_refs_);
  for (auto& net : target_) net.collect(target_refs_);
  opt_ = std::make_unique<Adam>(
      online_refs_,
      AdamConfig{.lr = cfg.lr, .max_grad_norm = cfg.max_grad_norm});
  sync_target();
}

void DdqnAgent::reserve_scratch() {
  const auto batch = static_cast<std::size_t>(cfg_.batch_size);
  const auto input = static_cast<std::size_t>(cfg_.input_size);
  const Mlp& widest = *std::max_element(
      online_.begin(), online_.end(), [](const Mlp& a, const Mlp& b) {
        return a.output_size() < b.output_size();
      });
  widest.reserve(cache_, cfg_.batch_size);
  states_.reserve(batch * input);
  next_states_.reserve(batch * input);
  rewards_.reserve(batch);
  actions_.reserve(batch * online_.size());
  best_next_.reserve(batch);
  td_targets_.reserve(batch);
  dq_.reserve(batch * static_cast<std::size_t>(widest.output_size()));
}

double DdqnAgent::epsilon() const {
  const double frac =
      std::min(1.0, static_cast<double>(observe_steps_) /
                        std::max(1, cfg_.epsilon_decay_steps));
  return cfg_.epsilon_start + frac * (cfg_.epsilon_end - cfg_.epsilon_start);
}

std::vector<std::int32_t> DdqnAgent::act(std::span<const double> state,
                                         sim::Rng& rng) {
  std::vector<std::int32_t> actions(online_.size());
  act(state, rng, actions);
  return actions;
}

void DdqnAgent::act(std::span<const double> state, sim::Rng& rng,
                    std::span<std::int32_t> actions) {
  assert(actions.size() == online_.size());
  const double eps = epsilon();
  for (std::size_t h = 0; h < online_.size(); ++h) {
    const std::span<const double> q =
        online_[h].forward_batch(state, 1, cache_);
    actions[h] = rng.bernoulli(eps)
                     ? static_cast<std::int32_t>(rng.uniform_int(q.size()))
                     : argmax(q);
  }
}

std::vector<std::int32_t> DdqnAgent::act_greedy(
    std::span<const double> state) const {
  std::vector<std::int32_t> actions(online_.size());
  for (std::size_t h = 0; h < online_.size(); ++h) {
    actions[h] = argmax(online_[h].forward_batch(state, 1));
  }
  return actions;
}

void DdqnAgent::observe(DqnTransition t) {
  ++observe_steps_;
  replay_->push(std::move(t), agent_id_);
}

void DdqnAgent::train_step() {
  sample_batch();
  train_on_batch();
}

void DdqnAgent::sample_batch() {
  batch_ready_ = false;
  if (states_.capacity() == 0) reserve_scratch();
  const auto batch = static_cast<std::size_t>(cfg_.batch_size);
  if (replay_->size() < batch) return;
  const auto idx = replay_->sample_indices(batch, sample_rng_);

  // Gather the minibatch once into row-major (batch x input) matrices.
  const auto input = static_cast<std::size_t>(cfg_.input_size);
  const std::size_t heads = online_.size();
  states_.resize(batch * input);
  next_states_.resize(batch * input);
  rewards_.resize(batch);
  actions_.resize(batch * heads);
  for (std::size_t k = 0; k < batch; ++k) {
    const DqnTransition& tr = replay_->at(idx[k]);
    assert(tr.state.size() == input && tr.next_state.size() == input);
    assert(tr.actions.size() == heads);
    const auto row = static_cast<std::ptrdiff_t>(k * input);
    std::copy(tr.state.begin(), tr.state.end(), states_.begin() + row);
    std::copy(tr.next_state.begin(), tr.next_state.end(),
              next_states_.begin() + row);
    rewards_[k] = tr.reward;
    std::copy(tr.actions.begin(), tr.actions.end(),
              actions_.begin() + static_cast<std::ptrdiff_t>(k * heads));
  }
  batch_ready_ = true;
}

void DdqnAgent::train_on_batch() {
  if (!batch_ready_) return;
  batch_ready_ = false;
  const std::size_t rows = rewards_.size();
  const auto batch = static_cast<std::int32_t>(rows);
  const double inv_b = 1.0 / static_cast<double>(rows);
  const std::size_t heads = online_.size();

  // Four batched calls per head. Weights only change in opt_->step(), so
  // evaluating every sample before any backward is the same arithmetic as
  // the per-sample loop, and backward_batch accumulates samples in order:
  // the step is bitwise the sequential per-sample update.
  best_next_.resize(rows);
  td_targets_.resize(rows);
  for (std::size_t h = 0; h < heads; ++h) {
    Mlp& net = online_[h];
    net.zero_grad();
    const auto nh = static_cast<std::size_t>(net.output_size());
    // Double-DQN target: online net picks the argmax, target net scores it.
    const std::span<const double> q_next_online =
        net.forward_batch(next_states_, batch, cache_);
    for (std::size_t k = 0; k < rows; ++k) {
      best_next_[k] = argmax(q_next_online.subspan(k * nh, nh));
    }
    const std::span<const double> q_next_target =
        target_[h].forward_batch(next_states_, batch, cache_);
    for (std::size_t k = 0; k < rows; ++k) {
      td_targets_[k] =
          rewards_[k] + cfg_.gamma * q_next_target[k * nh + best_next_[k]];
    }
    const std::span<const double> q_cur =
        net.forward_batch(states_, batch, cache_);

    dq_.assign(rows * nh, 0.0);
    for (std::size_t k = 0; k < rows; ++k) {
      const auto a = static_cast<std::size_t>(actions_[k * heads + h]);
      const double err = q_cur[k * nh + a] - td_targets_[k];
      dq_[k * nh + a] = 2.0 * err * inv_b;
    }
    net.backward_batch(states_, cache_, dq_, batch);
  }
  opt_->step();
  ++train_steps_;
  if (train_steps_ % cfg_.target_sync_interval == 0) sync_target();
}

void DdqnAgent::sync_target() { copy_params(online_refs_, target_refs_); }

void DdqnAgent::set_lr(double lr) { opt_->set_lr(lr); }
double DdqnAgent::lr() const { return opt_->lr(); }

std::vector<double> DdqnAgent::weights() const {
  return snapshot_params(online_refs_);
}

std::size_t DdqnAgent::num_params() const { return online_refs_.size(); }

bool DdqnAgent::set_weights(std::span<const double> values) {
  if (values.size() != online_refs_.size()) {
    std::fprintf(stderr,
                 "  [ddqn] ERROR: weight vector has %zu values but the "
                 "network has %zu parameters; keeping current model\n",
                 values.size(), online_refs_.size());
    return false;
  }
  restore_params(online_refs_, values);
  sync_target();
  return true;
}

}  // namespace pet::rl
