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

double DdqnAgent::epsilon() const {
  const double frac =
      std::min(1.0, static_cast<double>(observe_steps_) /
                        std::max(1, cfg_.epsilon_decay_steps));
  return cfg_.epsilon_start + frac * (cfg_.epsilon_end - cfg_.epsilon_start);
}

void DdqnAgent::q_values(const std::vector<Mlp>& nets,
                         std::span<const double> state,
                         std::vector<std::vector<double>>& q) const {
  q.resize(nets.size());
  for (std::size_t h = 0; h < nets.size(); ++h) {
    q[h] = nets[h].forward_batch(state, 1);
  }
}

std::vector<std::int32_t> DdqnAgent::act(std::span<const double> state,
                                         sim::Rng& rng) {
  std::vector<std::vector<double>> q;
  q_values(online_, state, q);
  std::vector<std::int32_t> actions(q.size());
  const double eps = epsilon();
  for (std::size_t h = 0; h < q.size(); ++h) {
    actions[h] = rng.bernoulli(eps)
                     ? static_cast<std::int32_t>(rng.uniform_int(q[h].size()))
                     : argmax(q[h]);
  }
  return actions;
}

std::vector<std::int32_t> DdqnAgent::act_greedy(
    std::span<const double> state) const {
  std::vector<std::vector<double>> q;
  q_values(online_, state, q);
  std::vector<std::int32_t> actions(q.size());
  for (std::size_t h = 0; h < q.size(); ++h) actions[h] = argmax(q[h]);
  return actions;
}

void DdqnAgent::observe(DqnTransition t) {
  ++observe_steps_;
  replay_->push(std::move(t), agent_id_);
}

void DdqnAgent::train_step() {
  if (replay_->size() < static_cast<std::size_t>(cfg_.batch_size)) return;
  const auto idx = replay_->sample_indices(
      static_cast<std::size_t>(cfg_.batch_size), sample_rng_);
  const auto batch = static_cast<std::int32_t>(idx.size());
  const double inv_b = 1.0 / static_cast<double>(idx.size());

  // Gather the minibatch once into row-major (batch x input) matrices.
  const auto input = static_cast<std::size_t>(cfg_.input_size);
  std::vector<double> states(idx.size() * input);
  std::vector<double> next_states(idx.size() * input);
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const DqnTransition& tr = replay_->at(idx[k]);
    assert(tr.state.size() == input && tr.next_state.size() == input);
    const auto row = static_cast<std::ptrdiff_t>(k * input);
    std::copy(tr.state.begin(), tr.state.end(), states.begin() + row);
    std::copy(tr.next_state.begin(), tr.next_state.end(),
              next_states.begin() + row);
  }

  // Four batched calls per head. Weights only change in opt_->step(), so
  // evaluating every sample before any backward is the same arithmetic as
  // the per-sample loop, and backward_batch accumulates samples in order:
  // the step is bitwise the sequential per-sample update.
  Mlp::BatchCache cache;
  std::vector<double> dq;
  for (std::size_t h = 0; h < online_.size(); ++h) {
    Mlp& net = online_[h];
    net.zero_grad();
    // Double-DQN target: online net picks the argmax, target net scores it.
    const std::vector<double> q_next_online =
        net.forward_batch(next_states, batch);
    const std::vector<double> q_next_target =
        target_[h].forward_batch(next_states, batch);
    const std::vector<double> q_cur = net.forward_batch(states, batch, &cache);

    const auto nh = static_cast<std::size_t>(net.output_size());
    dq.assign(idx.size() * nh, 0.0);
    for (std::size_t k = 0; k < idx.size(); ++k) {
      const DqnTransition& tr = replay_->at(idx[k]);
      const std::int32_t best_next = argmax(
          std::span<const double>(&q_next_online[k * nh], nh));
      const double target =
          tr.reward + cfg_.gamma * q_next_target[k * nh + best_next];
      const auto a = static_cast<std::size_t>(tr.actions[h]);
      const double err = q_cur[k * nh + a] - target;
      dq[k * nh + a] = 2.0 * err * inv_b;
    }
    net.backward_batch(states, cache, dq, batch);
  }
  opt_->step();
  ++train_steps_;
  if (train_steps_ % cfg_.target_sync_interval == 0) sync_target();
}

void DdqnAgent::sync_target() {
  restore_params(target_refs_, snapshot_params(online_refs_));
}

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
