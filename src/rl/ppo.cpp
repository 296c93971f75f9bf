#include "rl/ppo.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "rl/categorical.hpp"
#include "rl/gae.hpp"

namespace pet::rl {

void local_exploration_step(std::span<std::int32_t> actions,
                            const std::vector<std::int32_t>& head_sizes,
                            sim::Rng& rng) {
  const std::size_t h = rng.uniform_int(head_sizes.size());
  const std::int32_t step = rng.bernoulli(0.5) ? 1 : -1;
  actions[h] = std::clamp(actions[h] + step, 0, head_sizes[h] - 1);
}

PpoAgent::PpoAgent(const PpoConfig& cfg)
    : cfg_(cfg),
      init_rng_(sim::derive_seed(cfg.seed, "ppo-init")),
      critic_([&] {
        std::vector<std::int32_t> sizes{cfg.input_size};
        sizes.insert(sizes.end(), cfg.hidden.begin(), cfg.hidden.end());
        sizes.push_back(1);
        return Mlp(sizes, Activation::kTanh, init_rng_);
      }()),
      shuffle_rng_(sim::derive_seed(cfg.seed, "ppo-shuffle")) {
  assert(cfg.input_size > 0 && !cfg.head_sizes.empty());
  actor_heads_.reserve(cfg.head_sizes.size());
  for (const std::int32_t n : cfg.head_sizes) {
    std::vector<std::int32_t> sizes{cfg.input_size};
    sizes.insert(sizes.end(), cfg.hidden.begin(), cfg.hidden.end());
    sizes.push_back(n);
    actor_heads_.emplace_back(sizes, Activation::kTanh, init_rng_);
  }
  for (auto& head : actor_heads_) head.collect(actor_refs_);
  critic_.collect(critic_refs_);
  refs_ = actor_refs_;
  critic_.collect(refs_);
  actor_opt_ = std::make_unique<Adam>(
      actor_refs_,
      AdamConfig{.lr = cfg.actor_lr, .max_grad_norm = cfg.max_grad_norm});
  critic_opt_ = std::make_unique<Adam>(
      critic_refs_,
      AdamConfig{.lr = cfg.critic_lr, .max_grad_norm = cfg.max_grad_norm});
}

void PpoAgent::head_logits_batch(std::span<const double> states,
                                 std::int32_t batch,
                                 std::vector<std::vector<double>>& logits,
                                 std::vector<Mlp::BatchCache>* caches) const {
  logits.resize(actor_heads_.size());
  if (caches != nullptr) caches->resize(actor_heads_.size());
  for (std::size_t h = 0; h < actor_heads_.size(); ++h) {
    logits[h] = actor_heads_[h].forward_batch(
        states, batch, caches != nullptr ? &(*caches)[h] : nullptr);
  }
}

PpoAgent::ActResult PpoAgent::act(std::span<const double> state,
                                   sim::Rng& rng, double exploration) const {
  std::vector<std::vector<double>> logits;
  head_logits_batch(state, 1, logits);
  ActResult r;
  r.actions.resize(logits.size());
  std::vector<double> probs;
  for (std::size_t h = 0; h < logits.size(); ++h) {
    probs.resize(logits[h].size());
    softmax(logits[h], probs);
    std::int32_t a;
    if (exploration > 0.0 && rng.bernoulli(exploration)) {
      a = static_cast<std::int32_t>(rng.uniform_int(probs.size()));
    } else {
      a = sample(probs, rng);
    }
    r.actions[h] = a;
    r.log_prob += log_prob(logits[h], a);
  }
  r.value = value_batch(state, 1)[0];
  return r;
}

PpoAgent::ActResult PpoAgent::act_greedy(std::span<const double> state,
                                         sim::Rng& rng,
                                         double exploration) const {
  std::vector<std::vector<double>> logits;
  head_logits_batch(state, 1, logits);
  ActResult r;
  r.actions.resize(logits.size());
  for (std::size_t h = 0; h < logits.size(); ++h) {
    r.actions[h] = argmax(logits[h]);
  }
  // Deployed switches probe conservatively: one head, one level up or
  // down — never a jump to an arbitrary threshold mid-production.
  if (exploration > 0.0 && rng.bernoulli(exploration)) {
    local_exploration_step(r.actions, cfg_.head_sizes, rng);
  }
  for (std::size_t h = 0; h < logits.size(); ++h) {
    r.log_prob += log_prob(logits[h], r.actions[h]);
  }
  r.value = value_batch(state, 1)[0];
  return r;
}

std::vector<double> PpoAgent::value_batch(std::span<const double> states,
                                          std::int32_t batch) const {
  // Critic output size is 1, so the (batch x 1) result is already the flat
  // vector of values.
  return critic_.forward_batch(states, batch);
}

PpoAgent::UpdateStats PpoAgent::update(const RolloutBuffer& buffer,
                                       double bootstrap_value) {
  UpdateStats stats;
  const std::vector<Transition>& items = buffer.items();
  const std::size_t n = items.size();
  if (n == 0) return stats;

  std::vector<double> rewards(n);
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    rewards[i] = items[i].reward;
    values[i] = items[i].value;
  }
  GaeResult gae = compute_gae(rewards, values, bootstrap_value, cfg_.gamma,
                              cfg_.gae_lambda);
  std::vector<double>& advantages = gae.advantages;
  const std::vector<double>& returns = gae.returns;
  normalize(advantages);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  const auto batch =
      static_cast<std::size_t>(std::max<std::int32_t>(1, cfg_.minibatch_size));
  const auto input = static_cast<std::size_t>(cfg_.input_size);
  const std::size_t num_heads = actor_heads_.size();
  double total_policy = 0.0;
  double total_value = 0.0;
  double total_entropy = 0.0;
  double total_kl = 0.0;
  std::size_t total_samples = 0;

  // Minibatch scratch, reused across iterations.
  std::vector<double> states;
  std::vector<std::vector<double>> logits;
  std::vector<Mlp::BatchCache> caches;
  Mlp::BatchCache vcache;
  std::vector<std::vector<double>> probs(num_heads);
  std::vector<std::vector<double>> dlogits(num_heads);
  std::vector<double> new_logp;
  std::vector<double> ent;
  std::vector<double> dlogp;
  std::vector<double> dv;

  for (std::int32_t epoch = 0; epoch < cfg_.update_epochs; ++epoch) {
    // Fisher-Yates shuffle for decorrelated minibatches.
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[shuffle_rng_.uniform_int(i)]);
    }
    for (std::size_t start = 0; start < n; start += batch) {
      const std::size_t end = std::min(n, start + batch);
      const std::size_t bs = end - start;
      const auto bsz = static_cast<std::int32_t>(bs);
      const double inv_b = 1.0 / static_cast<double>(bs);

      for (auto& head : actor_heads_) head.zero_grad();
      critic_.zero_grad();

      // Gather the minibatch into one row-major (bs x input) matrix and
      // evaluate every head and the critic once per minibatch (the blocked
      // batch kernels), instead of once per sample.
      states.resize(bs * input);
      for (std::size_t k = 0; k < bs; ++k) {
        const Transition& tr = items[order[start + k]];
        std::copy(tr.state.begin(), tr.state.end(),
                  states.begin() + static_cast<std::ptrdiff_t>(k * input));
      }
      head_logits_batch(states, bsz, logits, &caches);
      const std::vector<double> v = critic_.forward_batch(states, bsz, &vcache);

      // Per-sample distributions and joint log-probs. Heads accumulate into
      // new_logp in ascending order, matching the unbatched path exactly.
      new_logp.assign(bs, 0.0);
      ent.assign(bs, 0.0);
      for (std::size_t h = 0; h < num_heads; ++h) {
        const auto nh = static_cast<std::size_t>(actor_heads_[h].output_size());
        probs[h].resize(bs * nh);
        for (std::size_t k = 0; k < bs; ++k) {
          const Transition& tr = items[order[start + k]];
          const std::span<const double> lrow(&logits[h][k * nh], nh);
          const std::span<double> prow(&probs[h][k * nh], nh);
          softmax(lrow, prow);
          new_logp[k] += log_prob(lrow, tr.actions[h]);
          ent[k] += entropy(prow);
        }
      }

      // Surrogate losses and the scalar upstream gradients.
      dlogp.resize(bs);
      dv.resize(bs);
      for (std::size_t k = 0; k < bs; ++k) {
        const Transition& tr = items[order[start + k]];
        const double adv = advantages[order[start + k]];
        const double ret = returns[order[start + k]];

        const double ratio = std::exp(new_logp[k] - tr.log_prob);
        const double clipped =
            std::clamp(ratio, 1.0 - cfg_.clip_eps, 1.0 + cfg_.clip_eps);
        const double surr1 = ratio * adv;
        const double surr2 = clipped * adv;

        // Gradient of -min(surr1, surr2) w.r.t. new_logp: flows only when
        // the unclipped branch is active (min picks it / clip not binding).
        dlogp[k] = (surr1 <= surr2) ? (-adv * ratio) * inv_b : 0.0;

        const double verr = v[k] - ret;
        dv[k] = 2.0 * verr * inv_b;

        total_policy += -std::min(surr1, surr2);
        total_value += verr * verr;
        total_entropy += ent[k];
        total_kl += tr.log_prob - new_logp[k];
        ++total_samples;
      }

      // One batched backward per head + critic.
      for (std::size_t h = 0; h < num_heads; ++h) {
        const auto nh = static_cast<std::size_t>(actor_heads_[h].output_size());
        dlogits[h].assign(bs * nh, 0.0);
        for (std::size_t k = 0; k < bs; ++k) {
          const Transition& tr = items[order[start + k]];
          const std::span<const double> prow(&probs[h][k * nh], nh);
          const std::span<double> drow(&dlogits[h][k * nh], nh);
          log_prob_grad(prow, tr.actions[h], dlogp[k], drow);
          entropy_grad(prow, -cfg_.entropy_coef * inv_b, drow);
        }
        actor_heads_[h].backward_batch(states, caches[h], dlogits[h], bsz);
      }
      critic_.backward_batch(states, vcache, dv, bsz);

      actor_opt_->step();
      critic_opt_->step();
      ++stats.minibatches;
    }
  }

  if (total_samples > 0) {
    const double inv = 1.0 / static_cast<double>(total_samples);
    stats.policy_loss = total_policy * inv;
    stats.value_loss = total_value * inv;
    stats.entropy = total_entropy * inv;
    stats.approx_kl = total_kl * inv;
  }
  return stats;
}

void PpoAgent::set_learning_rates(double actor_lr, double critic_lr) {
  actor_opt_->set_lr(actor_lr);
  critic_opt_->set_lr(critic_lr);
}

void PpoAgent::reset_optimizers() {
  const double a_lr = actor_opt_->lr();
  const double c_lr = critic_opt_->lr();
  actor_opt_ = std::make_unique<Adam>(
      actor_refs_, AdamConfig{.lr = a_lr, .max_grad_norm = cfg_.max_grad_norm});
  critic_opt_ = std::make_unique<Adam>(
      critic_refs_, AdamConfig{.lr = c_lr, .max_grad_norm = cfg_.max_grad_norm});
}

double PpoAgent::actor_lr() const { return actor_opt_->lr(); }
double PpoAgent::critic_lr() const { return critic_opt_->lr(); }

std::vector<double> PpoAgent::weights() const { return snapshot_params(refs_); }

bool PpoAgent::set_weights(std::span<const double> values) {
  if (values.size() != refs_.size()) {
    std::fprintf(stderr,
                 "  [ppo] ERROR: weight vector has %zu values but the policy "
                 "has %zu parameters; keeping current model\n",
                 values.size(), refs_.size());
    return false;
  }
  restore_params(refs_, values);
  return true;
}

}  // namespace pet::rl
