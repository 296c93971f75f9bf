#include "core/pet_agent.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string_view>
#include <utility>

#include "sim/log.hpp"

namespace pet::core {

namespace {
bool all_finite(std::span<const double> values) {
  for (const double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

/// Per-agent seed: the named stream offset by the switch id.
std::uint64_t agent_seed(std::uint64_t seed, std::string_view stream,
                         const net::SwitchDevice& sw) {
  return sim::derive_seed(seed, stream) + static_cast<std::uint64_t>(sw.id());
}

/// What the state reads, plus the packet count the stale-telemetry
/// guardrail checks.
NcmTracking ncm_tracking(const PetAgentConfig& cfg) {
  NcmTracking tracking = cfg.state.ncm_tracking();
  tracking.packets = true;
  return tracking;
}
}  // namespace

PetAgentConfig PetAgentConfig::paper_defaults() {
  PetAgentConfig cfg;
  cfg.ppo.actor_lr = 4e-4;
  cfg.ppo.critic_lr = 1e-3;
  cfg.ppo.gamma = 0.99;
  cfg.ppo.gae_lambda = 0.01;  // "coefficient of GAE" (Section 5.2)
  cfg.ppo.clip_eps = 0.2;
  cfg.decay_rate = 0.99;
  cfg.decay_T = 50;
  return cfg;
}

PetAgent::PetAgent(sim::Scheduler& sched, net::SwitchDevice& sw,
                   const PetAgentConfig& cfg, std::uint64_t seed,
                   std::shared_ptr<rl::PpoAgent> shared_policy)
    : sched_(sched),
      sw_(sw),
      cfg_(cfg),
      ncm_(sched, sw, cfg.ncm, ncm_tracking(cfg)),
      state_builder_(cfg.state, cfg.action_space),
      rng_(agent_seed(seed, "pet-agent", sw)) {
  if (shared_policy != nullptr) {
    policy_ = std::move(shared_policy);
    assert(policy_->config().input_size == state_builder_.state_size());
  } else {
    rl::PpoConfig ppo = cfg_.ppo;
    ppo.input_size = state_builder_.state_size();
    ppo.head_sizes = cfg_.action_space.head_sizes();
    ppo.seed = agent_seed(seed, "pet-policy", sw);
    policy_ = std::make_shared<rl::PpoAgent>(ppo);
  }
  // The switch starts from whatever static config it carries; remember it
  // as "current" so the first state's ECN^(c) component is truthful.
  current_config_ = sw_.port(0).ecn_config();
  // A rollback target must exist from the first tick; the initial weights
  // are the first last-known-good snapshot.
  last_good_ = policy_->weights();
}

void PetAgent::restore(std::span<const double> weights) {
  // Rollback snapshots come from this same policy, so a size mismatch is a
  // programming error, not a runtime condition.
  const bool ok = policy_->set_weights(weights);
  assert(ok && "rollback snapshot must match the policy architecture");
  static_cast<void>(ok);
  policy_->reset_optimizers();
}

void PetAgent::transition(AgentHealth to, std::string reason) {
  if (to == health_) return;
  PET_LOG_WARN(sched_, "%s agent: %s -> %s (%s)", sw_.name().c_str(),
               health_name(health_), health_name(to), reason.c_str());
  HealthTransition tr{sched_.now(), sw_.id(), health_, to, std::move(reason)};
  health_ = to;
  transitions_.push_back(tr);
  if (health_listener_) health_listener_(transitions_.back());
}

void PetAgent::quarantine(const std::string& reason) {
  transition(AgentHealth::kQuarantined, reason);
  quarantine_remaining_ = std::max(1, cfg_.guardrails.quarantine_ticks);
  probation_clean_ = 0;
  // The experience gathered under the bad policy is poisoned; drop it.
  rollout_.clear();
  pending_.reset();
  state_builder_.reset();
  // Roll back to the last-known-good weights (with fresh optimizer moments
  // — the old ones may carry the NaN that broke the policy).
  if (!last_good_.empty()) {
    restore(last_good_);
    ++rollbacks_;
  }
  // The switch must keep forwarding sanely without its tuner: fall back to
  // the static DCQCN-style thresholds until the agent is back in service.
  current_config_ = cfg_.guardrails.fallback_ecn.clamped();
  sw_.install_ecn(current_config_);
}

void PetAgent::check_telemetry(const NcmSnapshot& snap) {
  if (snap.packets_seen == 0) {
    ++stale_slots_;
    fresh_slots_ = 0;
  } else {
    ++fresh_slots_;
    stale_slots_ = 0;
  }
  const auto& gr = cfg_.guardrails;
  if (health_ == AgentHealth::kHealthy && gr.stale_telemetry_slots > 0 &&
      stale_slots_ >= gr.stale_telemetry_slots) {
    transition(AgentHealth::kDegraded, "stale telemetry");
  } else if (health_ == AgentHealth::kDegraded &&
             fresh_slots_ >= gr.degraded_recovery_slots) {
    transition(AgentHealth::kHealthy, "telemetry recovered");
  }
}

std::optional<std::string> PetAgent::update_fault(
    const rl::PpoAgent::UpdateStats& stats) const {
  const auto& gr = cfg_.guardrails;
  if (!std::isfinite(stats.policy_loss) || !std::isfinite(stats.value_loss) ||
      !std::isfinite(stats.entropy) || !std::isfinite(stats.approx_kl)) {
    return "non-finite update stats";
  }
  if (std::abs(stats.policy_loss) > gr.max_abs_policy_loss) {
    return "exploding policy loss";
  }
  if (stats.value_loss > gr.max_value_loss) return "exploding value loss";
  if (updates_ > gr.entropy_grace_updates && stats.entropy < gr.min_entropy) {
    return "entropy collapse";
  }
  return std::nullopt;
}

void PetAgent::maybe_checkpoint() {
  const auto& gr = cfg_.guardrails;
  if (gr.checkpoint_interval_updates <= 0) return;
  if (updates_ % gr.checkpoint_interval_updates != 0) return;
  std::vector<double> w = policy_->weights();
  if (!all_finite(w)) return;  // never save a poisoned checkpoint
  last_good_ = std::move(w);
  ++checkpoints_;
}

double PetAgent::exploration_for_step(std::int64_t t) const {
  if (frozen_exploration_ >= 0.0) return frozen_exploration_;
  // Eq. (13): epsilon_t = decay_rate^(t/T) * epsilon for t > T.
  if (t <= cfg_.decay_T) return cfg_.explore_start;
  const double e =
      std::pow(cfg_.decay_rate,
               static_cast<double>(t) / static_cast<double>(cfg_.decay_T)) *
      cfg_.explore_start;
  return std::max(cfg_.explore_min, e);
}

void PetAgent::finalize_pending(const NcmSnapshot& snap) {
  if (!pending_.has_value()) return;
  pending_->reward = compute_reward(cfg_.reward, snap);
  reward_stats_.add(pending_->reward);
  rollout_.push(std::move(*pending_));
  pending_.reset();
}

void PetAgent::tick() {
  if (tick_observe()) decide();
}

bool PetAgent::tick_observe() {
  // 1. Close the monitoring slot; its statistics are the outcome of the
  //    previous action.
  const NcmSnapshot snap = ncm_.sample();
  check_telemetry(snap);

  // A quarantined agent holds the static fallback and does not act or
  // train; it re-enters service on probation once the timer expires.
  if (health_ == AgentHealth::kQuarantined) {
    if (--quarantine_remaining_ <= 0) {
      transition(AgentHealth::kProbation, "quarantine elapsed");
      probation_clean_ = 0;
    }
    return false;
  }

  state_builder_.push_slot(snap, current_config_);
  state_ = state_builder_.state();
  if (!all_finite(state_)) {
    // Corrupted telemetry must never reach the policy network.
    quarantine("non-finite state vector");
    return false;
  }

  finalize_pending(snap);

  // 2. Learn once enough on-policy experience accumulated.
  if (rollout_.size() >= static_cast<std::size_t>(cfg_.rollout_length)) {
    const double bootstrap = policy_->value_batch(state_, 1)[0];
    last_update_ = policy_->update(rollout_, bootstrap);
    rollout_.clear();
    ++updates_;
    if (auto fault = update_fault(last_update_)) {
      quarantine(*fault);
      return false;
    }
    maybe_checkpoint();
  }
  return true;
}

void PetAgent::decide() {
  // 3. Select and apply the next ECN configuration.
  ++steps_;
  const double explore = health_ == AgentHealth::kProbation
                             ? cfg_.guardrails.probation_exploration
                             : exploration_for_step(steps_);
  policy_->set_exploration_rate(explore);
  const double frac = cfg_.explore_start > 0.0
                          ? exploration_for_step(steps_) / cfg_.explore_start
                          : 0.0;
  policy_->set_entropy_coef(
      std::max(cfg_.entropy_min, cfg_.entropy_start * std::min(1.0, frac)));
  // Training samples the policy; once deployed, the greedy action takes
  // the residual local probe.
  rl::PpoAgent::ActResult act =
      deployment_mode_ ? policy_->act_greedy(state_, rng_, explore)
                       : policy_->act(state_, rng_, explore);
  if (!std::isfinite(act.log_prob) || !std::isfinite(act.value)) {
    // NaN/Inf in the policy outputs: never actuate from a broken network.
    quarantine("non-finite policy output");
    return;
  }
  current_config_ = cfg_.action_space.to_config(act.actions);
  pending_ = rl::Transition{.state = std::move(state_),
                            .actions = std::move(act.actions),
                            .log_prob = act.log_prob,
                            .value = act.value,
                            .reward = 0.0};
  sw_.install_ecn(current_config_);

  if (health_ == AgentHealth::kProbation &&
      ++probation_clean_ >= cfg_.guardrails.probation_ticks) {
    transition(AgentHealth::kHealthy, "probation served");
  }
}

}  // namespace pet::core
