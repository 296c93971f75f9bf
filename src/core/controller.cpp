#include "core/controller.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/state.hpp"
#include "rl/ppo.hpp"
#include "sim/rng.hpp"

namespace pet::core {

PetController::PetController(sim::Scheduler& sched,
                             std::span<net::SwitchDevice* const> switches,
                             const PetControllerConfig& cfg, std::uint64_t seed)
    : EcnTuner(sched, cfg.agent.tuning_interval, "rl.pet-tick"), cfg_(cfg) {
  if (cfg.num_queues < 1) {
    throw std::invalid_argument("PetController: num_queues must be >= 1");
  }
  std::shared_ptr<rl::PpoAgent> shared;
  if (cfg.shared_policy && !switches.empty()) {
    // Build the shared policy with the same shapes an independent agent
    // would derive.
    StateBuilder probe(cfg.agent.state, cfg.agent.action_space);
    rl::PpoConfig ppo = cfg.agent.ppo;
    ppo.input_size = probe.state_size();
    ppo.head_sizes = cfg.agent.action_space.head_sizes();
    ppo.seed = sim::derive_seed(seed, "pet-shared-policy");
    shared = std::make_shared<rl::PpoAgent>(ppo);
  }
  agents_.reserve(switches.size() *
                  static_cast<std::size_t>(cfg.num_queues));
  PetAgentConfig queue_cfg = cfg.agent;
  for (net::SwitchDevice* sw : switches) {
    if (cfg.num_queues == 1) {
      agents_.push_back(
          std::make_unique<PetAgent>(sched, *sw, cfg.agent, seed, shared));
      continue;
    }
    if (cfg.num_queues > sw->config().num_data_queues) {
      throw std::invalid_argument(
          "PetController: num_queues " + std::to_string(cfg.num_queues) +
          " exceeds the " + std::to_string(sw->config().num_data_queues) +
          " data queues of " + sw->name());
    }
    for (std::int32_t q = 0; q < cfg.num_queues; ++q) {
      queue_cfg.ncm.queue_index = q;
      agents_.push_back(
          std::make_unique<PetAgent>(sched, *sw, queue_cfg, seed, shared));
    }
  }
  preps_.resize(agents_.size());
}

void PetController::set_training(bool training) {
  for (auto& a : agents_) a->set_training(training);
}

void PetController::tick() {
  // Phase 1: close monitoring slots, reward previous actions, run any due
  // PPO updates — in agent order.
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    preps_[i] = agents_[i]->tick_observe();
  }

  // Phase 2: plain policy samples from a shared policy share one batched
  // forward pass; deployed agents are served batched greedy decisions by
  // the policy server (when enabled); everyone else completes alone.
  const bool serving =
      cfg_.shared_policy && cfg_.infer != rl::InferMode::kDirect;
  batched_.clear();
  served_.clear();
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    const std::optional<PetAgent::TickPrep>& prep = preps_[i];
    if (!prep.has_value()) continue;
    if (cfg_.shared_policy && prep->batched_act) {
      batched_.push_back(i);
    } else if (serving && prep->serve_act) {
      served_.push_back(i);
    } else {
      agents_[i]->tick_complete(*prep);
    }
  }
  if (!served_.empty()) serve_group();
  if (!batched_.empty()) act_batched();
}

void PetController::act_batched() {
  const std::size_t bsz = batched_.size();
  const std::size_t dim = preps_[batched_[0]]->state.size();
  std::vector<double> states(bsz * dim);
  std::vector<sim::Rng*> rngs(bsz);
  std::vector<double> exploration(bsz);
  for (std::size_t j = 0; j < bsz; ++j) {
    PetAgent& a = *agents_[batched_[j]];
    exploration[j] = a.tick_begin_act();
    const auto& s = preps_[batched_[j]]->state;
    std::copy(s.begin(), s.end(), states.begin() + static_cast<std::ptrdiff_t>(j * dim));
    rngs[j] = &a.action_rng();
  }
  std::vector<rl::PpoAgent::ActResult> acts =
      agents_[batched_[0]]->policy().act_batch(
          states, static_cast<std::int32_t>(bsz), rngs, exploration);
  for (std::size_t j = 0; j < bsz; ++j) {
    agents_[batched_[j]]->tick_finish_act(*preps_[batched_[j]],
                                          std::move(acts[j]));
  }
}

void PetController::serve_group() {
  rl::PpoAgent& policy = agents_[served_[0]]->policy();
  const bool ok = server_.ready()
                      ? server_.refresh(policy)
                      : server_.install(policy,
                                        rl::infer_mode_precision(cfg_.infer));
  if (!ok) {
    // A poisoned policy cannot be quantized; complete alone and let the
    // per-agent guardrails quarantine it.
    for (const std::size_t i : served_) agents_[i]->tick_complete(*preps_[i]);
    return;
  }

  const auto bsz = static_cast<std::int32_t>(served_.size());
  const std::size_t dim = preps_[served_[0]]->state.size();
  const std::size_t heads = server_.num_heads();
  serve_states_.resize(served_.size() * dim);
  serve_explore_.resize(served_.size());
  serve_actions_.resize(served_.size() * heads);
  for (std::size_t j = 0; j < served_.size(); ++j) {
    PetAgent& a = *agents_[served_[j]];
    serve_explore_[j] = a.tick_begin_act();
    const auto& s = preps_[served_[j]]->state;
    std::copy(s.begin(), s.end(),
              serve_states_.begin() + static_cast<std::ptrdiff_t>(j * dim));
  }
  server_.reserve(bsz);
  server_.serve_greedy(serve_states_, bsz, serve_actions_);
  // Residual deployment exploration draws from each agent's private stream,
  // so served and direct runs consume identical RNG sequences.
  for (std::size_t j = 0; j < served_.size(); ++j) {
    agents_[served_[j]]->apply_serve_exploration(
        std::span<std::int32_t>(&serve_actions_[j * heads], heads),
        serve_explore_[j]);
  }
  // One batched evaluate under the training policy keeps the stored
  // transitions PPO-consistent (log-prob/value stay fp64 regardless of the
  // serving precision).
  const std::vector<rl::PpoAgent::Evaluation> evs =
      policy.evaluate_batch(serve_states_, serve_actions_, bsz);
  for (std::size_t j = 0; j < served_.size(); ++j) {
    rl::PpoAgent::ActResult act;
    act.actions.assign(&serve_actions_[j * heads],
                       &serve_actions_[j * heads] + heads);
    act.log_prob = evs[j].log_prob;
    act.value = evs[j].value;
    agents_[served_[j]]->tick_finish_act(*preps_[served_[j]], std::move(act));
  }
}

bool PetController::install_weights(std::span<const double> weights) {
  bool ok = true;
  for (auto& a : agents_) ok = a->policy().set_weights(weights) && ok;
  return ok;
}

std::vector<double> PetController::weights() const {
  if (agents_.empty()) return {};
  return agents_.front()->policy().weights();
}

void PetController::set_lr_scale(double scale) {
  for (auto& a : agents_) {
    rl::PpoAgent& policy = a->policy();
    const rl::PpoConfig& ppo = policy.config();
    policy.set_learning_rates(ppo.actor_lr * scale, ppo.critic_lr * scale);
  }
}

void PetController::enter_deployment() {
  set_lr_scale(1.0);
  for (auto& a : agents_) {
    a->freeze_exploration(0.02);
    a->set_deployment_mode(true);
  }
}

double PetController::mean_reward() const {
  double total = 0.0;
  std::size_t n = 0;
  for (const auto& a : agents_) {
    if (a->reward_stats().count() > 0) {
      total += a->reward_stats().mean();
      ++n;
    }
  }
  return n > 0 ? total / static_cast<double>(n) : 0.0;
}

void PetController::set_health_listener(PetAgent::HealthListener listener) {
  for (auto& a : agents_) a->set_health_listener(listener);
}

std::size_t PetController::num_in_state(AgentHealth state) const {
  std::size_t n = 0;
  for (const auto& a : agents_) {
    if (a->health() == state) ++n;
  }
  return n;
}

std::int64_t PetController::total_rollbacks() const {
  std::int64_t n = 0;
  for (const auto& a : agents_) n += a->rollbacks();
  return n;
}

std::int64_t PetController::total_steps() const {
  std::int64_t total = 0;
  for (const auto& a : agents_) total += a->steps();
  return total;
}

}  // namespace pet::core
