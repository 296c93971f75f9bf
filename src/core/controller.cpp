#include "core/controller.hpp"

#include "core/state.hpp"
#include "rl/ppo.hpp"
#include "sim/rng.hpp"

namespace pet::core {

PetController::PetController(sim::Scheduler& sched,
                             std::span<net::SwitchDevice* const> switches,
                             const PetControllerConfig& cfg, std::uint64_t seed)
    : EcnTuner(sched, cfg.agent.tuning_interval, "rl.pet-tick"), cfg_(cfg) {
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
  agents_.reserve(switches.size());
  for (net::SwitchDevice* sw : switches) {
    agents_.push_back(
        std::make_unique<PetAgent>(sched, *sw, cfg.agent, seed, shared));
  }
  deciding_.reserve(agents_.size());
}

void PetController::tick() {
  deciding_.clear();
  for (auto& a : agents_) {
    if (a->tick_observe()) deciding_.push_back(a.get());
  }
  for (PetAgent* a : deciding_) a->decide();
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

std::int64_t PetController::total_rollbacks() const {
  std::int64_t n = 0;
  for (const auto& a : agents_) n += a->rollbacks();
  return n;
}

}  // namespace pet::core
