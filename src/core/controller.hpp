#pragma once
// PetController: deploys one PetAgent per switch and drives the tuning
// loop. Decentralized training with decentralized execution: agents never
// exchange state, experience, or gradients (Section 4.1.2). With
// num_queues > 1 it deploys one agent per (switch, queue) instead, the
// multi-queue adaptation of Section 4.5.2.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/guardrails.hpp"
#include "core/pet_agent.hpp"
#include "core/tuner.hpp"
#include "net/network.hpp"
#include "net/switch.hpp"
#include "sim/scheduler.hpp"

namespace pet::core {

struct PetControllerConfig {
  PetAgentConfig agent{};
  /// Offline pre-training mode: all agents act/train through one shared
  /// policy (parameter sharing), mirroring the paper's single pre-trained
  /// initial model that is later installed on every switch. Each agent
  /// still decides alone, from its own state, RNG stream and exploration
  /// rate.
  bool shared_policy = false;
  /// Data queues tuned per switch. At 1, one agent tunes every queue of its
  /// switch. Above 1, each (switch, queue) gets its own agent that monitors
  /// and actuates only that queue; it must not exceed the switches' data
  /// queues.
  std::int32_t num_queues = 1;
};

class PetController final : public EcnTuner {
 public:
  /// Throws std::invalid_argument when num_queues is below 1 or exceeds a
  /// switch's data queues.
  PetController(sim::Scheduler& sched,
                std::span<net::SwitchDevice* const> switches,
                const PetControllerConfig& cfg, std::uint64_t seed);

  /// Agents in switch order; queue order within a switch.
  [[nodiscard]] std::size_t num_agents() const { return agents_.size(); }
  [[nodiscard]] PetAgent& agent(std::size_t i) { return *agents_[i]; }

  /// Install one weight vector into every agent's policy (pre-trained
  /// initial model deployment, Section 4.4.1). Returns false when the
  /// vector does not match the policy's parameter count (stale cache);
  /// agents keep their current models in that case.
  [[nodiscard]] bool install_weights(std::span<const double> weights) override;
  [[nodiscard]] std::vector<double> weights() const override;
  void set_lr_scale(double scale) override;
  /// Paper learning rates, then deployment mode (greedy decisions while
  /// online training continues) at a low, stable exploration rate
  /// (Section 4.4's exploration/exploitation handoff).
  void enter_deployment() override;

  /// Mean per-step reward across agents (training progress signal).
  [[nodiscard]] double mean_reward() const;

  // --- fleet health ---------------------------------------------------------
  /// Install one health listener on every agent (telemetry fan-in).
  void set_health_listener(PetAgent::HealthListener listener);
  [[nodiscard]] std::int64_t total_rollbacks() const;

 protected:
  /// Observe every agent first (slot close, reward, any due PPO update, in
  /// agent order), then decide() each observed agent in agent order, so a
  /// shared policy's updates all land before any of its decisions.
  void tick() override;

 private:
  PetControllerConfig cfg_;
  std::vector<std::unique_ptr<PetAgent>> agents_;

  // Per-tick scratch, reused every tick: the agents that decide this tick,
  // in agent order.
  std::vector<PetAgent*> deciding_;
};

}  // namespace pet::core
