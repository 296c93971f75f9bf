#pragma once
// PetAgent: one IPPO learner per switch (the DTDE paradigm). Every tuning
// interval (delta-t, Section 4.2.2) it closes the monitoring slot, rewards
// the previous action, builds the stacked six-factor state, samples the
// next ECN configuration and applies it to the switch's queues. An agent
// whose NcmConfig::queue_index is set monitors and tunes that one queue of
// every port instead (multi-queue adaptation, Section 4.5.2).

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/action.hpp"
#include "core/guardrails.hpp"
#include "core/ncm.hpp"
#include "core/reward.hpp"
#include "core/state.hpp"
#include "net/red_ecn.hpp"
#include "net/switch.hpp"
#include "rl/inference.hpp"
#include "rl/ppo.hpp"
#include "rl/rollout.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace pet::core {

struct PetAgentConfig {
  StateConfig state{};
  ActionSpace action_space{};
  RewardConfig reward{};
  NcmConfig ncm{};
  rl::PpoConfig ppo{};  // input_size/head_sizes derived automatically
  sim::Time tuning_interval = sim::microseconds(100);  // delta-t
  std::int32_t rollout_length = 64;  // transitions per PPO update
  // Exploration decay (Eq. (13)); the same schedule also anneals the
  // entropy bonus so early training stays diverse without freezing the
  // late policy.
  double explore_start = 0.3;
  double explore_min = 0.01;
  double entropy_start = 0.10;
  double entropy_min = 0.01;
  double decay_rate = 0.99;
  std::int32_t decay_T = 50;
  /// Health state machine + rollback/fallback policy (see guardrails.hpp).
  GuardrailConfig guardrails{};

  /// Paper defaults: gamma 0.99, GAE coefficient 0.01, lr 4e-4 / 1e-3,
  /// clip 0.2 (Section 5.2).
  [[nodiscard]] static PetAgentConfig paper_defaults();
};

/// Deployment-mode exploration, in place: perturb one randomly chosen head
/// by one level up or down, clamped to the head's range — a conservative
/// local probe instead of an arbitrary jump.
void local_exploration_step(std::span<std::int32_t> actions,
                            const std::vector<std::int32_t>& head_sizes,
                            sim::Rng& rng);

class PetAgent {
 public:
  /// If `shared_policy` is non-null the agent trains/acts through it
  /// (offline pre-training with parameter sharing); otherwise it owns an
  /// independent policy, as deployed DTDE agents do.
  PetAgent(sim::Scheduler& sched, net::SwitchDevice& sw,
           const PetAgentConfig& cfg, std::uint64_t seed,
           std::shared_ptr<rl::PpoAgent> shared_policy = nullptr);

  /// One tuning step for an agent deciding alone: tick_observe(), then
  /// decide() on a group of one. Controllers observe every agent before
  /// deciding any.
  void tick();

  /// Observation phase of a tuning step: close the monitoring slot, run
  /// guardrails, build the state, reward the previous action and (if due)
  /// run the PPO update. Returns false when the tick already completed
  /// (quarantine paths); otherwise the agent must take part in decide().
  [[nodiscard]] bool tick_observe();

  /// Buffers one decision step keeps between ticks, plus the policy server
  /// that serves deployed decisions when the serving mode is not kDirect.
  struct DecisionScratch {
    rl::PolicyServer server;
    std::vector<double> states;
    std::vector<double> explore;
    std::vector<sim::Rng*> rngs;
    std::vector<std::int32_t> actions;
  };

  /// The one PET decision step, for a group of agents that act through one
  /// policy (every agent of a shared policy, or one independent agent), in
  /// agent order and each fresh from tick_observe(). Each member advances
  /// its exploration schedule, then one batched pass decides the group:
  /// act_batch while training; once deployed, greedy actions (served at
  /// `infer`'s precision, or act_greedy_batch at kDirect or when the policy
  /// cannot be quantized), each member's residual probe, then
  /// evaluate_batch. Each member then installs its decision, so a guardrail
  /// rollback by one member never changes the weights the others decided
  /// with. Members share one deployment mode.
  static void decide(std::span<PetAgent* const> group, rl::InferMode infer,
                     DecisionScratch& scratch);

  /// Pin the exploration rate (overriding the Eq. (13) schedule). The
  /// deployed online phase keeps a low, stable exploration rate
  /// (Section 4.4); pass a negative value to restore the schedule.
  void freeze_exploration(double rate) { frozen_exploration_ = rate; }

  /// Deployment mode: exploit the policy mode (argmax per head, with the
  /// residual exploration rate injecting rare random actions) while online
  /// incremental training continues in the background.
  void set_deployment_mode(bool deployed) { deployment_mode_ = deployed; }
  [[nodiscard]] bool deployment_mode() const { return deployment_mode_; }

  [[nodiscard]] rl::PpoAgent& policy() { return *policy_; }
  [[nodiscard]] const rl::PpoAgent& policy() const { return *policy_; }
  [[nodiscard]] Ncm& ncm() { return ncm_; }
  [[nodiscard]] net::SwitchDevice& switch_device() { return sw_; }
  /// The data queue this agent tunes; -1 when it tunes every queue.
  [[nodiscard]] std::int32_t queue_index() const {
    return cfg_.ncm.queue_index;
  }

  [[nodiscard]] std::int64_t steps() const { return steps_; }
  [[nodiscard]] const sim::RunningStats& reward_stats() const {
    return reward_stats_;
  }
  [[nodiscard]] const rl::PpoAgent::UpdateStats& last_update() const {
    return last_update_;
  }
  [[nodiscard]] std::int64_t updates() const { return updates_; }
  [[nodiscard]] const net::RedEcnConfig& current_config() const {
    return current_config_;
  }

  // --- guardrails / health state machine -----------------------------------
  using HealthListener = std::function<void(const HealthTransition&)>;

  [[nodiscard]] AgentHealth health() const { return health_; }
  [[nodiscard]] const std::vector<HealthTransition>& health_transitions()
      const {
    return transitions_;
  }
  /// Observer invoked on every health transition (telemetry hook).
  void set_health_listener(HealthListener listener) {
    health_listener_ = std::move(listener);
  }

  /// Weight snapshot in the pretrain-cache format (flat vector, storable
  /// via exp::WeightCache) and its inverse. restore() also resets the
  /// optimizer moments — they belong to the discarded trajectory.
  [[nodiscard]] std::vector<double> snapshot() const {
    return policy_->weights();
  }
  void restore(std::span<const double> weights);

  [[nodiscard]] const std::vector<double>& last_known_good() const {
    return last_good_;
  }
  [[nodiscard]] std::int64_t rollbacks() const { return rollbacks_; }
  [[nodiscard]] std::int64_t checkpoints() const { return checkpoints_; }

  /// Operator override: pull the agent out of service immediately (the same
  /// path a guardrail trip takes — fallback config, rollback, halt).
  void force_quarantine(const std::string& reason) { quarantine(reason); }

 private:
  /// Advance the step counter and the policy's exploration/entropy
  /// schedule; returns this step's exploration rate.
  [[nodiscard]] double tick_begin_act();
  /// Deployment-mode residual exploration on a greedy decision, in place:
  /// one bernoulli gate, then (rarely) one local_exploration_step.
  void apply_serve_exploration(std::span<std::int32_t> actions, double explore);
  /// Install a decision for the observed state: quarantine on non-finite
  /// policy output, otherwise actuate and keep the pending transition.
  void tick_finish_act(rl::PpoAgent::ActResult act);

  void finalize_pending(const NcmSnapshot& snap);
  [[nodiscard]] double exploration_for_step(std::int64_t t) const;

  void transition(AgentHealth to, std::string reason);
  void quarantine(const std::string& reason);
  void check_telemetry(const NcmSnapshot& snap);
  /// Reason string if the update statistics trip a hard-fault guardrail.
  [[nodiscard]] std::optional<std::string> update_fault(
      const rl::PpoAgent::UpdateStats& stats) const;
  void maybe_checkpoint();

  sim::Scheduler& sched_;
  net::SwitchDevice& sw_;
  PetAgentConfig cfg_;
  Ncm ncm_;
  StateBuilder state_builder_;
  std::shared_ptr<rl::PpoAgent> policy_;
  sim::Rng rng_;
  /// Where actions and the guardrail fallback land: one queue of every port
  /// for a queue-scoped agent, otherwise every queue.
  net::PortSelector targets_;

  /// The state the last tick_observe() built, consumed by decide().
  std::vector<double> state_;
  rl::RolloutBuffer rollout_;
  std::optional<rl::Transition> pending_;
  net::RedEcnConfig current_config_;
  std::int64_t steps_ = 0;
  std::int64_t updates_ = 0;
  double frozen_exploration_ = -1.0;
  bool deployment_mode_ = false;
  sim::RunningStats reward_stats_;
  rl::PpoAgent::UpdateStats last_update_{};

  // Guardrail state.
  AgentHealth health_ = AgentHealth::kHealthy;
  std::vector<HealthTransition> transitions_;
  HealthListener health_listener_;
  std::vector<double> last_good_;
  std::int64_t rollbacks_ = 0;
  std::int64_t checkpoints_ = 0;
  std::int32_t quarantine_remaining_ = 0;
  std::int32_t probation_clean_ = 0;
  std::int32_t stale_slots_ = 0;
  std::int32_t fresh_slots_ = 0;
};

}  // namespace pet::core
