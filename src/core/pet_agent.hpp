#pragma once
// PetAgent: one IPPO learner per switch (the DTDE paradigm). Every tuning
// interval (delta-t, Section 4.2.2) it closes the monitoring slot, rewards
// the previous action, builds the stacked six-factor state, samples the
// next ECN configuration and installs it on every port of its switch.

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

class PetAgent {
 public:
  /// If `shared_policy` is non-null the agent trains/acts through it
  /// (offline pre-training with parameter sharing); otherwise it owns an
  /// independent policy, as deployed DTDE agents do.
  PetAgent(sim::Scheduler& sched, net::SwitchDevice& sw,
           const PetAgentConfig& cfg, std::uint64_t seed,
           std::shared_ptr<rl::PpoAgent> shared_policy = nullptr);

  /// One tuning step: tick_observe(), then decide(). A controller observes
  /// every agent before deciding any.
  void tick();

  /// Observation phase of a tuning step: close the monitoring slot, run
  /// guardrails, build the state, reward the previous action and (if due)
  /// run the PPO update. Returns false when the tick already completed
  /// (quarantine paths); otherwise the agent must decide().
  [[nodiscard]] bool tick_observe();

  /// Decision phase of a tuning step, fresh from tick_observe(): advance
  /// the exploration schedule, pick the next ECN configuration from the
  /// observed state (sampling the policy while training; once deployed,
  /// the greedy action with the residual local probe) and install it.
  /// Non-finite policy output quarantines the agent instead.
  void decide();

  /// Pin the exploration rate (overriding the Eq. (13) schedule). The
  /// deployed online phase keeps a low, stable exploration rate
  /// (Section 4.4); pass a negative value to restore the schedule.
  void freeze_exploration(double rate) { frozen_exploration_ = rate; }

  /// Deployment mode: exploit the policy mode (argmax per head, with the
  /// residual exploration rate injecting rare random actions) while online
  /// incremental training continues in the background.
  void set_deployment_mode(bool deployed) { deployment_mode_ = deployed; }

  [[nodiscard]] rl::PpoAgent& policy() { return *policy_; }
  [[nodiscard]] const rl::PpoAgent& policy() const { return *policy_; }
  [[nodiscard]] Ncm& ncm() { return ncm_; }
  [[nodiscard]] net::SwitchDevice& switch_device() { return sw_; }

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
