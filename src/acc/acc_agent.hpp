#pragma once
// ACC baseline (Yan et al., SIGCOMM'21) as the paper characterizes it:
// per-switch DDQN agents over the *basic* state set (queue length, output
// rates, current ECN config — no incast degree, no mice/elephant ratio)
// trained from a global experience replay shared by all switches.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/action.hpp"
#include "core/ncm.hpp"
#include "core/reward.hpp"
#include "core/state.hpp"
#include "core/tuner.hpp"
#include "net/network.hpp"
#include "net/red_ecn.hpp"
#include "net/switch.hpp"
#include "rl/ddqn.hpp"
#include "rl/replay.hpp"
#include "sim/fork_join.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace pet::acc {

struct AccAgentConfig {
  core::StateConfig state{.include_incast = false, .include_flow_ratio = false};
  core::ActionSpace action_space{};
  core::RewardConfig reward{};
  core::NcmConfig ncm{};
  rl::DdqnConfig ddqn{};  // input_size/head_sizes derived automatically
  sim::Time tuning_interval = sim::microseconds(100);
};

/// One switch's agent. A tick is three phases, so a controller can run the
/// middle one of every agent side by side: observe() and apply() touch the
/// switch and the shared replay and run on the event thread in agent
/// order; learn() touches only this agent.
class AccAgent {
 public:
  AccAgent(sim::Scheduler& sched, net::SwitchDevice& sw,
           const AccAgentConfig& cfg, std::uint64_t seed,
           std::shared_ptr<rl::ReplayBuffer> global_replay);

  /// Phase 1: close the NCM slot, build the state, push the previous
  /// transition into the replay and copy this tick's minibatch out of it
  /// (before the next agent's push can overwrite a sampled slot).
  void observe();
  /// Phase 2: the DDQN step on the copied minibatch, then the
  /// epsilon-greedy action. Touches only this agent's networks, optimizer,
  /// scratch and RNG, so agents may run it concurrently.
  void learn();
  /// Phase 3: install the chosen ECN config and remember the transition.
  void apply();

  [[nodiscard]] rl::DdqnAgent& learner() { return *learner_; }
  [[nodiscard]] core::Ncm& ncm() { return ncm_; }
  [[nodiscard]] std::int64_t steps() const { return steps_; }
  [[nodiscard]] const sim::RunningStats& reward_stats() const {
    return reward_stats_;
  }
  [[nodiscard]] const net::RedEcnConfig& current_config() const {
    return current_config_;
  }
  [[nodiscard]] const sim::Rng& rng() const { return rng_; }

 private:
  sim::Scheduler& sched_;
  net::SwitchDevice& sw_;
  AccAgentConfig cfg_;
  core::Ncm ncm_;
  core::StateBuilder state_builder_;
  std::unique_ptr<rl::DdqnAgent> learner_;
  sim::Rng rng_;

  struct Pending {
    std::vector<double> state;
    std::vector<std::int32_t> actions;
  };
  std::optional<Pending> pending_;
  // This tick's state and chosen action, from observe() to apply().
  std::vector<double> state_;
  std::vector<std::int32_t> actions_;
  net::RedEcnConfig current_config_;
  std::int64_t steps_ = 0;
  sim::RunningStats reward_stats_;
};

struct AccControllerConfig {
  AccAgentConfig agent{};
  std::size_t replay_capacity = 20'000;  // the shared global replay
};

/// Deploys ACC on every switch with the shared (global) replay the paper
/// criticizes; exposes the replay's memory/bandwidth cost so the overhead
/// experiment can quantify it. Each tick runs the agents' learn() phases
/// side by side on a sim::ForkJoinPool; every result is bitwise the same
/// at any worker count.
class AccController final : public core::EcnTuner {
 public:
  AccController(sim::Scheduler& sched,
                std::span<net::SwitchDevice* const> switches,
                const AccControllerConfig& cfg, std::uint64_t seed);

  /// Run the learn() phases on `pool` instead of the process-wide pool
  /// (which otherwise starts on the first tick).
  void run_on(sim::ForkJoinPool& pool) { pool_ = &pool; }

  [[nodiscard]] std::size_t num_agents() const { return agents_.size(); }
  [[nodiscard]] AccAgent& agent(std::size_t i) { return *agents_[i]; }
  [[nodiscard]] rl::ReplayBuffer& global_replay() { return *replay_; }

  /// Bytes each switch would need to exchange to maintain the global
  /// replay: experience it fetched that other switches produced.
  [[nodiscard]] std::size_t replay_exchange_bytes() const;

  /// Install one weight vector into every agent (offline pre-training).
  /// Returns false on a parameter-count mismatch (models left untouched).
  [[nodiscard]] bool install_weights(std::span<const double> weights) override;
  [[nodiscard]] std::vector<double> weights() const override;
  /// Every agent learns at DdqnConfig::lr times `scale`.
  void set_lr_scale(double scale) override;
  /// Back to DdqnConfig::lr; epsilon keeps annealing on its own schedule.
  void enter_deployment() override { set_lr_scale(1.0); }

 protected:
  void tick() override;

 private:
  AccControllerConfig cfg_;
  std::shared_ptr<rl::ReplayBuffer> replay_;
  std::vector<std::unique_ptr<AccAgent>> agents_;
  sim::ForkJoinPool* pool_ = nullptr;
};

}  // namespace pet::acc
