#include "acc/acc_agent.hpp"

#include <cassert>
#include <utility>

namespace pet::acc {

AccAgent::AccAgent(sim::Scheduler& sched, net::SwitchDevice& sw,
                   const AccAgentConfig& cfg, std::uint64_t seed,
                   std::shared_ptr<rl::ReplayBuffer> global_replay)
    : sched_(sched),
      sw_(sw),
      cfg_(cfg),
      ncm_(sched, sw, cfg.ncm, cfg.state.ncm_tracking()),
      state_builder_(cfg.state, cfg.action_space),
      rng_(sim::derive_seed(seed, "acc-agent") +
           static_cast<std::uint64_t>(sw.id())) {
  assert(!cfg_.state.include_incast && !cfg_.state.include_flow_ratio &&
         "ACC's state is the basic set");
  rl::DdqnConfig ddqn = cfg_.ddqn;
  ddqn.input_size = state_builder_.state_size();
  ddqn.head_sizes = cfg_.action_space.head_sizes();
  ddqn.seed = sim::derive_seed(seed, "acc-ddqn");
  learner_ = std::make_unique<rl::DdqnAgent>(ddqn, std::move(global_replay),
                                             sw.id());
  current_config_ = sw_.port(0).ecn_config(0);
  actions_.resize(ddqn.head_sizes.size());
}

void AccAgent::observe() {
  const core::NcmSnapshot snap = ncm_.sample();
  state_builder_.push_slot(snap, current_config_);
  state_ = state_builder_.state();

  // Reward the previous action and store the transition in the (global)
  // replay; DDQN is off-policy so it can learn from everyone's experience.
  if (pending_.has_value()) {
    const double reward = core::compute_reward(cfg_.reward, snap);
    reward_stats_.add(reward);
    learner_->observe(rl::DqnTransition{.state = std::move(pending_->state),
                                        .actions = std::move(pending_->actions),
                                        .reward = reward,
                                        .next_state = state_});
    pending_.reset();
  }
  learner_->sample_batch();
}

void AccAgent::learn() {
  learner_->train_on_batch();
  learner_->act(state_, rng_, actions_);
}

void AccAgent::apply() {
  ++steps_;
  current_config_ = cfg_.action_space.to_config(actions_);
  sw_.install_ecn(current_config_);
  pending_ = Pending{.state = std::move(state_), .actions = actions_};
}

// ---------------------------------------------------------------------------
// AccController
// ---------------------------------------------------------------------------

AccController::AccController(sim::Scheduler& sched,
                             std::span<net::SwitchDevice* const> switches,
                             const AccControllerConfig& cfg, std::uint64_t seed)
    : EcnTuner(sched, cfg.agent.tuning_interval, "rl.acc-tick"),
      cfg_(cfg),
      replay_(std::make_shared<rl::ReplayBuffer>(cfg.replay_capacity)) {
  agents_.reserve(switches.size());
  for (net::SwitchDevice* sw : switches) {
    agents_.push_back(
        std::make_unique<AccAgent>(sched, *sw, cfg.agent, seed, replay_));
  }
}

void AccController::tick() {
  for (auto& a : agents_) a->observe();
  if (pool_ == nullptr) pool_ = &sim::ForkJoinPool::shared();
  pool_->run(agents_.size(), [this](std::size_t i) { agents_[i]->learn(); });
  for (auto& a : agents_) a->apply();
}

std::size_t AccController::replay_exchange_bytes() const {
  std::size_t total = 0;
  for (const auto& a : agents_) {
    total += replay_->bytes_from_others(a->learner().agent_id());
  }
  return total;
}

bool AccController::install_weights(std::span<const double> weights) {
  bool ok = true;
  for (auto& a : agents_) ok = a->learner().set_weights(weights) && ok;
  return ok;
}

std::vector<double> AccController::weights() const {
  if (agents_.empty()) return {};
  return agents_.front()->learner().weights();
}

void AccController::set_lr_scale(double scale) {
  for (auto& a : agents_) a->learner().set_lr(cfg_.agent.ddqn.lr * scale);
}

}  // namespace pet::acc
