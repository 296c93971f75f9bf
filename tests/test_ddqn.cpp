#include "rl/ddqn.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "rl/categorical.hpp"
#include "rl/kernels.hpp"

namespace pet::rl {
namespace {

DdqnConfig small_config() {
  DdqnConfig cfg;
  cfg.input_size = 2;
  cfg.head_sizes = {3, 2};
  cfg.hidden = {16};
  cfg.seed = 3;
  cfg.batch_size = 16;
  cfg.epsilon_decay_steps = 100;
  return cfg;
}

TEST(DdqnAgent, ActShapes) {
  auto replay = std::make_shared<ReplayBuffer>(100);
  DdqnAgent agent(small_config(), replay, 0);
  sim::Rng rng(1);
  const std::vector<double> state{0.2, -0.1};
  const auto actions = agent.act(state, rng);
  ASSERT_EQ(actions.size(), 2u);
  EXPECT_LT(actions[0], 3);
  EXPECT_LT(actions[1], 2);
}

TEST(DdqnAgent, EpsilonDecaysLinearlyWithObservations) {
  auto replay = std::make_shared<ReplayBuffer>(100);
  DdqnConfig cfg = small_config();
  cfg.epsilon_start = 1.0;
  cfg.epsilon_end = 0.1;
  cfg.epsilon_decay_steps = 10;
  DdqnAgent agent(cfg, replay, 0);
  EXPECT_DOUBLE_EQ(agent.epsilon(), 1.0);
  DqnTransition t;
  t.state = {0, 0};
  t.next_state = {0, 0};
  t.actions = {0, 0};
  for (int i = 0; i < 5; ++i) agent.observe(t);
  EXPECT_NEAR(agent.epsilon(), 0.55, 1e-12);
  for (int i = 0; i < 20; ++i) agent.observe(t);
  EXPECT_DOUBLE_EQ(agent.epsilon(), 0.1);
}

TEST(DdqnAgent, TrainStepNoopUntilBatchAvailable) {
  auto replay = std::make_shared<ReplayBuffer>(100);
  DdqnAgent agent(small_config(), replay, 0);
  agent.train_step();
  EXPECT_EQ(agent.train_steps(), 0);
}

TEST(DdqnAgent, SharedReplayIsGlobal) {
  auto replay = std::make_shared<ReplayBuffer>(100);
  DdqnAgent a(small_config(), replay, 0);
  DdqnAgent b(small_config(), replay, 1);
  DqnTransition t;
  t.state = {0, 0};
  t.next_state = {0, 0};
  t.actions = {0, 0};
  a.observe(t);
  b.observe(t);
  EXPECT_EQ(replay->size(), 2u);
  EXPECT_GT(replay->bytes_from_others(0), 0u);
}

TEST(DdqnAgent, WeightsRoundTrip) {
  auto replay = std::make_shared<ReplayBuffer>(100);
  DdqnConfig cfg1 = small_config();
  DdqnConfig cfg2 = small_config();
  cfg2.seed = 77;
  DdqnAgent a(cfg1, replay, 0);
  DdqnAgent b(cfg2, replay, 1);
  const std::vector<double> state{0.4, 0.6};
  EXPECT_NE(a.weights(), b.weights());  // different init seeds
  ASSERT_TRUE(b.set_weights(a.weights()));
  EXPECT_EQ(a.weights(), b.weights());
  EXPECT_EQ(a.act_greedy(state), b.act_greedy(state));
}

/// Contextual bandit with gamma 0: Q-values must converge to immediate
/// rewards, making the greedy policy optimal.
TEST(DdqnAgent, LearnsContextualBandit) {
  auto replay = std::make_shared<ReplayBuffer>(2000);
  DdqnConfig cfg;
  cfg.input_size = 2;
  cfg.head_sizes = {2};
  cfg.hidden = {16};
  cfg.lr = 5e-3;
  cfg.gamma = 0.0;
  cfg.batch_size = 32;
  cfg.target_sync_interval = 50;
  cfg.epsilon_start = 1.0;
  cfg.epsilon_end = 0.1;
  cfg.epsilon_decay_steps = 500;
  cfg.seed = 9;
  DdqnAgent agent(cfg, replay, 0);
  sim::Rng rng(31);

  for (int step = 0; step < 1500; ++step) {
    const double ctx = rng.bernoulli(0.5) ? 1.0 : 0.0;
    const std::vector<double> state{ctx, 1.0 - ctx};
    const auto actions = agent.act(state, rng);
    const double reward =
        actions[0] == static_cast<std::int32_t>(ctx) ? 1.0 : 0.0;
    agent.observe(DqnTransition{.state = state,
                                .actions = actions,
                                .reward = reward,
                                .next_state = state});
    agent.train_step();
  }
  EXPECT_EQ(agent.act_greedy(std::vector<double>{1.0, 0.0})[0], 1);
  EXPECT_EQ(agent.act_greedy(std::vector<double>{0.0, 1.0})[0], 0);
}

TEST(DdqnAgent, FullExplorationIsUniform) {
  auto replay = std::make_shared<ReplayBuffer>(10);
  DdqnConfig cfg = small_config();
  cfg.epsilon_start = 1.0;
  cfg.epsilon_end = 1.0;
  DdqnAgent agent(cfg, replay, 0);
  sim::Rng rng(17);
  std::vector<int> counts(3, 0);
  const std::vector<double> state{0.0, 0.0};
  for (int i = 0; i < 9000; ++i) ++counts[agent.act(state, rng)[0]];
  for (const int c : counts) EXPECT_NEAR(c / 9000.0, 1.0 / 3.0, 0.03);
}

/// The per-sample DDQN update, rebuilt from the public Mlp/Adam/ReplayBuffer
/// API: per sample and head, three one-row forward_batch calls (online and
/// target on the next state, online on the state) and one one-row
/// backward_batch; then one Adam step, and a target sync every
/// target_sync_interval steps.
/// DdqnAgent::train_step batches this and must match it bit for bit.
class PerSampleDdqn {
 public:
  PerSampleDdqn(const DdqnConfig& cfg, std::span<const double> init,
                std::int32_t agent_id)
      : cfg_(cfg),
        sample_rng_(sim::derive_seed(cfg.seed, "ddqn-sample") +
                    static_cast<std::uint64_t>(agent_id)) {
    sim::Rng unused(0);  // parameters are overwritten from `init` below
    for (const std::int32_t n : cfg.head_sizes) {
      std::vector<std::int32_t> sizes{cfg.input_size};
      sizes.insert(sizes.end(), cfg.hidden.begin(), cfg.hidden.end());
      sizes.push_back(n);
      online_.emplace_back(sizes, Activation::kRelu, unused);
      target_.emplace_back(sizes, Activation::kRelu, unused);
    }
    for (auto& net : online_) net.collect(online_refs_);
    for (auto& net : target_) net.collect(target_refs_);
    restore_params(online_refs_, init);
    restore_params(target_refs_, init);
    opt_ = std::make_unique<Adam>(
        online_refs_,
        AdamConfig{.lr = cfg.lr, .max_grad_norm = cfg.max_grad_norm});
  }

  void train_step(const ReplayBuffer& replay) {
    if (replay.size() < static_cast<std::size_t>(cfg_.batch_size)) return;
    const auto idx = replay.sample_indices(
        static_cast<std::size_t>(cfg_.batch_size), sample_rng_);
    const double inv_b = 1.0 / static_cast<double>(idx.size());
    for (auto& net : online_) net.zero_grad();
    for (const std::size_t i : idx) {
      const DqnTransition& tr = replay.at(i);
      for (std::size_t h = 0; h < online_.size(); ++h) {
        const std::vector<double> q_next_online =
            online_[h].forward_batch(tr.next_state, 1);
        const std::vector<double> q_next_target =
            target_[h].forward_batch(tr.next_state, 1);
        Mlp::BatchCache cache;
        const std::vector<double> q_cur =
            online_[h].forward_batch(tr.state, 1, &cache);
        const double target =
            tr.reward + cfg_.gamma * q_next_target[static_cast<std::size_t>(
                                         argmax(q_next_online))];
        const auto a = static_cast<std::size_t>(tr.actions[h]);
        std::vector<double> dq(q_cur.size(), 0.0);
        dq[a] = 2.0 * (q_cur[a] - target) * inv_b;
        online_[h].backward_batch(tr.state, cache, dq, 1);
      }
    }
    opt_->step();
    if (++steps_ % cfg_.target_sync_interval == 0) {
      restore_params(target_refs_, snapshot_params(online_refs_));
      ++syncs_;
    }
  }

  [[nodiscard]] std::vector<double> weights() const {
    return snapshot_params(online_refs_);
  }
  [[nodiscard]] std::int64_t steps() const { return steps_; }
  [[nodiscard]] std::int64_t syncs() const { return syncs_; }

 private:
  DdqnConfig cfg_;
  std::vector<Mlp> online_;
  std::vector<Mlp> target_;
  ParamRefs online_refs_;
  ParamRefs target_refs_;
  std::unique_ptr<Adam> opt_;
  sim::Rng sample_rng_;
  std::int64_t steps_ = 0;
  std::int64_t syncs_ = 0;
};

/// Pin the kernel backend for a scope.
struct BackendGuard {
  explicit BackendGuard(kern::Backend b) { kern::set_backend(b); }
  ~BackendGuard() { kern::reset_backend(); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;
};

/// ACC's network shape: 18 inputs, 64 -> 64 hidden, heads {10, 10, 20},
/// batch 32. A short sync interval puts three target syncs in the run.
void expect_batched_step_matches_per_sample(kern::Backend backend) {
  BackendGuard guard(backend);
  DdqnConfig cfg;
  cfg.input_size = 18;
  cfg.head_sizes = {10, 10, 20};
  cfg.target_sync_interval = 100;
  cfg.seed = 21;
  constexpr std::int32_t kAgentId = 3;
  constexpr std::int64_t kSteps = 320;
  auto replay = std::make_shared<ReplayBuffer>(4096);
  DdqnAgent agent(cfg, replay, kAgentId);
  PerSampleDdqn reference(cfg, agent.weights(), kAgentId);

  sim::Rng data(99);
  while (agent.train_steps() < kSteps) {
    DqnTransition t;
    for (std::int32_t i = 0; i < cfg.input_size; ++i) {
      t.state.push_back(data.uniform(-1.0, 1.0));
      t.next_state.push_back(data.uniform(-1.0, 1.0));
    }
    for (const std::int32_t n : cfg.head_sizes) {
      t.actions.push_back(static_cast<std::int32_t>(
          data.uniform_int(static_cast<std::uint64_t>(n))));
    }
    t.reward = data.uniform(-1.0, 1.0);
    agent.observe(std::move(t));
    agent.train_step();
    reference.train_step(*replay);
  }
  ASSERT_EQ(reference.steps(), kSteps);
  ASSERT_GE(reference.syncs(), 2);
  const std::vector<double> got = agent.weights();
  const std::vector<double> want = reference.weights();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0);
}

TEST(DdqnOracle, BatchedStepMatchesPerSampleUpdateScalar) {
  expect_batched_step_matches_per_sample(kern::Backend::kScalar);
}

TEST(DdqnOracle, BatchedStepMatchesPerSampleUpdateAvx2) {
  if (!kern::avx2_supported()) GTEST_SKIP() << "CPU lacks AVX2";
  expect_batched_step_matches_per_sample(kern::Backend::kAvx2);
}

}  // namespace
}  // namespace pet::rl
