// ReplicaRunner's core promise: the merged experience and the post-merge
// central weights are a pure function of (seed, replicas) — the worker
// thread count is invisible, bitwise. These tests run the same tiny
// scenario on 1 and 4 threads and demand identical digests and weights,
// plus coverage of the validation the runner's constructor runs.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "exp/replica_runner.hpp"

namespace pet::exp {
namespace {

ScenarioConfig tiny_scenario(Scheme scheme = Scheme::kPet) {
  ScenarioConfig cfg;
  cfg.topo.leaf_spine().num_spines = 1;
  cfg.topo.leaf_spine().num_leaves = 2;
  cfg.topo.leaf_spine().hosts_per_leaf = 2;
  cfg.workload = workload::WorkloadKind::kWebSearch;
  cfg.load = 0.5;
  cfg.scheme = scheme;
  cfg.pretrain = sim::milliseconds(3);
  cfg.measure = sim::milliseconds(1);
  cfg.seed = 42;
  return cfg;
}

ReplicaRunner tiny_runner(std::int32_t replicas, std::int32_t threads) {
  return ReplicaRunner(tiny_scenario(),
                       {.replicas = replicas, .threads = threads});
}

TEST(ReplicaRunner, ThreadCountDoesNotChangeMergedResult) {
  ReplicaRunner one = tiny_runner(3, 1);
  ReplicaRunner four = tiny_runner(3, 4);

  ReplicaRunner::EpisodeStats s1{};
  ReplicaRunner::EpisodeStats s4{};
  for (int e = 0; e < 2; ++e) {
    s1 = one.run_episode();
    s4 = four.run_episode();
  }

  // The merged experience digest covers every action, log-prob, value and
  // reward of every replica in replica order: bitwise identity.
  EXPECT_EQ(one.last_digest(), four.last_digest());
  EXPECT_EQ(s1.transitions, s4.transitions);
  EXPECT_GT(s1.transitions, 0u);
  EXPECT_EQ(s1.mean_reward, s4.mean_reward);
  EXPECT_EQ(s1.policy_loss, s4.policy_loss);
  EXPECT_EQ(s1.value_loss, s4.value_loss);

  // And so are the post-merge central weights of every agent.
  const std::vector<double> w1 = one.all_weights();
  const std::vector<double> w4 = four.all_weights();
  ASSERT_EQ(w1.size(), w4.size());
  ASSERT_FALSE(w1.empty());
  for (std::size_t i = 0; i < w1.size(); ++i) {
    EXPECT_EQ(w1[i], w4[i]) << "weight " << i;
  }
}

TEST(ReplicaRunner, UnevenReplicaToThreadRatioStaysDeterministic) {
  // 5 replicas on 4 threads: one thread takes a second replica, so chunk
  // boundaries and completion order differ from the even case. 5-on-3 tiles
  // differently again, and 5-on-1 is the serial reference. All three must
  // produce the same digest and the same merged weights — work-stealing or
  // completion-order effects must never leak into the merge.
  ReplicaRunner serial = tiny_runner(5, 1);
  ReplicaRunner three = tiny_runner(5, 3);
  ReplicaRunner four = tiny_runner(5, 4);

  ReplicaRunner::EpisodeStats ss{}, s3{}, s4{};
  for (int e = 0; e < 2; ++e) {
    ss = serial.run_episode();
    s3 = three.run_episode();
    s4 = four.run_episode();
  }

  EXPECT_EQ(serial.last_digest(), three.last_digest());
  EXPECT_EQ(serial.last_digest(), four.last_digest());
  EXPECT_EQ(ss.transitions, s3.transitions);
  EXPECT_EQ(ss.transitions, s4.transitions);
  EXPECT_GT(ss.transitions, 0u);
  EXPECT_EQ(ss.policy_loss, s3.policy_loss);
  EXPECT_EQ(ss.policy_loss, s4.policy_loss);

  const std::vector<double> ws = serial.all_weights();
  const std::vector<double> w3 = three.all_weights();
  const std::vector<double> w4 = four.all_weights();
  ASSERT_EQ(ws.size(), w3.size());
  ASSERT_EQ(ws.size(), w4.size());
  ASSERT_FALSE(ws.empty());
  for (std::size_t i = 0; i < ws.size(); ++i) {
    EXPECT_EQ(ws[i], w3[i]) << "weight " << i << " (3 threads)";
    EXPECT_EQ(ws[i], w4[i]) << "weight " << i << " (4 threads)";
  }
}

TEST(ReplicaRunner, ReplicaCountChangesExperience) {
  ReplicaRunner two = tiny_runner(2, 1);
  ReplicaRunner three = tiny_runner(3, 1);
  (void)two.run_episode();
  (void)three.run_episode();
  EXPECT_NE(two.last_digest(), three.last_digest());
}

TEST(ReplicaRunner, TrainingAccumulatesAcrossEpisodes) {
  ReplicaRunner runner = tiny_runner(2, 2);
  const std::vector<double> before = runner.all_weights();
  ReplicaRunnerConfig cfg = runner.config();
  EXPECT_EQ(cfg.replicas, 2);
  const ReplicaRunner::EpisodeStats st = runner.run_episode();
  EXPECT_GT(st.transitions, 0u);
  const std::vector<double> after = runner.all_weights();
  ASSERT_EQ(before.size(), after.size());
  // A merged PPO update must actually move the central weights.
  bool moved = false;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (before[i] != after[i]) {
      moved = true;
      break;
    }
  }
  EXPECT_TRUE(moved);
}

TEST(ReplicaRunner, RunReportsThroughput) {
  ReplicaRunner runner = tiny_runner(2, 1);
  ReplicaRunnerConfig cfg = runner.config();
  EXPECT_EQ(cfg.episodes, 1);
  const ReplicaRunner::RunStats stats = runner.run();
  ASSERT_EQ(stats.episodes.size(), 1u);
  EXPECT_GT(stats.replicas_per_sec, 0.0);
  EXPECT_EQ(stats.rollout_digest, runner.last_digest());
}

TEST(ReplicaRunner, RequiresPetScheme) {
  EXPECT_THROW((void)ReplicaRunner(tiny_scenario(Scheme::kSecn1),
                                   ReplicaRunnerConfig{}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)ReplicaRunner(tiny_scenario(Scheme::kAmt), {.replicas = 4}),
      std::invalid_argument);
}

TEST(ReplicaRunner, ValidatesAtConstruction) {
  EXPECT_THROW((void)tiny_runner(0, 1), std::invalid_argument);
  // The constructor builds an Experiment, which runs
  // ScenarioConfig::validate(): no runner skips it.
  ScenarioConfig overloaded = tiny_scenario();
  overloaded.load = 1.5;
  EXPECT_THROW((void)ReplicaRunner(overloaded, {}), std::invalid_argument);
}

}  // namespace
}  // namespace pet::exp
