// The resume property behind crash-safe training (ISSUE 6 satellite):
// checkpoint a ReplicaRunner at a RANDOM episode boundary, reload into a
// fresh runner, continue — the chained rollout digest, the central weights,
// the episode history, and the final checkpoint bytes must all be identical
// to the uninterrupted same-seed run. Also pins run_chunked()'s contract:
// an uninterrupted chunked run is bitwise the same experiment as run().

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "exp/replica_runner.hpp"
#include "sim/checkpoint.hpp"
#include "testkit/property.hpp"

namespace pet::exp {
namespace {

constexpr std::int32_t kEpisodes = 3;

ScenarioConfig tiny_scenario(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.topo.leaf_spine().num_spines = 1;
  cfg.topo.leaf_spine().num_leaves = 2;
  cfg.topo.leaf_spine().hosts_per_leaf = 2;
  cfg.workload = workload::WorkloadKind::kWebSearch;
  cfg.load = 0.5;
  cfg.scheme = Scheme::kPet;
  cfg.pretrain = sim::milliseconds(2);
  cfg.measure = sim::milliseconds(1);
  cfg.seed = seed;
  return cfg;
}

/// Two replicas on one thread: the runner every test here checkpoints.
ReplicaRunner tiny_runner(const ScenarioConfig& cfg) {
  return ReplicaRunner(cfg, {.replicas = 2, .threads = 1});
}

[[nodiscard]] std::vector<std::uint8_t> final_state_bytes(
    const ReplicaRunner& runner) {
  sim::Checkpoint ckpt;
  runner.save_state(ckpt);
  return ckpt.serialize();
}

PROPERTY_CASES(CheckpointResume, SplitEpisodeResumeIsBitwiseExact, 5,
               testkit::tuple_of(testkit::integers(1, kEpisodes - 1),
                                 testkit::integers(1, 1 << 20))) {
  const auto split = static_cast<std::int32_t>(std::get<0>(arg));
  const auto seed = std::get<1>(arg);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("pet_resume_" + std::to_string(seed) + "_" + std::to_string(split) +
        ".ckpt"))
          .string();

  // Reference: the uninterrupted run.
  const ScenarioConfig cfg = tiny_scenario(static_cast<std::uint64_t>(seed));
  ReplicaRunner straight = tiny_runner(cfg);
  for (std::int32_t e = 0; e < kEpisodes; ++e) {
    static_cast<void>(straight.run_episode());
  }

  // Interrupted twin: stop after `split` episodes, checkpoint, "crash",
  // restore into a brand-new runner and finish the remaining episodes.
  {
    ReplicaRunner first = tiny_runner(cfg);
    for (std::int32_t e = 0; e < split; ++e) {
      static_cast<void>(first.run_episode());
    }
    PROP_ASSERT(first.save_checkpoint(path));
  }  // the pre-crash runner is gone; only the checkpoint file survives

  ReplicaRunner resumed = tiny_runner(cfg);
  std::string error;
  PROP_ASSERT(resumed.load_checkpoint(path, &error));
  PROP_ASSERT_EQ(resumed.next_episode(), static_cast<std::int64_t>(split));
  for (std::int32_t e = split; e < kEpisodes; ++e) {
    static_cast<void>(resumed.run_episode());
  }
  std::remove(path.c_str());

  // Bitwise identity of everything downstream of the split.
  PROP_ASSERT_EQ(straight.last_digest(), resumed.last_digest());
  PROP_ASSERT(straight.all_weights() == resumed.all_weights());
  const auto& ha = straight.history();
  const auto& hb = resumed.history();
  PROP_ASSERT_EQ(ha.size(), hb.size());
  for (std::size_t e = 0; e < ha.size(); ++e) {
    PROP_ASSERT_EQ(ha[e].mean_reward, hb[e].mean_reward);
    PROP_ASSERT_EQ(ha[e].transitions, hb[e].transitions);
    PROP_ASSERT_EQ(ha[e].policy_loss, hb[e].policy_loss);
    PROP_ASSERT_EQ(ha[e].value_loss, hb[e].value_loss);
  }
  // The strongest form: a checkpoint taken NOW is byte-identical too.
  PROP_ASSERT(final_state_bytes(straight) == final_state_bytes(resumed));
}

TEST(CheckpointResume, LoadRejectsScenarioMismatch) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "pet_resume_mismatch.ckpt")
          .string();
  ReplicaRunner source = tiny_runner(tiny_scenario(7));
  static_cast<void>(source.run_episode());
  ASSERT_TRUE(source.save_checkpoint(path));

  // Different seed => different scenario fingerprint: refuse to resume,
  // leave the target untouched.
  ReplicaRunner other = tiny_runner(tiny_scenario(8));
  const std::vector<double> before = other.all_weights();
  std::string error;
  EXPECT_FALSE(other.load_checkpoint(path, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(other.next_episode(), 0);
  EXPECT_EQ(other.all_weights(), before);

  std::remove(path.c_str());
  EXPECT_FALSE(other.load_checkpoint(path, &error));  // missing file
}

TEST(CheckpointResume, LoadRejectsAnotherPretrainWindow) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "pet_resume_window.ckpt")
          .string();
  ReplicaRunner source = tiny_runner(tiny_scenario(7));
  static_cast<void>(source.run_episode());
  ASSERT_TRUE(source.save_checkpoint(path));

  // Same seed, scheme and replica count; only the episode length (the
  // pretrain window) differs, so the checkpoint belongs to another run.
  ScenarioConfig window = tiny_scenario(7);
  window.pretrain = sim::milliseconds(3);
  ReplicaRunner longer = tiny_runner(window);
  const std::vector<double> before = longer.all_weights();
  std::string error;
  EXPECT_FALSE(longer.load_checkpoint(path, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(longer.next_episode(), 0);
  EXPECT_EQ(longer.all_weights(), before);
  std::remove(path.c_str());

  // A checkpoint without the scenario section cannot prove its scenario.
  sim::Checkpoint full;
  source.save_state(full);
  sim::Checkpoint bare;
  bare.set_section("replica-runner/meta", *full.section("replica-runner/meta"));
  for (std::size_t i = 0; i < source.num_agents(); ++i) {
    const std::string name = "replica-runner/agent." + std::to_string(i);
    bare.set_section(name, *full.section(name));
  }
  ReplicaRunner same = tiny_runner(tiny_scenario(7));
  EXPECT_FALSE(same.load_state(bare));
  EXPECT_EQ(same.next_episode(), 0);
  EXPECT_TRUE(same.load_state(full));
  EXPECT_EQ(same.next_episode(), 1);
}

TEST(CheckpointResume, LoadRejectsOversizedEpisodeHistory) {
  // A CRC-valid meta section whose episode-history count is far beyond its
  // bytes fails the load instead of throwing from a giant reserve.
  const std::string path =
      (std::filesystem::temp_directory_path() / "pet_resume_oversized.ckpt")
          .string();
  ReplicaRunner runner = tiny_runner(tiny_scenario(7));
  sim::Checkpoint ckpt;
  runner.save_state(ckpt);
  std::vector<std::uint8_t> meta = *ckpt.section("replica-runner/meta");
  // replicas i32, agents u64, next episode i32 and digest u64 precede the
  // history count.
  constexpr std::size_t kCountAt = 4 + 8 + 4 + 8;
  sim::ByteSink count;
  count.u64(1ull << 60);
  ASSERT_GE(meta.size(), kCountAt + 8);
  std::copy(count.bytes().begin(), count.bytes().end(),
            meta.begin() + static_cast<std::ptrdiff_t>(kCountAt));
  ckpt.set_section("replica-runner/meta", std::move(meta));
  ASSERT_TRUE(ckpt.write_file(path));

  std::string error;
  EXPECT_FALSE(runner.load_checkpoint(path, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(runner.next_episode(), 0);
  std::remove(path.c_str());
}

TEST(CheckpointResume, LoadRejectsTruncatedAgentAndRestoresNoAgent) {
  // A CRC-valid checkpoint whose scenario, meta and leading agent sections
  // are good but whose last agent section is cut short. The load fails and
  // restores no agent at all: the runner still equals a fresh one, so a
  // sweep that reports "ignoring checkpoint" really trains from scratch.
  const std::string path =
      (std::filesystem::temp_directory_path() / "pet_resume_cut_agent.ckpt")
          .string();
  ReplicaRunner source = tiny_runner(tiny_scenario(7));
  static_cast<void>(source.run_episode());
  sim::Checkpoint ckpt;
  source.save_state(ckpt);
  ASSERT_GE(source.num_agents(), 2u);
  const std::string last =
      "replica-runner/agent." + std::to_string(source.num_agents() - 1);
  std::vector<std::uint8_t> cut = *ckpt.section(last);
  cut.resize(cut.size() - 8);
  ckpt.set_section(last, std::move(cut));
  ASSERT_TRUE(ckpt.write_file(path));

  const ReplicaRunner fresh = tiny_runner(tiny_scenario(7));
  ASSERT_NE(source.all_weights(), fresh.all_weights());
  ReplicaRunner target = tiny_runner(tiny_scenario(7));
  std::string error;
  EXPECT_FALSE(target.load_checkpoint(path, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(target.next_episode(), 0);
  EXPECT_EQ(target.all_weights(), fresh.all_weights());
  sim::Checkpoint target_state;
  sim::Checkpoint fresh_state;
  target.save_state(target_state);
  fresh.save_state(fresh_state);
  for (std::size_t i = 0; i < fresh.num_agents(); ++i) {
    const std::string name = "replica-runner/agent." + std::to_string(i);
    EXPECT_EQ(*target_state.section(name), *fresh_state.section(name))
        << "agent " << i;
  }
  std::remove(path.c_str());
}

TEST(CheckpointResume, RunChunkedMatchesRunBitwise) {
  auto a = std::make_unique<Experiment>(tiny_scenario(11));
  auto b = std::make_unique<Experiment>(tiny_scenario(11));
  const Metrics ma = a->run();
  bool completed = false;
  const Metrics mb =
      b->run_chunked(sim::microseconds(250), [] { return true; }, &completed);
  EXPECT_TRUE(completed);
  EXPECT_EQ(ma.overall.count, mb.overall.count);
  EXPECT_EQ(ma.overall.avg_us, mb.overall.avg_us);
  EXPECT_EQ(ma.overall.p99_us, mb.overall.p99_us);
  EXPECT_EQ(ma.mice.avg_slowdown, mb.mice.avg_slowdown);
  EXPECT_EQ(ma.latency_avg_us, mb.latency_avg_us);
  EXPECT_EQ(ma.queue_avg_kb, mb.queue_avg_kb);
  EXPECT_EQ(ma.flows_measured, mb.flows_measured);
  EXPECT_EQ(ma.switch_drops, mb.switch_drops);
  EXPECT_EQ(ma.pfc_pauses, mb.pfc_pauses);
}

TEST(CheckpointResume, RunChunkedStopsEarlyWhenAsked) {
  auto ex = std::make_unique<Experiment>(tiny_scenario(12));
  bool completed = true;
  int polls = 0;
  static_cast<void>(ex->run_chunked(
      sim::microseconds(100), [&polls] { return ++polls <= 3; }, &completed));
  EXPECT_FALSE(completed);
  // Stopped at a chunk boundary well before the configured timeline.
  EXPECT_LT(ex->scheduler().now(),
            ex->config().pretrain + ex->config().measure);
}

}  // namespace
}  // namespace pet::exp
