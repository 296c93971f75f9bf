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
#include <string>
#include <tuple>
#include <vector>

#include "exp/experiment_builder.hpp"
#include "exp/replica_runner.hpp"
#include "sim/checkpoint.hpp"
#include "testkit/property.hpp"

namespace pet::exp {
namespace {

constexpr std::int32_t kEpisodes = 3;

ExperimentBuilder tiny_scenario(std::uint64_t seed) {
  net::LeafSpineConfig topo;
  topo.num_spines = 1;
  topo.num_leaves = 2;
  topo.hosts_per_leaf = 2;
  return ExperimentBuilder{}
      .topology(topo)
      .workload(workload::WorkloadKind::kWebSearch)
      .load(0.5)
      .scheme(Scheme::kPet)
      .phases(sim::milliseconds(2), sim::milliseconds(1))
      .seed(seed);
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
  ReplicaRunner straight =
      tiny_scenario(static_cast<std::uint64_t>(seed)).replicas(2).threads(1)
          .build_runner();
  for (std::int32_t e = 0; e < kEpisodes; ++e) {
    static_cast<void>(straight.run_episode());
  }

  // Interrupted twin: stop after `split` episodes, checkpoint, "crash",
  // restore into a brand-new runner and finish the remaining episodes.
  {
    ReplicaRunner first =
        tiny_scenario(static_cast<std::uint64_t>(seed)).replicas(2).threads(1)
            .build_runner();
    for (std::int32_t e = 0; e < split; ++e) {
      static_cast<void>(first.run_episode());
    }
    PROP_ASSERT(first.save_checkpoint(path));
  }  // the pre-crash runner is gone; only the checkpoint file survives

  ReplicaRunner resumed =
      tiny_scenario(static_cast<std::uint64_t>(seed)).replicas(2).threads(1)
          .build_runner();
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
  ReplicaRunner source = tiny_scenario(7).replicas(2).threads(1).build_runner();
  static_cast<void>(source.run_episode());
  ASSERT_TRUE(source.save_checkpoint(path));

  // Different seed => different scenario fingerprint: refuse to resume,
  // leave the target untouched.
  ReplicaRunner other = tiny_scenario(8).replicas(2).threads(1).build_runner();
  const std::vector<double> before = other.all_weights();
  std::string error;
  EXPECT_FALSE(other.load_checkpoint(path, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(other.next_episode(), 0);
  EXPECT_EQ(other.all_weights(), before);

  std::remove(path.c_str());
  EXPECT_FALSE(other.load_checkpoint(path, &error));  // missing file
}

TEST(CheckpointResume, LoadRejectsOversizedEpisodeHistory) {
  // A CRC-valid meta section whose episode-history count is far beyond its
  // bytes fails the load instead of throwing from a giant reserve.
  const std::string path =
      (std::filesystem::temp_directory_path() / "pet_resume_oversized.ckpt")
          .string();
  ReplicaRunner runner = tiny_scenario(7).replicas(2).threads(1).build_runner();
  sim::Checkpoint ckpt;
  runner.save_state(ckpt);
  std::vector<std::uint8_t> meta = *ckpt.section("replica-runner/meta");
  // seed u64, scheme u8, replicas i32, agents u64, next episode i32 and
  // digest u64 precede the history count.
  constexpr std::size_t kCountAt = 8 + 1 + 4 + 8 + 4 + 8;
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

TEST(CheckpointResume, RunChunkedMatchesRunBitwise) {
  auto a = tiny_scenario(11).build();
  auto b = tiny_scenario(11).build();
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
  auto ex = tiny_scenario(12).build();
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
