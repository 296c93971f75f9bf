// SweepRunner orchestration, exercised in-process: grid expansion,
// completed-point detection via valid artifacts, checkpoint-based resume of
// training points, the watchdog/retry loop (driven by attempt_hook fault
// injection instead of real hangs where possible) and quarantine. The
// process-kill variants of these scenarios live in tests/crash/.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/run_artifact.hpp"
#include "exp/sweep.hpp"

namespace pet::exp {
namespace {

/// Fresh scratch directory per test (removed on destruction).
class ScratchDir {
 public:
  explicit ScratchDir(const char* name)
      : path_((std::filesystem::temp_directory_path() / name).string()) {
    std::filesystem::remove_all(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

ScenarioConfig tiny_base() {
  ScenarioConfig cfg;
  cfg.topo.leaf_spine().num_spines = 1;
  cfg.topo.leaf_spine().num_leaves = 2;
  cfg.topo.leaf_spine().hosts_per_leaf = 2;
  cfg.load = 0.5;
  cfg.flow_size_cap_bytes = 8e6;
  cfg.pretrain = sim::milliseconds(1);
  cfg.measure = sim::milliseconds(1);
  cfg.seed = 21;
  return cfg;
}

std::optional<JsonValue> read_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return JsonValue::parse(text);
}

TEST(SweepGrid, ExpandsCartesianProductWithStableIds) {
  SweepGrid grid;
  grid.base = tiny_base();
  grid.schemes = {Scheme::kSecn1, Scheme::kPet};
  grid.loads = {0.4, 0.8};
  grid.seeds = {1, 2, 3};

  const std::vector<SweepPoint> points = grid.expand(/*train_episodes=*/2);
  ASSERT_EQ(points.size(), 12u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, static_cast<std::int32_t>(i));
    // Only PET schemes train; static baselines are eval points even when
    // the sweep requests training episodes.
    EXPECT_EQ(points[i].training, points[i].cfg.scheme == Scheme::kPet);
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_NE(points[i].id, points[j].id) << i << " vs " << j;
    }
  }
  EXPECT_EQ(points[0].cfg.scheme, Scheme::kSecn1);
  EXPECT_EQ(points[0].cfg.load, 0.4);
  EXPECT_EQ(points[0].cfg.seed, 1u);
  EXPECT_EQ(points.back().cfg.scheme, Scheme::kPet);
  EXPECT_EQ(points.back().cfg.load, 0.8);
  EXPECT_EQ(points.back().cfg.seed, 3u);

  // Empty axes inherit the base value: a single point.
  SweepGrid single;
  single.base = tiny_base();
  EXPECT_EQ(single.expand(0).size(), 1u);
}

TEST(SweepRunner, CompletesEvalGridAndWritesMergedArtifact) {
  ScratchDir dir("pet_test_sweep_eval");
  SweepGrid grid;
  grid.name = "eval";
  grid.base = tiny_base();
  grid.base.scheme = Scheme::kSecn1;
  grid.seeds = {1, 2};

  SweepRunnerConfig cfg;
  cfg.out_dir = dir.path();
  cfg.threads = 2;
  SweepRunner runner(grid, cfg);
  const SweepRunner::Result result = runner.run();

  EXPECT_TRUE(result.all_completed());
  EXPECT_EQ(result.completed, 2);
  ASSERT_EQ(result.points.size(), 2u);
  for (const SweepRunner::PointStatus& st : result.points) {
    EXPECT_EQ(st.status, "ok");
    EXPECT_EQ(st.attempts, 1);
    EXPECT_TRUE(st.completed);
  }

  // Per-point artifacts validate as pet.run-artifact/1 files.
  const std::vector<SweepPoint> points = grid.expand(0);
  for (const SweepPoint& p : points) {
    const auto doc = read_json(runner.point_artifact_path(p));
    ASSERT_TRUE(doc.has_value()) << p.id;
    EXPECT_NE(doc->find("metrics"), nullptr);
  }

  // The merged artifact nests each point's metrics under its id and records
  // execution status in the manifest (outside golden canonicalization).
  const auto merged = read_json(result.artifact_path);
  ASSERT_TRUE(merged.has_value());
  const JsonValue* metrics = merged->find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_NE(metrics->find("points_total"), nullptr);
  EXPECT_EQ(metrics->find("points_total")->as_number(), 2.0);
  EXPECT_EQ(metrics->find("points_completed")->as_number(), 2.0);
  for (const SweepPoint& p : points) {
    EXPECT_NE(metrics->find(p.id), nullptr) << p.id;
  }
  const JsonValue* manifest = merged->find("manifest");
  ASSERT_NE(manifest, nullptr);
  const JsonValue* sweep = manifest->find("sweep");
  ASSERT_NE(sweep, nullptr);
  ASSERT_NE(sweep->find("points"), nullptr);
  EXPECT_EQ(sweep->find("points")->size(), 2u);
}

TEST(SweepRunner, InvalidPointFailsBeforeAnyRunOrWrite) {
  ScratchDir dir("pet_test_sweep_invalid");
  SweepGrid grid;
  grid.name = "invalid";
  grid.base = tiny_base();
  grid.base.scheme = Scheme::kSecn1;
  grid.loads = {0.5, 0.0};

  SweepRunnerConfig cfg;
  cfg.out_dir = dir.path();
  cfg.threads = 1;
  int hook_calls = 0;
  cfg.attempt_hook = [&hook_calls](const SweepPoint&, std::int32_t) {
    ++hook_calls;
  };
  SweepRunner runner(grid, cfg);
  EXPECT_THROW((void)runner.run(), std::invalid_argument);
  EXPECT_EQ(hook_calls, 0);  // not even the valid 0.5 point ran
  EXPECT_TRUE(!std::filesystem::exists(dir.path()) ||
              std::filesystem::is_empty(dir.path()));
}

TEST(SweepRunner, ResumeSkipsPointsWithValidArtifacts) {
  ScratchDir dir("pet_test_sweep_skip");
  SweepGrid grid;
  grid.name = "skip";
  grid.base = tiny_base();
  grid.base.scheme = Scheme::kSecn1;
  grid.seeds = {1, 2};

  SweepRunnerConfig cfg;
  cfg.out_dir = dir.path();
  cfg.threads = 1;
  {
    SweepRunner first(grid, cfg);
    ASSERT_TRUE(first.run().all_completed());
  }

  cfg.resume = true;
  int hook_calls = 0;
  cfg.attempt_hook = [&hook_calls](const SweepPoint&, std::int32_t) {
    ++hook_calls;
  };
  SweepRunner second(grid, cfg);
  const SweepRunner::Result result = second.run();
  EXPECT_TRUE(result.all_completed());
  EXPECT_EQ(hook_calls, 0);  // nothing re-executed
  for (const SweepRunner::PointStatus& st : result.points) {
    EXPECT_EQ(st.status, "ok");
    EXPECT_EQ(st.attempts, 0);  // artifact reused
    EXPECT_TRUE(st.completed);
  }
}

TEST(SweepRunner, TrainingPointResumesFromCheckpointBitwise) {
  ScratchDir dir("pet_test_sweep_train");
  SweepGrid grid;
  grid.name = "train";
  grid.base = tiny_base();
  grid.base.scheme = Scheme::kPet;
  grid.base.pretrain = sim::milliseconds(2);  // episode length

  SweepRunnerConfig cfg;
  cfg.out_dir = dir.path();
  cfg.threads = 1;
  cfg.train_episodes = 2;
  cfg.replicas = 2;
  cfg.checkpoint_every = 1;

  SweepRunner reference(grid, cfg);
  const SweepRunner::Result ref = reference.run();
  ASSERT_TRUE(ref.all_completed());
  const SweepPoint point = grid.expand(cfg.train_episodes)[0];
  const auto ref_doc = read_json(reference.point_artifact_path(point));
  ASSERT_TRUE(ref_doc.has_value());
  const std::string ref_digest =
      ref_doc->find("metrics")->find("rollout_digest")->as_string();

  // Simulate a crash after the episode-1 checkpoint: drop the artifact and
  // the final checkpoint, re-running must continue from episode 1 and land
  // on the SAME digest as the uninterrupted run.
  //
  // The final checkpoint on disk is the episode-2 one; a resume from it
  // would skip training entirely. Re-create the episode-1 state instead by
  // re-running a fresh sweep capped at 1 episode in a sibling directory,
  // then resuming THAT directory with the full episode budget.
  ScratchDir part_dir("pet_test_sweep_train_part");
  SweepRunnerConfig part = cfg;
  part.out_dir = part_dir.path();
  part.train_episodes = 1;
  {
    SweepRunner half(grid, part);
    ASSERT_TRUE(half.run().all_completed());
    // The half-sweep's artifact says "done at 1 episode" — that is the
    // partial-point case, so remove it and keep only the checkpoint.
    ASSERT_TRUE(std::filesystem::remove(half.point_artifact_path(point)));
  }
  part.train_episodes = cfg.train_episodes;
  part.resume = true;
  SweepRunner resumed(grid, part);
  const SweepRunner::Result res = resumed.run();
  ASSERT_TRUE(res.all_completed());
  ASSERT_EQ(res.points.size(), 1u);
  EXPECT_EQ(res.points[0].status, "resumed");
  EXPECT_EQ(res.points[0].attempts, 1);
  EXPECT_EQ(res.points[0].resumed_from_episode, 1);

  const auto res_doc = read_json(resumed.point_artifact_path(point));
  ASSERT_TRUE(res_doc.has_value());
  EXPECT_EQ(res_doc->find("metrics")->find("rollout_digest")->as_string(),
            ref_digest);
  EXPECT_EQ(res_doc->find("metrics")->find("episodes")->as_number(), 2.0);
}

TEST(SweepRunner, WatchdogAbandonsHangThenRetrySucceeds) {
  ScratchDir dir("pet_test_sweep_watchdog");
  SweepGrid grid;
  grid.name = "watchdog";
  grid.base = tiny_base();
  grid.base.scheme = Scheme::kSecn1;

  SweepRunnerConfig cfg;
  cfg.out_dir = dir.path();
  cfg.threads = 1;
  cfg.watchdog_seconds = 0.2;
  cfg.grace_seconds = 0.1;
  cfg.max_retries = 2;
  cfg.backoff_base_seconds = 0.01;
  cfg.attempt_hook = [](const SweepPoint&, std::int32_t attempt) {
    if (attempt == 0) {
      // Hang far past watchdog + grace; the abandoned thread unblocks here
      // and then observes the cancel flag.
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
    }
  };

  SweepRunner runner(grid, cfg);
  const SweepRunner::Result result = runner.run();
  EXPECT_TRUE(result.all_completed());
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_EQ(result.points[0].status, "retried");
  EXPECT_EQ(result.points[0].attempts, 2);
  EXPECT_TRUE(result.points[0].completed);
}

TEST(SweepRunner, QuarantinesExhaustedPointWhileRestCompletes) {
  ScratchDir dir("pet_test_sweep_quarantine");
  SweepGrid grid;
  grid.name = "quarantine";
  grid.base = tiny_base();
  grid.base.scheme = Scheme::kSecn1;
  grid.seeds = {1, 2};

  SweepRunnerConfig cfg;
  cfg.out_dir = dir.path();
  cfg.threads = 1;
  cfg.max_retries = 1;
  cfg.backoff_base_seconds = 0.01;
  cfg.attempt_hook = [](const SweepPoint& p, std::int32_t) {
    if (p.index == 0) throw std::runtime_error("injected point failure");
  };

  SweepRunner runner(grid, cfg);
  const SweepRunner::Result result = runner.run();
  EXPECT_FALSE(result.all_completed());
  EXPECT_EQ(result.quarantined, 1);
  EXPECT_EQ(result.completed, 1);
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_EQ(result.points[0].status, "quarantined");
  EXPECT_EQ(result.points[0].attempts, 2);  // initial + 1 retry
  EXPECT_FALSE(result.points[0].completed);
  EXPECT_EQ(result.points[1].status, "ok");
  EXPECT_TRUE(result.points[1].completed);

  // The merged artifact still lands, with the quarantine on record.
  const auto merged = read_json(result.artifact_path);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->find("metrics")->find("points_completed")->as_number(),
            1.0);
  const JsonValue* rows = merged->find("manifest")->find("sweep")
                              ->find("points");
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(rows->at(0).find("status")->as_string(), "quarantined");
}

TEST(SweepRunner, RequestStopEndsSweepWithResumableState) {
  ScratchDir dir("pet_test_sweep_stop");
  SweepGrid grid;
  grid.name = "stop";
  grid.base = tiny_base();
  grid.base.scheme = Scheme::kSecn1;
  grid.seeds = {1, 2, 3};

  SweepRunnerConfig cfg;
  cfg.out_dir = dir.path();
  cfg.threads = 1;
  SweepRunner* self = nullptr;
  cfg.attempt_hook = [&self](const SweepPoint& p, std::int32_t) {
    if (p.index == 1) self->request_stop();  // "SIGINT" mid-sweep
  };
  SweepRunner runner(grid, cfg);
  self = &runner;
  const SweepRunner::Result result = runner.run();

  ASSERT_EQ(result.points.size(), 3u);
  EXPECT_TRUE(result.points[0].completed);
  EXPECT_FALSE(result.points[1].completed);
  EXPECT_EQ(result.points[1].status, "stopped");
  EXPECT_EQ(result.points[2].status, "stopped");
  EXPECT_EQ(result.completed, 1);

  // Point 0's artifact survived the stop; a resumed sweep reuses it and
  // finishes the rest.
  cfg.attempt_hook = nullptr;
  cfg.resume = true;
  SweepRunner again(grid, cfg);
  const SweepRunner::Result rest = again.run();
  EXPECT_TRUE(rest.all_completed());
  EXPECT_EQ(rest.points[0].attempts, 0);  // reused
  EXPECT_EQ(rest.points[1].attempts, 1);
  EXPECT_EQ(rest.points[2].attempts, 1);
}

}  // namespace
}  // namespace pet::exp
