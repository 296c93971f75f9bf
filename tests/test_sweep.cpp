// SweepRunner orchestration, exercised in-process: grid expansion,
// completed-point detection via valid artifacts (and re-runs of points
// whose artifact is corrupt or records another scenario), the up-front
// rejections, a failed point that runs once while the rest of the grid
// completes, and a stop before the first point. The process-kill and
// SIGINT variants of these scenarios live in tests/crash/.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
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

/// `doc` without its root member `drop`.
JsonValue without(const JsonValue& doc, const std::string& drop) {
  JsonValue out = JsonValue::object();
  for (const auto& [key, value] : doc.members()) {
    if (key != drop) out.set(key, value);
  }
  return out;
}

/// The artifact without its manifest (execution history), dumped: what
/// golden canonicalization compares.
std::string canonical(const JsonValue& doc) {
  return without(doc, "manifest").dump();
}

void write_text(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  std::fputs(text.c_str(), f);
  std::fclose(f);
}

/// run() must throw std::invalid_argument before any point runs or any
/// file is written.
void expect_rejected_before_run(const SweepGrid& grid,
                                const SweepRunnerConfig& cfg) {
  SweepRunner runner(grid, cfg);
  EXPECT_THROW((void)runner.run(), std::invalid_argument);
  EXPECT_TRUE(!std::filesystem::exists(cfg.out_dir) ||
              std::filesystem::is_empty(cfg.out_dir));
}

TEST(SweepGrid, ExpandsCartesianProductWithStableIds) {
  SweepGrid grid;
  grid.base = tiny_base();
  grid.schemes = {Scheme::kSecn1, Scheme::kPet};
  grid.loads = {0.4, 0.8};
  grid.seeds = {1, 2, 3};

  const std::vector<SweepPoint> points = grid.expand();
  ASSERT_EQ(points.size(), 12u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, static_cast<std::int32_t>(i));
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
  EXPECT_EQ(single.expand().size(), 1u);
}

TEST(SweepRunner, CompletesEvalGridAndWritesMergedArtifact) {
  ScratchDir dir("pet_test_sweep_eval");
  SweepGrid grid;
  grid.name = "eval";
  grid.base = tiny_base();  // PET at load 0.5, seed 21: no point runs it
  grid.schemes = {Scheme::kSecn1};
  grid.loads = {0.3};
  grid.seeds = {1, 2};

  SweepRunnerConfig cfg;
  cfg.out_dir = dir.path();
  cfg.threads = 8;  // capped at the grid's two points
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
  const std::vector<SweepPoint> points = grid.expand();
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
  // The manifest names the scenario and seed of the first point, and the
  // worker count the sweep ran on, not the base scenario or the setting.
  ASSERT_NE(manifest->find("scenario"), nullptr);
  EXPECT_EQ(manifest->find("scenario")->dump(),
            scenario_json(points[0].cfg).dump());
  EXPECT_EQ(manifest->find("scenario")->find("scheme")->as_string(),
            scheme_name(Scheme::kSecn1));
  EXPECT_EQ(manifest->find("scenario")->find("load")->as_number(), 0.3);
  EXPECT_EQ(manifest->find("seed")->as_number(), 1.0);
  EXPECT_EQ(manifest->find("threads")->as_number(), 2.0);
}

TEST(SweepRunner, UnwritableMergedArtifactLeavesPathEmpty) {
  ScratchDir dir("pet_test_sweep_merged_blocked");
  SweepGrid grid;
  grid.name = "blocked";
  grid.base = tiny_base();
  grid.base.scheme = Scheme::kSecn1;

  SweepRunnerConfig cfg;
  cfg.out_dir = dir.path();
  cfg.threads = 1;
  SweepRunner runner(grid, cfg);
  // A directory where the merged artifact belongs: the rename onto it fails.
  std::filesystem::create_directories(runner.merged_artifact_path());
  const SweepRunner::Result result = runner.run();
  EXPECT_TRUE(result.all_completed());
  EXPECT_EQ(result.completed, 1);
  EXPECT_TRUE(result.artifact_path.empty()) << result.artifact_path;
  EXPECT_TRUE(std::filesystem::is_directory(runner.merged_artifact_path()));
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
  expect_rejected_before_run(grid, cfg);  // not even the valid 0.5 point
}

TEST(SweepRunner, DuplicatePointIdsFailBeforeAnyRunOrWrite) {
  ScratchDir dir("pet_test_sweep_duplicate_ids");
  SweepGrid grid;
  grid.base = tiny_base();
  grid.base.scheme = Scheme::kSecn1;
  grid.loads = {0.5, 0.50};  // both points are SECN1_load0.5_seed21

  SweepRunnerConfig cfg;
  cfg.out_dir = dir.path();
  cfg.threads = 1;
  expect_rejected_before_run(grid, cfg);

  grid.loads = {0.5};
  grid.seeds = {1, 1};
  expect_rejected_before_run(grid, cfg);
}

TEST(SweepRunner, UnusableOutDirFailsBeforeAnyRun) {
  ScratchDir dir("pet_test_sweep_bad_out_dir");
  std::filesystem::create_directories(dir.path());
  const std::string file = dir.path() + "/regular_file";
  write_text(file, "");
  SweepGrid grid;
  grid.base = tiny_base();
  grid.base.scheme = Scheme::kSecn1;
  grid.seeds = {1, 2};

  // A directory below a regular file cannot be created; a regular file is
  // not a directory. Either way no point runs, and the message names it.
  for (const std::string& out_dir : {file + "/sub", file}) {
    SCOPED_TRACE(out_dir);
    SweepRunnerConfig cfg;
    cfg.out_dir = out_dir;
    cfg.threads = 1;
    SweepRunner runner(grid, cfg);
    try {
      static_cast<void>(runner.run());
      ADD_FAILURE() << "run() accepted an unusable output directory";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(out_dir), std::string::npos)
          << e.what();
    }
  }
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
  SweepRunner second(grid, cfg);
  const SweepRunner::Result result = second.run();
  EXPECT_TRUE(result.all_completed());
  for (const SweepRunner::PointStatus& st : result.points) {
    EXPECT_EQ(st.status, "ok");
    EXPECT_EQ(st.attempts, 0);  // artifact reused, nothing re-executed
    EXPECT_TRUE(st.completed);
  }
}

TEST(SweepRunner, ResumeRerunsPointWhoseScenarioChanged) {
  ScratchDir dir("pet_test_sweep_changed");
  ScratchDir fresh_dir("pet_test_sweep_changed_fresh");
  SweepGrid grid;
  grid.name = "changed";
  grid.base = tiny_base();
  grid.base.scheme = Scheme::kSecn1;

  SweepRunnerConfig cfg;
  cfg.out_dir = dir.path();
  cfg.threads = 1;
  {
    SweepRunner first(grid, cfg);
    ASSERT_TRUE(first.run().all_completed());
  }

  // The finished 1 ms point is not a finished 3 ms point.
  grid.base.measure = sim::milliseconds(3);
  cfg.resume = true;
  SweepRunner resumed(grid, cfg);
  const SweepRunner::Result result = resumed.run();
  ASSERT_TRUE(result.all_completed());
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_EQ(result.points[0].attempts, 1);

  SweepRunnerConfig fresh_cfg;
  fresh_cfg.out_dir = fresh_dir.path();
  fresh_cfg.threads = 1;
  SweepRunner fresh(grid, fresh_cfg);
  ASSERT_TRUE(fresh.run().all_completed());
  const SweepPoint point = grid.expand()[0];
  const auto got = read_json(resumed.point_artifact_path(point));
  const auto want = read_json(fresh.point_artifact_path(point));
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(want.has_value());
  EXPECT_EQ(got->find("metrics")->dump(), want->find("metrics")->dump());
  EXPECT_EQ(got->find("manifest")->find("scenario")->dump(),
            scenario_json(point.cfg).dump());
}

TEST(SweepRunner, ResumeRerunsPointsWithCorruptArtifacts) {
  ScratchDir dir("pet_test_sweep_corrupt");
  SweepGrid grid;
  grid.name = "corrupt";
  grid.base = tiny_base();
  grid.base.scheme = Scheme::kSecn1;
  grid.seeds = {1, 2, 3, 4, 5};

  SweepRunnerConfig cfg;
  cfg.out_dir = dir.path();
  cfg.threads = 1;
  std::string uninterrupted;
  {
    SweepRunner first(grid, cfg);
    const SweepRunner::Result result = first.run();
    ASSERT_TRUE(result.all_completed());
    const auto merged = read_json(result.artifact_path);
    ASSERT_TRUE(merged.has_value());
    uninterrupted = canonical(*merged);
    const std::vector<SweepPoint> points = grid.expand();
    // Point 1's artifact loses its second half; point 2's is not JSON;
    // point 3's parses and records the point's scenario but has no
    // metrics, which only the artifact validator catches.
    const std::string truncated = first.point_artifact_path(points[1]);
    std::filesystem::resize_file(truncated,
                                 std::filesystem::file_size(truncated) / 2);
    write_text(first.point_artifact_path(points[2]), "not a run artifact");
    const std::string metricless = first.point_artifact_path(points[3]);
    const auto doc = read_json(metricless);
    ASSERT_TRUE(doc.has_value());
    write_text(metricless, without(*doc, "metrics").dump());
  }

  cfg.resume = true;
  SweepRunner resumed(grid, cfg);
  const SweepRunner::Result result = resumed.run();
  ASSERT_TRUE(result.all_completed());
  ASSERT_EQ(result.points.size(), 5u);
  EXPECT_EQ(result.points[0].attempts, 0);  // reused
  EXPECT_EQ(result.points[1].attempts, 1);
  EXPECT_EQ(result.points[2].attempts, 1);
  EXPECT_EQ(result.points[3].attempts, 1);
  EXPECT_EQ(result.points[4].attempts, 0);  // reused
  const auto merged = read_json(result.artifact_path);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(canonical(*merged), uninterrupted);
}

TEST(SweepRunner, FailedPointRunsOnceWhileRestCompletes) {
  ScratchDir dir("pet_test_sweep_failed_point");
  SweepGrid grid;
  grid.name = "failed";
  grid.base = tiny_base();
  grid.base.scheme = Scheme::kSecn1;
  grid.seeds = {1, 2};

  SweepRunnerConfig cfg;
  cfg.out_dir = dir.path();
  cfg.threads = 1;
  SweepRunner runner(grid, cfg);
  // A directory where point 0's artifact belongs: its atomic rename fails.
  const std::vector<SweepPoint> points = grid.expand();
  std::filesystem::create_directories(runner.point_artifact_path(points[0]));
  const SweepRunner::Result result = runner.run();

  EXPECT_FALSE(result.all_completed());
  EXPECT_EQ(result.failed, 1);
  EXPECT_EQ(result.completed, 1);
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_EQ(result.points[0].status, "failed");
  EXPECT_EQ(result.points[0].attempts, 1);  // run once, never again
  EXPECT_FALSE(result.points[0].completed);
  EXPECT_EQ(result.points[1].status, "ok");
  EXPECT_EQ(result.points[1].attempts, 1);
  EXPECT_TRUE(result.points[1].completed);

  // The merged artifact still lands, with the failure on record.
  const auto merged = read_json(result.artifact_path);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->find("metrics")->find("points_completed")->as_number(),
            1.0);
  EXPECT_EQ(merged->find("metrics")->find(points[0].id), nullptr);
  EXPECT_NE(merged->find("metrics")->find(points[1].id), nullptr);
  const JsonValue* rows = merged->find("manifest")->find("sweep")
                              ->find("points");
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(rows->at(0).find("status")->as_string(), "failed");
  EXPECT_EQ(rows->at(0).find("attempts")->as_number(), 1.0);
  EXPECT_EQ(rows->at(1).find("status")->as_string(), "ok");
}

TEST(SweepRunner, RequestStopEndsSweepWithResumableState) {
  ScratchDir dir("pet_test_sweep_stop");
  SweepGrid grid;
  grid.name = "stop";
  grid.base = tiny_base();
  grid.base.scheme = Scheme::kSecn1;
  grid.seeds = {1};

  SweepRunnerConfig cfg;
  cfg.out_dir = dir.path();
  cfg.threads = 1;
  {
    SweepRunner first(grid, cfg);  // point 0 of the grid below
    ASSERT_TRUE(first.run().all_completed());
  }

  // A stop before the sweep starts ("SIGINT" at launch) still reuses the
  // finished point, starts no other and writes a valid merged artifact.
  grid.seeds = {1, 2, 3};
  cfg.resume = true;
  SweepRunner runner(grid, cfg);
  runner.request_stop();
  const SweepRunner::Result result = runner.run();

  ASSERT_EQ(result.points.size(), 3u);
  EXPECT_FALSE(result.all_completed());
  EXPECT_TRUE(result.points[0].completed);
  EXPECT_EQ(result.points[0].status, "ok");
  for (const std::size_t i : {1u, 2u}) {
    EXPECT_FALSE(result.points[i].completed) << i;
    EXPECT_EQ(result.points[i].status, "stopped") << i;
    EXPECT_EQ(result.points[i].attempts, 0) << i;
  }
  EXPECT_EQ(result.completed, 1);
  EXPECT_EQ(result.failed, 0);
  const auto merged = read_json(result.artifact_path);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->find("metrics")->find("points_completed")->as_number(),
            1.0);

  // A resumed sweep reuses point 0 and finishes the rest.
  SweepRunner again(grid, cfg);
  const SweepRunner::Result rest = again.run();
  EXPECT_TRUE(rest.all_completed());
  EXPECT_EQ(rest.points[0].attempts, 0);  // reused
  EXPECT_EQ(rest.points[1].attempts, 1);
  EXPECT_EQ(rest.points[2].attempts, 1);
}

}  // namespace
}  // namespace pet::exp
