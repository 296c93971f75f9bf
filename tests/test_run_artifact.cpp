#include "exp/run_artifact.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "exp/trace_export.hpp"
#include "sim/fs_atomic.hpp"

namespace pet::exp {
namespace {

ScenarioConfig tiny_scenario() {
  ScenarioConfig cfg;
  cfg.scheme = Scheme::kSecn1;
  cfg.topo.leaf_spine().num_spines = 1;
  cfg.topo.leaf_spine().num_leaves = 2;
  cfg.topo.leaf_spine().hosts_per_leaf = 4;
  cfg.load = 0.4;
  cfg.flow_size_cap_bytes = 2e6;
  cfg.pretrain = sim::milliseconds(1);
  cfg.measure = sim::milliseconds(3);
  cfg.seed = 11;
  cfg.profiling = true;
  cfg.tune_dcqcn_for_rate();
  return cfg;
}

RunArtifact populated_artifact() {
  RunArtifact art("unit_test");
  art.set_mode("test");
  art.set_seed(11);
  art.set_threads(1);
  art.add_metric("overall.avg_fct_us", 123.5);
  return art;
}

TEST(AtomicWrite, WritesContentAndCleansUp) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "pet_test_atomic.txt")
          .string();
  std::remove(path.c_str());
  ASSERT_TRUE(sim::atomic_write_file(path, "first"));
  ASSERT_TRUE(sim::atomic_write_file(path, "second"));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[16] = {};
  const std::size_t n = std::fread(buf, 1, sizeof buf, f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, n), "second");
  std::remove(path.c_str());

  // Unwritable target directory: failure, not a crash.
  EXPECT_FALSE(sim::atomic_write_file("/nonexistent-dir/x/y.txt", "nope"));
}

TEST(RunArtifact, DefaultPathFollowsName) {
  EXPECT_EQ(RunArtifact("fig4_fct_websearch").default_path(),
            "BENCH_fig4_fct_websearch.json");
}

TEST(RunArtifact, WriterOutputPassesValidator) {
  RunArtifact art = populated_artifact();
  std::string error;
  EXPECT_TRUE(RunArtifact::validate_text(art.to_json_text(), &error)) << error;
}

TEST(RunArtifact, FullExperimentArtifactValidatesAndCarriesPayload) {
  Experiment experiment(tiny_scenario());
  const Metrics m = experiment.run();

  RunArtifact art("unit_full");
  art.set_mode("test");
  art.set_seed(11);
  art.record_run(experiment);
  art.add_metrics("", m);

  const std::string text = art.to_json_text();
  std::string error;
  ASSERT_TRUE(RunArtifact::validate_text(text, &error)) << error;

  const auto doc = JsonValue::parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue* manifest = doc->find("manifest");
  ASSERT_NE(manifest, nullptr);
  EXPECT_EQ(manifest->find("scenario")->find("scheme")->as_string(), "SECN1");
  const JsonValue* metrics = doc->find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_NE(metrics->find("overall.avg_fct_us"), nullptr);
  EXPECT_GT(metrics->find("overall.avg_fct_us")->as_number(), 0.0);
  const JsonValue* switches = doc->find("switches");
  ASSERT_NE(switches, nullptr);
  EXPECT_EQ(switches->size(), 3u);  // 2 leaves + 1 spine
  EXPECT_NE(switches->at(0).find("ecn_config")->find("uniform"), nullptr);
  // The manifest carries the topology spec; the payload the per-tier rollup.
  const JsonValue* topo = manifest->find("scenario")->find("topology");
  ASSERT_NE(topo, nullptr);
  EXPECT_EQ(topo->find("kind")->as_string(), "leaf-spine");
  EXPECT_EQ(topo->find("hosts")->as_number(), 8.0);
  const JsonValue* tiers = doc->find("tiers");
  ASSERT_NE(tiers, nullptr);
  ASSERT_EQ(tiers->size(), 2u);
  EXPECT_EQ(tiers->at(0).find("label")->as_string(), "leaf");
  EXPECT_EQ(tiers->at(0).find("switches")->as_number(), 2.0);
  EXPECT_EQ(tiers->at(1).find("label")->as_string(), "spine");
  EXPECT_GT(tiers->at(0).find("tx_bytes")->as_number(), 0.0);
  // Profiling was on, so the scheduler attributed event kinds.
  const JsonValue* sections = doc->find("profiler")->find("sections");
  ASSERT_NE(sections, nullptr);
  EXPECT_GT(sections->size(), 0u);
  bool saw_net_tx = false;
  for (const JsonValue& s : sections->items()) {
    if (s.find("name")->as_string() == "net.tx") saw_net_tx = true;
  }
  EXPECT_TRUE(saw_net_tx);
  // run() wraps both lifecycle phases in spans.
  const JsonValue* spans = doc->find("profiler")->find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->size(), 2u);
  EXPECT_EQ(spans->at(0).find("name")->as_string(), "pretrain");
  EXPECT_EQ(spans->at(1).find("name")->as_string(), "measure");
}

TEST(RunArtifact, WriteCreatesParseableFile) {
  RunArtifact art = populated_artifact();
  const auto path =
      std::filesystem::temp_directory_path() / "pet-artifact-test.json";
  ASSERT_TRUE(art.write(path.string()));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  EXPECT_TRUE(RunArtifact::validate_text(buf.str(), &error)) << error;
  std::filesystem::remove(path);
}

TEST(RunArtifact, WriteFailureReturnsFalse) {
  EXPECT_FALSE(populated_artifact().write("/nonexistent-dir/artifact.json"));
}

TEST(RunArtifact, ValidatorRejectsBadDocuments) {
  std::string error;
  EXPECT_FALSE(RunArtifact::validate_text("not json", &error));
  EXPECT_NE(error.find("invalid JSON"), std::string::npos);

  error.clear();
  EXPECT_FALSE(RunArtifact::validate_text("[1,2]", &error));

  // Wrong schema version.
  JsonValue doc = populated_artifact().to_json();
  doc.set("schema", "pet.run-artifact/999");
  error.clear();
  EXPECT_FALSE(RunArtifact::validate_text(doc.dump(), &error));
  EXPECT_NE(error.find("schema version"), std::string::npos);

  // Missing manifest keys.
  JsonValue no_manifest = populated_artifact().to_json();
  no_manifest.set("manifest", JsonValue::object());
  EXPECT_FALSE(RunArtifact::validate_text(no_manifest.dump(), nullptr));

  // Missing metrics object.
  JsonValue no_metrics = populated_artifact().to_json();
  no_metrics.set("metrics", JsonValue());
  EXPECT_FALSE(RunArtifact::validate_text(no_metrics.dump(), nullptr));

  // Missing profiler sections.
  JsonValue no_prof = populated_artifact().to_json();
  no_prof.set("profiler", JsonValue::object());
  EXPECT_FALSE(RunArtifact::validate_text(no_prof.dump(), nullptr));
}

TEST(RunArtifact, ValidatorRequiresTopologyInRecordedScenarios) {
  RunArtifact art = populated_artifact();
  art.set_scenario(tiny_scenario());
  std::string error;
  ASSERT_TRUE(RunArtifact::validate_text(art.to_json_text(), &error)) << error;

  // Strip the topology block: a scenario without it must be rejected.
  JsonValue doc = art.to_json();
  const JsonValue* scenario = doc.find("manifest")->find("scenario");
  ASSERT_NE(scenario, nullptr);
  JsonValue stripped = JsonValue::object();
  for (const auto& [key, value] : scenario->members()) {
    if (key != "topology") stripped.set(key, value);
  }
  JsonValue manifest = *doc.find("manifest");
  manifest.set("scenario", std::move(stripped));
  doc.set("manifest", std::move(manifest));
  error.clear();
  EXPECT_FALSE(RunArtifact::validate_text(doc.dump(), &error));
  EXPECT_NE(error.find("topology"), std::string::npos) << error;
}

TEST(TraceExport, EmitsPhaseSpansAndInstantEvents) {
  Experiment experiment(tiny_scenario());
  experiment.event_log().record("fault", "link-down 0-1");
  (void)experiment.run();
  const JsonValue trace =
      chrome_trace_json(&experiment.event_log(), &experiment.profiler());
  const JsonValue* events = trace.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GT(events->size(), 0u);
  bool saw_span = false;
  bool saw_instant = false;
  for (const JsonValue& e : events->items()) {
    const std::string& ph = e.find("ph")->as_string();
    if (ph == "X" && e.find("name")->as_string() == "measure") saw_span = true;
    if (ph == "i") saw_instant = true;
    // Timestamps are simulated microseconds — present and non-negative.
    ASSERT_NE(e.find("ts"), nullptr);
    EXPECT_GE(e.find("ts")->as_number(), 0.0);
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
}

TEST(TraceExport, ByteIdenticalAcrossSameSeedRuns) {
  // The acceptance gate for trusted instrumentation: profiling and trace
  // export must be pure observers, so two runs of the same seed export the
  // exact same bytes (spans carry sim time, never wall clock).
  const auto run_trace = [] {
    Experiment experiment(tiny_scenario());
    (void)experiment.run();
    return chrome_trace_json(&experiment.event_log(), &experiment.profiler())
        .dump(2);
  };
  const std::string a = run_trace();
  const std::string b = run_trace();
  EXPECT_EQ(a, b);
}

TEST(TraceExport, WriteChromeTraceCreatesFileAndReportsFailure) {
  Experiment experiment(tiny_scenario());
  experiment.run_until(sim::milliseconds(1));
  const auto path =
      std::filesystem::temp_directory_path() / "pet-trace-test.json";
  ASSERT_TRUE(write_chrome_trace(path.string(), &experiment.event_log(),
                                 &experiment.profiler()));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  const auto doc = JsonValue::parse(buf.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_NE(doc->find("traceEvents"), nullptr);
  std::filesystem::remove(path);
  EXPECT_FALSE(write_chrome_trace("/nonexistent-dir/trace.json",
                                  &experiment.event_log(),
                                  &experiment.profiler()));
}

}  // namespace
}  // namespace pet::exp
