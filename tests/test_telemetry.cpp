#include "exp/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "exp/experiment.hpp"

namespace pet::exp {
namespace {

ScenarioConfig tiny_scenario() {
  ScenarioConfig cfg;
  cfg.scheme = Scheme::kSecn1;
  cfg.topo.leaf_spine().num_spines = 1;
  cfg.topo.leaf_spine().num_leaves = 2;
  cfg.topo.leaf_spine().hosts_per_leaf = 4;
  cfg.load = 0.5;
  cfg.flow_size_cap_bytes = 2e6;
  cfg.pretrain = sim::milliseconds(1);
  cfg.measure = sim::milliseconds(4);
  cfg.tune_dcqcn_for_rate();
  return cfg;
}

TEST(Telemetry, SamplesEverySwitchEveryPeriod) {
  Experiment experiment(tiny_scenario());
  TelemetryRecorder telemetry(experiment.scheduler(),
                              experiment.network().switches(),
                              sim::microseconds(500));
  telemetry.start();
  experiment.run_until(sim::milliseconds(2));
  telemetry.stop();
  // 3 switches x 4 sampling points (0.5, 1.0, 1.5, 2.0 ms).
  EXPECT_EQ(telemetry.samples().size(), 3u * 4u);
}

TEST(Telemetry, ThroughputReflectsTraffic) {
  Experiment experiment(tiny_scenario());
  TelemetryRecorder telemetry(experiment.scheduler(),
                              experiment.network().switches(),
                              sim::microseconds(500));
  telemetry.start();
  experiment.run_until(sim::milliseconds(4));
  double max_mbps = 0.0;
  for (const auto& s : telemetry.samples()) {
    max_mbps = std::max(max_mbps, s.tx_mbps);
    EXPECT_GE(s.tx_mbps, 0.0);
    EXPECT_GE(s.marked_share, 0.0);
    EXPECT_LE(s.marked_share, 1.0);
  }
  EXPECT_GT(max_mbps, 100.0) << "50% load must show real throughput";
}

TEST(Telemetry, CarriesEcnConfig) {
  Experiment experiment(tiny_scenario());
  TelemetryRecorder telemetry(experiment.scheduler(),
                              experiment.network().switches());
  telemetry.start();
  experiment.run_until(sim::milliseconds(1));
  ASSERT_FALSE(telemetry.samples().empty());
  for (const auto& s : telemetry.samples()) {
    // SECN1 installs one uniform config, so the roll-up collapses.
    EXPECT_TRUE(s.ecn.uniform);
    EXPECT_EQ(s.ecn.kmin_min_bytes, secn1_config().kmin_bytes);
    EXPECT_EQ(s.ecn.kmin_max_bytes, secn1_config().kmin_bytes);
    EXPECT_EQ(s.ecn.kmax_min_bytes, secn1_config().kmax_bytes);
    EXPECT_EQ(s.ecn.kmax_max_bytes, secn1_config().kmax_bytes);
    EXPECT_GT(s.ecn.queues, 0);
  }
}

TEST(Telemetry, ReportsPerPortSpreadNotPortZero) {
  // Regression: sample_all used to read port 0 only, so a config written
  // to any other port was invisible in telemetry.
  Experiment experiment(tiny_scenario());
  net::SwitchDevice* sw = experiment.network().switches().front();
  ASSERT_GT(sw->num_ports(), 1);
  net::RedEcnConfig odd;
  odd.kmin_bytes = 1'000;
  odd.kmax_bytes = 5'000;
  odd.pmax = 0.9;
  sw->port(1).set_ecn_config(odd);

  TelemetryRecorder telemetry(experiment.scheduler(),
                              experiment.network().switches());
  telemetry.start();
  experiment.run_until(sim::milliseconds(1));
  ASSERT_FALSE(telemetry.samples().empty());
  bool saw_modified_switch = false;
  for (const auto& s : telemetry.samples()) {
    if (s.switch_id != sw->id()) continue;
    saw_modified_switch = true;
    EXPECT_FALSE(s.ecn.uniform);
    EXPECT_EQ(s.ecn.kmin_min_bytes, odd.kmin_bytes);
    EXPECT_EQ(s.ecn.kmin_max_bytes, secn1_config().kmin_bytes);
    EXPECT_EQ(s.ecn.kmax_min_bytes, odd.kmax_bytes);
    EXPECT_EQ(s.ecn.kmax_max_bytes, secn1_config().kmax_bytes);
    EXPECT_DOUBLE_EQ(s.ecn.pmax_max, 0.9);
  }
  EXPECT_TRUE(saw_modified_switch);
}

TEST(Telemetry, CsvWellFormed) {
  Experiment experiment(tiny_scenario());
  TelemetryRecorder telemetry(experiment.scheduler(),
                              experiment.network().switches(),
                              sim::milliseconds(1));
  telemetry.start();
  experiment.run_until(sim::milliseconds(3));
  const std::string csv = telemetry.to_csv();
  std::stringstream ss(csv);
  std::string header;
  std::getline(ss, header);
  EXPECT_EQ(header,
            "t_ms,switch,max_queue_kb,total_queue_kb,tx_mbps,marked_share,"
            "kmin_min_bytes,kmin_max_bytes,kmax_min_bytes,kmax_max_bytes,"
            "pmax_min,pmax_max,ecn_uniform,pfc_pauses");
  std::size_t rows = 0;
  std::string line;
  while (std::getline(ss, line)) {
    if (line.empty()) continue;
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 13);
    ++rows;
  }
  EXPECT_EQ(rows, telemetry.samples().size());
}

TEST(Telemetry, WriteCsvCreatesFile) {
  Experiment experiment(tiny_scenario());
  TelemetryRecorder telemetry(experiment.scheduler(),
                              experiment.network().switches(),
                              sim::milliseconds(1));
  telemetry.start();
  experiment.run_until(sim::milliseconds(2));
  const auto path =
      std::filesystem::temp_directory_path() / "pet-telemetry-test.csv";
  ASSERT_TRUE(telemetry.write_csv(path.string()));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_FALSE(header.empty());
  std::filesystem::remove(path);
}

TEST(Telemetry, WriteCsvFailureReturnsFalse) {
  Experiment experiment(tiny_scenario());
  TelemetryRecorder telemetry(experiment.scheduler(),
                              experiment.network().switches(),
                              sim::milliseconds(1));
  telemetry.start();
  experiment.run_until(sim::milliseconds(1));
  // A path whose parent directory does not exist cannot be created; the
  // failure must be reported, not swallowed.
  EXPECT_FALSE(telemetry.write_csv("/nonexistent-dir/pet-telemetry.csv"));
}

TEST(EventLog, RecordsTimestampedEventsAndCounts) {
  sim::Scheduler sched;
  EventLog log(sched);
  sched.schedule_at(sim::milliseconds(2),
                    [&] { log.record("fault", "link-down 3-5"); });
  sched.schedule_at(sim::milliseconds(3),
                    [&] { log.record("agent-health", "switch 3 quarantined"); });
  sched.schedule_at(sim::milliseconds(4),
                    [&] { log.record("fault", "link-up 3-5"); });
  sched.run_all();
  ASSERT_EQ(log.events().size(), 3u);
  EXPECT_EQ(log.count("fault"), 2u);
  EXPECT_EQ(log.count("agent-health"), 1u);
  EXPECT_EQ(log.count("missing"), 0u);
  EXPECT_DOUBLE_EQ(log.events()[0].t_ms, 2.0);
  EXPECT_EQ(log.events()[1].detail, "switch 3 quarantined");
}

TEST(Telemetry, StopHaltsSampling) {
  Experiment experiment(tiny_scenario());
  TelemetryRecorder telemetry(experiment.scheduler(),
                              experiment.network().switches(),
                              sim::microseconds(200));
  telemetry.start();
  experiment.run_until(sim::milliseconds(1));
  telemetry.stop();
  const auto count = telemetry.samples().size();
  experiment.run_until(sim::milliseconds(2));
  EXPECT_EQ(telemetry.samples().size(), count);
}

}  // namespace
}  // namespace pet::exp
