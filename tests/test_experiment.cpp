#include "exp/experiment.hpp"

#include <gtest/gtest.h>

#include "exp/experiment_builder.hpp"
#include "exp/json.hpp"
#include "exp/metrics.hpp"
#include "exp/run_artifact.hpp"

#include <stdexcept>
#include <string>
#include <string_view>

namespace pet::exp {
namespace {

ScenarioConfig tiny_scenario(Scheme scheme) {
  ScenarioConfig cfg;
  cfg.scheme = scheme;
  cfg.topo.leaf_spine().num_spines = 1;
  cfg.topo.leaf_spine().num_leaves = 2;
  cfg.topo.leaf_spine().hosts_per_leaf = 4;
  cfg.load = 0.4;
  cfg.flow_size_cap_bytes = 2e6;
  cfg.pretrain = sim::milliseconds(2);
  cfg.measure = sim::milliseconds(6);
  cfg.incast_fan_in = 4;
  cfg.tune_dcqcn_for_rate();
  cfg.seed = 5;
  return cfg;
}

TEST(Metrics, IdealFctComposition) {
  // 1 MB at 10G = 800us serialization + half the base RTT.
  const double us =
      ideal_fct_us(1'000'000, sim::gbps(10), sim::microseconds(10));
  EXPECT_NEAR(us, 805.0, 1e-9);
}

TEST(Metrics, FctBucketFiltersBySizeAndWindow) {
  std::vector<transport::FctRecord> records;
  const auto add = [&](std::int64_t size, double start_us, double fct_us) {
    transport::FlowSpec spec;
    spec.size_bytes = size;
    spec.start_time = sim::microseconds(static_cast<std::int64_t>(start_us));
    records.push_back(
        {spec, spec.start_time +
                   sim::microseconds(static_cast<std::int64_t>(fct_us))});
  };
  add(50'000, 10, 100);        // mice, in window
  add(50'000, 2000, 100);      // mice, out of window
  add(20'000'000, 20, 5000);   // elephant, in window
  const sim::Time from = sim::Time::zero();
  const sim::Time to = sim::milliseconds(1);
  const auto mice =
      fct_bucket_mice(records, from, to, sim::gbps(10), sim::microseconds(8));
  EXPECT_EQ(mice.count, 1u);
  EXPECT_NEAR(mice.avg_us, 100.0, 1e-9);
  const auto elephants = fct_bucket_elephants(records, from, to, sim::gbps(10),
                                              sim::microseconds(8));
  EXPECT_EQ(elephants.count, 1u);
  const auto overall =
      fct_bucket_overall(records, from, to, sim::gbps(10),
                         sim::microseconds(8));
  EXPECT_EQ(overall.count, 2u);
}

TEST(Metrics, FctBucketBoundariesAreInclusive) {
  // Regression for the off-by-one edges: a flow of exactly 100 KB is a
  // mouse ((0,100KB] per the paper) and a flow of exactly 1 MB is an
  // elephant ([1MB,inf)). The old call sites passed `kElephantMinBytes - 1`
  // as an inclusive lower bound, silently re-deciding the edges.
  std::vector<transport::FctRecord> records;
  const auto add = [&](std::int64_t size) {
    transport::FlowSpec spec;
    spec.size_bytes = size;
    spec.start_time = sim::microseconds(10);
    records.push_back({spec, spec.start_time + sim::microseconds(100)});
  };
  add(kMiceMaxBytes);          // exactly 100 KB
  add(kMiceMaxBytes + 1);      // just above: neither bucket
  add(kElephantMinBytes - 1);  // just below 1 MB: neither bucket
  add(kElephantMinBytes);      // exactly 1 MB
  const sim::Time from = sim::Time::zero();
  const sim::Time to = sim::milliseconds(1);
  const auto mice =
      fct_bucket_mice(records, from, to, sim::gbps(10), sim::microseconds(8));
  EXPECT_EQ(mice.count, 1u);
  const auto elephants = fct_bucket_elephants(records, from, to, sim::gbps(10),
                                              sim::microseconds(8));
  EXPECT_EQ(elephants.count, 1u);
  const auto overall =
      fct_bucket_overall(records, from, to, sim::gbps(10),
                         sim::microseconds(8));
  EXPECT_EQ(overall.count, 4u);

  // The raw [lo, hi) primitive: hi is exclusive, lo inclusive.
  const auto exact = fct_bucket(records, kMiceMaxBytes, kMiceMaxBytes + 1,
                                from, to, sim::gbps(10), sim::microseconds(8));
  EXPECT_EQ(exact.count, 1u);
}

TEST(Scheme, NamesAndConfigs) {
  EXPECT_STREQ(scheme_name(Scheme::kPet), "PET");
  EXPECT_STREQ(scheme_name(Scheme::kAcc), "ACC");
  EXPECT_STREQ(scheme_name(Scheme::kSecn1), "SECN1");
  EXPECT_STREQ(scheme_name(Scheme::kSecn2), "SECN2");
  EXPECT_STREQ(scheme_name(Scheme::kPetAblation), "PET-noIR");
  EXPECT_EQ(secn1_config().kmin_bytes, 5 * 1024);
  EXPECT_EQ(secn1_config().kmax_bytes, 200 * 1024);
  EXPECT_EQ(secn2_config().kmin_bytes, 100 * 1024);
  EXPECT_EQ(secn2_config().kmax_bytes, 400 * 1024);
  EXPECT_TRUE(is_learning_scheme(Scheme::kPet));
  EXPECT_TRUE(is_learning_scheme(Scheme::kAcc));
  EXPECT_FALSE(is_learning_scheme(Scheme::kSecn1));
}

TEST(Experiment, ValidatesAtConstruction) {
  // The constructor runs ScenarioConfig::validate() before it builds the
  // fabric, so no scenario runs unchecked.
  ScenarioConfig idle = tiny_scenario(Scheme::kPet);
  idle.load = 0.0;
  EXPECT_THROW((void)Experiment(idle), std::invalid_argument);
  ScenarioConfig overloaded = tiny_scenario(Scheme::kPet);
  overloaded.load = 1.5;
  EXPECT_THROW((void)Experiment(overloaded), std::invalid_argument);
  ScenarioConfig unmeasured = tiny_scenario(Scheme::kPet);
  unmeasured.measure = sim::Time::zero();
  EXPECT_THROW((void)Experiment(unmeasured), std::invalid_argument);
  ScenarioConfig leafless = tiny_scenario(Scheme::kPet);
  leafless.topo.leaf_spine().num_leaves = 0;
  EXPECT_THROW((void)Experiment(leafless), std::invalid_argument);
  ScenarioConfig odd_k = tiny_scenario(Scheme::kPet);
  net::FatTreeSpec ft;
  ft.k = 3;
  odd_k.topo = ft;
  EXPECT_THROW((void)Experiment(odd_k), std::invalid_argument);
}

TEST(Experiment, StaticSchemeKeepsConfiguredThresholds) {
  Experiment experiment(tiny_scenario(Scheme::kSecn2));
  experiment.run_until(sim::milliseconds(3));
  for (auto* sw : experiment.network().switches()) {
    EXPECT_EQ(sw->port(0).ecn_config(), secn2_config());
  }
  EXPECT_EQ(experiment.pet(), nullptr);
  EXPECT_EQ(experiment.acc(), nullptr);
}

TEST(Experiment, PetSchemeCreatesControllerPerSwitch) {
  Experiment experiment(tiny_scenario(Scheme::kPet));
  ASSERT_NE(experiment.pet(), nullptr);
  EXPECT_EQ(experiment.pet()->num_agents(), 3u);  // 2 leaves + 1 spine
}

TEST(Experiment, AblationSchemeShrinksState) {
  Experiment experiment(tiny_scenario(Scheme::kPetAblation));
  ASSERT_NE(experiment.pet(), nullptr);
  EXPECT_EQ(experiment.pet()->agent(0).policy().config().input_size, 18);
  Experiment full(tiny_scenario(Scheme::kPet));
  EXPECT_EQ(full.pet()->agent(0).policy().config().input_size, 24);
}

TEST(Experiment, RunProducesTraffic) {
  Experiment experiment(tiny_scenario(Scheme::kSecn1));
  const Metrics m = experiment.run();
  EXPECT_GT(m.flows_measured, 20);
  EXPECT_GT(m.mice.count, 0u);
  EXPECT_GT(m.overall.avg_us, 0.0);
  EXPECT_GT(m.latency_avg_us, 0.0);
  EXPECT_GE(m.latency_p99_us, m.latency_avg_us);
  EXPECT_GE(m.overall.p99_us, m.overall.avg_us);
}

TEST(Experiment, DeterministicForSameSeed) {
  const Metrics a = Experiment(tiny_scenario(Scheme::kSecn1)).run();
  const Metrics b = Experiment(tiny_scenario(Scheme::kSecn1)).run();
  EXPECT_EQ(a.flows_measured, b.flows_measured);
  EXPECT_DOUBLE_EQ(a.overall.avg_us, b.overall.avg_us);
  EXPECT_DOUBLE_EQ(a.queue_avg_kb, b.queue_avg_kb);
}

// Strip the observer-dependent parts of an artifact: the manifest (host
// facts), the profiler section itself, and every wall_ms field. What is
// left — scenario, metrics, telemetry tables — must not depend on whether
// a profiler was watching.
JsonValue strip_observer(const JsonValue& v, bool root) {
  switch (v.kind()) {
    case JsonValue::Kind::kObject: {
      JsonValue out = JsonValue::object();
      for (const auto& [key, member] : v.members()) {
        if (key == "wall_ms") continue;
        if (root && (key == "manifest" || key == "profiler")) continue;
        out.set(key, strip_observer(member, false));
      }
      return out;
    }
    case JsonValue::Kind::kArray: {
      JsonValue out = JsonValue::array();
      for (const JsonValue& item : v.items()) {
        out.push_back(strip_observer(item, false));
      }
      return out;
    }
    default:
      return v;
  }
}

TEST(Experiment, ProfilingDoesNotPerturbArtifact) {
  // Regression for profiler overhead in the event loop: sampling the wall
  // clock (or anything else the profiler does) must be invisible to the
  // simulation. The full run artifact of a profiled run, canonicalized by
  // dropping the profiler/manifest/wall_ms parts, is byte-identical to the
  // unprofiled run's.
  const auto canonical_artifact = [](bool profiling) {
    ScenarioConfig cfg = tiny_scenario(Scheme::kSecn1);
    cfg.profiling = profiling;
    Experiment experiment(cfg);
    const Metrics m = experiment.run();
    RunArtifact art("profiling_identity");
    art.set_scenario(cfg);
    art.add_metrics("", m);
    art.set_profiler(experiment.profiler());
    const auto doc = JsonValue::parse(art.to_json_text());
    EXPECT_TRUE(doc.has_value());
    return strip_observer(*doc, /*root=*/true).dump(2);
  };
  const std::string off = canonical_artifact(false);
  const std::string on = canonical_artifact(true);
  EXPECT_EQ(off, on);
  EXPECT_NE(off.find("\"metrics\""), std::string::npos);
}

TEST(Experiment, RunChunkedMatchesRunBitwise) {
  ScenarioConfig cfg = tiny_scenario(Scheme::kPet);
  cfg.seed = 11;
  const Metrics ma = Experiment(cfg).run();
  bool completed = false;
  const Metrics mb = Experiment(cfg).run_chunked(
      sim::microseconds(250), [] { return true; }, &completed);
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

TEST(Experiment, RunChunkedStopsEarlyWhenAsked) {
  ScenarioConfig cfg = tiny_scenario(Scheme::kPet);
  cfg.seed = 12;
  Experiment ex(cfg);
  bool completed = true;
  int polls = 0;
  static_cast<void>(ex.run_chunked(
      sim::microseconds(100), [&polls] { return ++polls <= 3; }, &completed));
  EXPECT_FALSE(completed);
  // Stopped at a chunk boundary well before the configured timeline.
  EXPECT_LT(ex.scheduler().now(), ex.config().pretrain + ex.config().measure);
}

TEST(Experiment, SeedChangesOutcome) {
  ScenarioConfig cfg = tiny_scenario(Scheme::kSecn1);
  const Metrics a = Experiment(cfg).run();
  cfg.seed = 999;
  const Metrics b = Experiment(cfg).run();
  EXPECT_NE(a.overall.avg_us, b.overall.avg_us);
}

TEST(Experiment, WorkloadSwitchTakesEffect) {
  ScenarioConfig cfg = tiny_scenario(Scheme::kSecn1);
  cfg.incast_enabled = false;
  Experiment experiment(cfg);
  experiment.run_until(sim::milliseconds(2));
  experiment.switch_workload(workload::WorkloadKind::kDataMining);
  experiment.run_until(sim::milliseconds(8));
  // Data Mining generates many tiny flows: median measured size shrinks.
  std::vector<double> pre, post;
  for (const auto& r : experiment.recorder().records()) {
    (r.spec.start_time < sim::milliseconds(2) ? pre : post)
        .push_back(static_cast<double>(r.spec.size_bytes));
  }
  ASSERT_GT(pre.size(), 5u);
  ASSERT_GT(post.size(), 5u);
  EXPECT_LT(sim::percentile(post, 50.0), sim::percentile(pre, 50.0));
}

TEST(Experiment, CollectWindowsAreDisjoint) {
  Experiment experiment(tiny_scenario(Scheme::kSecn1));
  experiment.run_until(sim::milliseconds(8));
  const Metrics first =
      experiment.collect(sim::Time::zero(), sim::milliseconds(4));
  const Metrics second =
      experiment.collect(sim::milliseconds(4), sim::milliseconds(8));
  const Metrics all = experiment.collect(sim::Time::zero(), sim::milliseconds(8));
  EXPECT_EQ(first.overall.count + second.overall.count, all.overall.count);
}

TEST(Experiment, PfcKeepsFabricLossless) {
  ScenarioConfig cfg = tiny_scenario(Scheme::kSecn2);
  cfg.load = 0.7;
  Experiment experiment(cfg);
  const Metrics m = experiment.run();
  EXPECT_EQ(m.switch_drops, 0);
}

TEST(Experiment, TuneDcqcnScalesWithRate) {
  ScenarioConfig a;
  a.topo.leaf_spine().host_link_rate = sim::gbps(10);
  a.tune_dcqcn_for_rate();
  ScenarioConfig b;
  b.topo.leaf_spine().host_link_rate = sim::gbps(40);
  b.tune_dcqcn_for_rate();
  EXPECT_GT(b.dcqcn.rate_ai_bps, a.dcqcn.rate_ai_bps);
  EXPECT_GT(b.dcqcn.byte_counter, a.dcqcn.byte_counter);
}

// ExperimentBuilder remains only for the frozen scenario benchmark. The
// struct and the function below are copied verbatim from
// scenario_bench/scenario_bench.cpp; the builder must assemble exactly the
// ScenarioConfig written out by hand.
struct Workload {
  std::string_view name;
  exp::Scheme scheme;
  workload::WorkloadKind traffic;
  sim::Time pretrain;
  sim::Time measure;
  /// Weight file stem under --weights-dir; empty for static schemes.
  std::string_view weights;
};

exp::ExperimentBuilder scenario(const Workload& w, std::uint64_t seed,
                                bool traced) {
  net::LeafSpineConfig fabric;
  fabric.num_spines = 2;
  fabric.num_leaves = 4;
  fabric.hosts_per_leaf = 8;
  // A leaf has 10 ingress ports with a 256 KiB PFC XOFF each, more than the
  // default 2 MiB shared buffer, so it can overflow before PFC pauses
  // anyone. 4 MiB makes the fabric lossless by construction. The buffer
  // size only decides drops, so runs that never fill 2 MiB are unchanged.
  fabric.switch_cfg.buffer_bytes = 4 * 1024 * 1024;
  exp::ExperimentBuilder b;
  b.scheme(w.scheme)
      .workload(w.traffic)
      .load(0.6)
      .topology(net::TopologySpec(fabric))
      .flow_size_cap(8e6)
      .phases(w.pretrain, w.measure)
      .incast(8, 32 * 1024, sim::milliseconds(1))
      .seed(seed)
      .profiling(traced)
      .tuned_dcqcn();
  if (!w.weights.empty()) b.expects_pretrained(true).pretrain_lr_boost(1.0);
  return b;
}

TEST(ExperimentBuilder, ScenarioBenchChainMatchesScenarioConfig) {
  for (const Workload& w :
       {Workload{"static", Scheme::kSecn1, workload::WorkloadKind::kWebSearch,
                 sim::milliseconds(10), sim::milliseconds(70), ""},
        Workload{"pretrained", Scheme::kAcc,
                 workload::WorkloadKind::kDataMining, sim::milliseconds(10),
                 sim::milliseconds(35), "weights"}}) {
    SCOPED_TRACE(std::string(w.name));
    const ExperimentBuilder builder = scenario(w, 7, true);

    ScenarioConfig hand;
    hand.scheme = w.scheme;
    hand.workload = w.traffic;
    hand.load = 0.6;
    hand.topo.leaf_spine().switch_cfg.buffer_bytes = 4 * 1024 * 1024;
    hand.flow_size_cap_bytes = 8e6;
    hand.pretrain = w.pretrain;
    hand.measure = w.measure;
    hand.seed = 7;
    hand.profiling = true;
    hand.tune_dcqcn_for_rate();
    if (!w.weights.empty()) {
      hand.expects_pretrained = true;
      hand.pretrain_lr_boost = 1.0;
    }

    const ScenarioConfig built = builder.config();
    EXPECT_EQ(scenario_json(built).dump(), scenario_json(hand).dump());
    EXPECT_EQ(built.expects_pretrained, hand.expects_pretrained);
    EXPECT_EQ(built.pretrain_lr_boost, hand.pretrain_lr_boost);
    EXPECT_EQ(built.profiling, hand.profiling);
    // The chain's remaining fields, which scenario_json does not record.
    EXPECT_EQ(built.topo.switch_config().buffer_bytes,
              hand.topo.switch_config().buffer_bytes);
    EXPECT_EQ(built.incast_fan_in, hand.incast_fan_in);
    EXPECT_EQ(built.incast_request_bytes, hand.incast_request_bytes);
    EXPECT_EQ(built.incast_period, hand.incast_period);
    EXPECT_EQ(built.dcqcn, hand.dcqcn);
    EXPECT_NE(built.dcqcn, ScenarioConfig{}.dcqcn);  // tuning applied
    EXPECT_EQ(builder.build()->config().seed, 7u);
  }
}

}  // namespace
}  // namespace pet::exp
