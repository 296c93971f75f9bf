// E2E serving parity: a PET scenario run through the batched policy server
// must match the grouped kDirect greedy decisions exactly at fp64, match
// fp64 serving at fp32 on the golden scenario, and stay within a bounded
// action divergence at int8 — with zero guardrail trips at every precision.
//
// The scenario mirrors the committed pet_tiny golden (datamining, load 0.5,
// 1 spine / 2 leaves / 2 hosts-per-leaf, 2ms pretrain + 2ms measure,
// seed 11) so the parity claims here and the golden_diff checks in
// tests/golden/ cover the same trajectory.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "exp/experiment_builder.hpp"
#include "exp/telemetry.hpp"
#include "rl/inference.hpp"
#include "rl/ppo.hpp"

namespace pet::exp {
namespace {

ExperimentBuilder golden_scenario() {
  net::LeafSpineConfig topo;
  topo.num_spines = 1;
  topo.num_leaves = 2;
  topo.hosts_per_leaf = 2;
  return ExperimentBuilder{}
      .topology(topo)
      .workload(workload::WorkloadKind::kDataMining)
      .load(0.5)
      .scheme(Scheme::kPet)
      .phases(sim::milliseconds(2), sim::milliseconds(2))
      .seed(11);
}

struct ServeRun {
  std::string telemetry_csv;
  std::vector<TelemetrySample> samples;
  Metrics metrics{};
  std::size_t num_agents = 0;
  std::size_t healthy = 0;
  std::int64_t rollbacks = 0;
  std::size_t quarantine_events = 0;
  bool server_ready = false;
  std::uint64_t server_version = 0;
  rl::InferPrecision server_precision = rl::InferPrecision::kFp64;
};

/// Run the golden scenario with the given serving mode and record per-switch
/// telemetry (ECN thresholds included) every 100us.
ServeRun run_serving(rl::InferMode mode, bool force_shared = false) {
  ExperimentBuilder builder = golden_scenario();
  if (force_shared) builder.shared_policy(true);
  builder.infer(mode);
  const std::unique_ptr<Experiment> ex = builder.build();
  TelemetryRecorder telemetry(ex->scheduler(), ex->network().switches());
  telemetry.start();

  ServeRun r;
  r.metrics = ex->run();
  telemetry.stop();
  r.telemetry_csv = telemetry.to_csv();
  r.samples = telemetry.samples();

  core::PetController* pet = ex->pet();
  r.num_agents = pet->num_agents();
  r.healthy = pet->num_in_state(core::AgentHealth::kHealthy);
  r.rollbacks = pet->total_rollbacks();
  r.quarantine_events = ex->event_log().count("agent-health");
  r.server_ready = pet->policy_server().ready();
  r.server_version = pet->policy_server().installed_version();
  r.server_precision = pet->policy_server().precision();
  return r;
}

void expect_metrics_identical(const Metrics& a, const Metrics& b) {
  EXPECT_EQ(a.flows_measured, b.flows_measured);
  EXPECT_EQ(a.flows_incomplete, b.flows_incomplete);
  EXPECT_EQ(a.switch_drops, b.switch_drops);
  EXPECT_EQ(a.pfc_pauses, b.pfc_pauses);
  EXPECT_EQ(a.latency_avg_us, b.latency_avg_us);
  EXPECT_EQ(a.latency_p99_us, b.latency_p99_us);
  EXPECT_EQ(a.queue_avg_kb, b.queue_avg_kb);
  EXPECT_EQ(a.queue_std_kb, b.queue_std_kb);
  EXPECT_EQ(a.overall.count, b.overall.count);
  EXPECT_EQ(a.overall.avg_slowdown, b.overall.avg_slowdown);
  EXPECT_EQ(a.mice.p99_slowdown, b.mice.p99_slowdown);
  EXPECT_EQ(a.elephants.avg_slowdown, b.elephants.avg_slowdown);
}

/// Share of telemetry samples whose installed ECN config differs between
/// the two runs (the observable footprint of a diverged served action).
double ecn_divergence_rate(const std::vector<TelemetrySample>& a,
                           const std::vector<TelemetrySample>& b) {
  EXPECT_EQ(a.size(), b.size());
  if (a.empty() || a.size() != b.size()) return 1.0;
  std::size_t diverged = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const net::EcnConfigSummary& ea = a[i].ecn;
    const net::EcnConfigSummary& eb = b[i].ecn;
    if (ea.kmin_min_bytes != eb.kmin_min_bytes ||
        ea.kmax_min_bytes != eb.kmax_min_bytes ||
        ea.pmax_min != eb.pmax_min) {
      ++diverged;
    }
  }
  return static_cast<double>(diverged) / static_cast<double>(a.size());
}

// ---------------------------------------------------------------------------
// fp64 serving is bitwise identical to the shared policy's kDirect greedy
// (act_greedy_batch over the same group): same kernels, same std::tanh,
// greedy argmax over the same fp64 logits.
TEST(InferServing, Fp64ServingBitwiseMatchesDirect) {
  const ServeRun direct =
      run_serving(rl::InferMode::kDirect, /*force_shared=*/true);
  const ServeRun served = run_serving(rl::InferMode::kFp64);

  // Engagement proof: the served run actually went through the policy
  // server (a silent fallback to kDirect decisions would also "match").
  EXPECT_FALSE(direct.server_ready);
  ASSERT_TRUE(served.server_ready);
  EXPECT_GE(served.server_version, 1u);
  EXPECT_EQ(served.server_precision, rl::InferPrecision::kFp64);

  EXPECT_EQ(direct.telemetry_csv, served.telemetry_csv);
  expect_metrics_identical(direct.metrics, served.metrics);
}

// fp32 serving on the golden scenario: every greedy argmax agrees with
// fp64 (the logit gaps dwarf the narrowing error), so the runs are
// byte-identical end to end — the serving-parity acceptance bar.
TEST(InferServing, Fp32ServingMatchesFp64OnGoldenScenario) {
  const ServeRun fp64 = run_serving(rl::InferMode::kFp64);
  const ServeRun fp32 = run_serving(rl::InferMode::kFp32);

  ASSERT_TRUE(fp32.server_ready);
  EXPECT_EQ(fp32.server_precision, rl::InferPrecision::kFp32);

  EXPECT_EQ(fp64.telemetry_csv, fp32.telemetry_csv);
  expect_metrics_identical(fp64.metrics, fp32.metrics);
}

// int8 serving: bounded action divergence, and the guardrails never trip —
// quantization noise must look like policy noise, not like a fault.
TEST(InferServing, Int8ServingBoundedDivergenceZeroGuardrailTrips) {
  const ServeRun fp64 = run_serving(rl::InferMode::kFp64);
  const ServeRun int8 = run_serving(rl::InferMode::kInt8);

  ASSERT_TRUE(int8.server_ready);
  EXPECT_EQ(int8.server_precision, rl::InferPrecision::kInt8);

  // Every agent healthy, no rollbacks, no health transitions recorded.
  EXPECT_EQ(int8.healthy, int8.num_agents);
  EXPECT_EQ(int8.rollbacks, 0);
  EXPECT_EQ(int8.quarantine_events, 0u);

  // Documented bound (DESIGN.md "Fast Inference Path"): on the golden
  // scenario at most a quarter of the telemetry snapshots may show a
  // different installed ECN config than fp64 serving. Empirically the two
  // runs coincide exactly; the slack keeps the test robust to retuning.
  EXPECT_LE(ecn_divergence_rate(fp64.samples, int8.samples), 0.25);
}

// ---------------------------------------------------------------------------
// PolicyServer unit behaviour: version tracking, refresh fast path, and
// poisoned-policy rejection keeping the last good snapshot.

rl::PpoAgent make_agent(std::uint64_t seed) {
  rl::PpoConfig cfg;
  cfg.input_size = 6;
  cfg.head_sizes = {4, 5};
  cfg.hidden = {8};
  cfg.seed = seed;
  return rl::PpoAgent(cfg);
}

TEST(PolicyServer, InstallTracksWeightsVersionAndRefreshIsIdempotent) {
  rl::PpoAgent agent = make_agent(3);
  rl::PolicyServer server;
  EXPECT_FALSE(server.ready());

  ASSERT_TRUE(server.install(agent, rl::InferPrecision::kInt8));
  EXPECT_TRUE(server.ready());
  EXPECT_EQ(server.precision(), rl::InferPrecision::kInt8);
  EXPECT_EQ(server.num_heads(), agent.num_heads());
  EXPECT_EQ(server.installed_version(), agent.weights_version());

  // Unchanged weights: refresh is a no-op that stays at the same version.
  const std::uint64_t v = server.installed_version();
  ASSERT_TRUE(server.refresh(agent));
  EXPECT_EQ(server.installed_version(), v);

  // A weight change bumps the agent's version; refresh follows it.
  ASSERT_TRUE(agent.set_weights(agent.weights()));
  EXPECT_GT(agent.weights_version(), v);
  ASSERT_TRUE(server.refresh(agent));
  EXPECT_EQ(server.installed_version(), agent.weights_version());
}

TEST(PolicyServer, ServeGreedyMatchesActGreedy) {
  rl::PpoAgent agent = make_agent(7);
  rl::PolicyServer server;
  ASSERT_TRUE(server.install(agent, rl::InferPrecision::kFp64));

  constexpr std::int32_t kBatch = 5;
  std::vector<double> states(static_cast<std::size_t>(kBatch) * 6);
  for (std::size_t i = 0; i < states.size(); ++i) {
    states[i] = std::sin(0.37 * static_cast<double>(i + 1));
  }
  std::vector<std::int32_t> actions(static_cast<std::size_t>(kBatch) *
                                    server.num_heads());
  server.reserve(kBatch);
  server.serve_greedy(states, kBatch, actions);

  // The batch serves what act_greedy_batch decides for it, and what five
  // single-row calls decide for its rows.
  std::vector<std::int32_t> direct(actions.size());
  agent.act_greedy_batch(states, kBatch, direct);
  EXPECT_EQ(actions, direct);
  for (std::int32_t b = 0; b < kBatch; ++b) {
    std::vector<std::int32_t> expect(server.num_heads());
    agent.act_greedy_batch(std::span<const double>(states).subspan(
                               static_cast<std::size_t>(b) * 6, 6),
                           1, expect);
    for (std::size_t h = 0; h < server.num_heads(); ++h) {
      EXPECT_EQ(actions[static_cast<std::size_t>(b) * server.num_heads() + h],
                expect[h])
          << "row " << b << " head " << h;
    }
  }
}

TEST(PolicyServer, PoisonedPolicyRejectedKeepingLastGoodSnapshot) {
  rl::PpoAgent agent = make_agent(9);
  rl::PolicyServer server;
  ASSERT_TRUE(server.install(agent, rl::InferPrecision::kFp32));
  const std::uint64_t good_version = server.installed_version();

  std::vector<double> states(6, 0.25);
  std::vector<std::int32_t> good(server.num_heads());
  server.serve_greedy(states, 1, good);

  // Poison the agent: refresh must fail, the server must keep serving the
  // last good snapshot at the old version.
  std::vector<double> w = agent.weights();
  w[w.size() / 2] = std::nan("");
  ASSERT_TRUE(agent.set_weights(w));
  EXPECT_FALSE(server.refresh(agent));
  EXPECT_TRUE(server.ready());
  EXPECT_EQ(server.installed_version(), good_version);

  std::vector<std::int32_t> again(server.num_heads());
  server.serve_greedy(states, 1, again);
  EXPECT_EQ(again, good);

  // A fresh server rejects the poisoned policy outright.
  rl::PolicyServer fresh;
  EXPECT_FALSE(fresh.install(agent, rl::InferPrecision::kFp32));
  EXPECT_FALSE(fresh.ready());
}

}  // namespace
}  // namespace pet::exp
