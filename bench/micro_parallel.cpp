// micro_parallel: throughput of the parallel-replica trainer and the
// batched policy-inference hot path.
//
// Panel 1 — batched inference: one PPO policy evaluated for B agents per
// step, B single-row act_batch() calls vs one B-row act_batch() call. Both
// must produce bitwise-identical decisions; the win is locality (one weight
// sweep serves B observations).
//
// Panel 2 — replica throughput: the same fig6-style training scenario run
// as N independent replicas on 1 worker thread vs N worker threads.
// Replicas share nothing, so the speedup ceiling is min(N, cores); the
// merged rollout digest must be identical for every thread count.
//
//   ./micro_parallel [--quick] [--seed=N]
//
// --quick is the bench-smoke configuration (~seconds).

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common.hpp"
#include "exp/replica_runner.hpp"
#include "rl/ppo.hpp"

namespace {

using namespace pet;

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void bench_batched_inference(const bench::BenchOptions& opt,
                             exp::RunArtifact& art) {
  // The paper's agent shape: stacked six-factor state, factored Kmax /
  // Kmin / Pmax heads.
  rl::PpoConfig cfg;
  cfg.input_size = 24;
  cfg.head_sizes = {10, 10, 20};
  cfg.seed = opt.seed;
  rl::PpoAgent policy(cfg);

  const std::int32_t batch = 12;  // one tick of a 12-switch fabric
  const int steps = opt.quick ? 2000 : 20000;
  const auto b = static_cast<std::size_t>(batch);
  const auto in = static_cast<std::size_t>(cfg.input_size);

  std::vector<double> states(b * in);
  sim::Rng data_rng(7);
  for (double& v : states) v = data_rng.uniform() * 2.0 - 1.0;

  // Sequential path: one single-row call per agent, per-agent RNG streams.
  std::vector<sim::Rng> seq_rngs;
  std::vector<sim::Rng> bat_rngs;
  for (std::int32_t i = 0; i < batch; ++i) {
    seq_rngs.emplace_back(1000 + static_cast<std::uint64_t>(i));
    bat_rngs.emplace_back(1000 + static_cast<std::uint64_t>(i));
  }

  const double no_explore = 0.0;
  std::uint64_t seq_sink = 0;
  const double t0 = now_sec();
  for (int s = 0; s < steps; ++s) {
    for (std::int32_t i = 0; i < batch; ++i) {
      const std::span<const double> row(
          states.data() + static_cast<std::size_t>(i) * in, in);
      sim::Rng* rng = &seq_rngs[static_cast<std::size_t>(i)];
      const std::vector<rl::PpoAgent::ActResult> act =
          policy.act_batch(row, 1, {&rng, 1}, {&no_explore, 1});
      seq_sink += static_cast<std::uint64_t>(act[0].actions[0]);
    }
  }
  const double seq_sec = now_sec() - t0;

  std::vector<sim::Rng*> rng_ptrs(b);
  for (std::size_t i = 0; i < b; ++i) rng_ptrs[i] = &bat_rngs[i];
  const std::vector<double> exploration(b, 0.0);
  std::uint64_t bat_sink = 0;
  const double t1 = now_sec();
  for (int s = 0; s < steps; ++s) {
    const std::vector<rl::PpoAgent::ActResult> acts =
        policy.act_batch(states, batch, rng_ptrs, exploration);
    for (const rl::PpoAgent::ActResult& act : acts) {
      bat_sink += static_cast<std::uint64_t>(act.actions[0]);
    }
  }
  const double bat_sec = now_sec() - t1;

  const double seq_us =
      seq_sec * 1e6 / static_cast<double>(steps) / static_cast<double>(batch);
  const double bat_us =
      bat_sec * 1e6 / static_cast<double>(steps) / static_cast<double>(batch);
  std::printf("\n--- batched policy inference (%d agents/step) ---\n", batch);
  std::printf("  %2d one-row act_batch(): %8.3f us/agent-step\n", batch,
              seq_us);
  std::printf("  one %2d-row act_batch(): %8.3f us/agent-step  (%.2fx)\n",
              batch, bat_us, seq_us / bat_us);
  std::printf("  decisions bitwise-identical: %s\n",
              seq_sink == bat_sink ? "yes" : "NO (BUG)");
  art.add_metric("inference.sequential_us_per_agent_step", seq_us);
  art.add_metric("inference.batched_us_per_agent_step", bat_us);
  art.add_metric("inference.speedup", seq_us / bat_us);
  art.add_metric("inference.bitwise_identical",
                 seq_sink == bat_sink ? 1.0 : 0.0);
}

void bench_replica_throughput(const bench::BenchOptions& opt,
                              exp::RunArtifact& art) {
  const std::int32_t replicas = 4;
  // A fig6-style training scenario: PET on Web Search, scaled fabric.
  exp::ScenarioConfig scenario;
  scenario.scheme = exp::Scheme::kPet;
  scenario.load = 0.5;
  scenario.topo.leaf_spine().num_spines = opt.quick ? 1 : 2;
  scenario.topo.leaf_spine().num_leaves = 2;
  scenario.topo.leaf_spine().hosts_per_leaf = opt.quick ? 2 : 4;
  scenario.flow_size_cap_bytes = 4e6;
  scenario.pretrain = sim::milliseconds(opt.quick ? 2 : 10);
  scenario.measure = sim::milliseconds(1);
  scenario.seed = opt.seed;
  scenario.tune_dcqcn_for_rate();

  std::printf("\n--- parallel replica training (%d replicas, %u cores) ---\n",
              replicas, std::thread::hardware_concurrency());
  double one_thread_rps = 0.0;
  std::uint64_t digest1 = 0;
  std::uint64_t digest4 = 0;
  for (const std::int32_t threads : {1, 4}) {
    exp::ReplicaRunner runner(scenario,
                              {.replicas = replicas, .threads = threads});
    const exp::ReplicaRunner::RunStats stats = runner.run();
    if (threads == 1) {
      one_thread_rps = stats.replicas_per_sec;
      digest1 = stats.rollout_digest;
    } else {
      digest4 = stats.rollout_digest;
    }
    double mean_reward = 0.0;
    std::size_t transitions = 0;
    for (const auto& e : stats.episodes) {
      mean_reward = e.mean_reward;
      transitions += e.transitions;
    }
    std::printf(
        "  %d thread%s: %6.2f replicas/sec  (%.2fx, %zu transitions, "
        "final mean reward %.3f)\n",
        threads, threads == 1 ? " " : "s",
        stats.replicas_per_sec,
        one_thread_rps > 0.0 ? stats.replicas_per_sec / one_thread_rps : 1.0,
        transitions, mean_reward);
  }
  std::printf("  merged rollout digest 1-thread vs 4-thread: %s\n",
              digest1 == digest4 ? "identical (bitwise)" : "MISMATCH (BUG)");
  art.add_metric("replicas.one_thread_per_sec", one_thread_rps);
  art.add_metric("replicas.digest_match", digest1 == digest4 ? 1.0 : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::print_header(opt,
                      "Micro - parallel replica training & batched inference",
                      "implementation scalability (no paper figure)");
  exp::RunArtifact art = bench::make_artifact(opt, "micro_parallel");
  art.set_threads(4);
  bench_batched_inference(opt, art);
  bench_replica_throughput(opt, art);
  std::printf(
      "\nReplicas are fully independent simulations; on a multi-core host "
      "the replica speedup approaches min(replicas, cores).\n");
  bench::write_artifact(opt, art);
  return 0;
}
