// micro_parallel: throughput of the batched policy-inference hot path.
//
// One PPO policy evaluated for B agents per step, B single-row act_batch()
// calls vs one B-row act_batch() call. Both must produce bitwise-identical
// decisions; the win is locality (one weight sweep serves B observations).
//
//   ./micro_parallel [--quick] [--seed=N]
//
// --quick is the bench-smoke configuration (~seconds).

#include <chrono>
#include <cstdio>
#include <vector>

#include "common.hpp"
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

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::print_header(opt, "Micro - batched policy inference",
                      "implementation scalability (no paper figure)");
  exp::RunArtifact art = bench::make_artifact(opt, "micro_parallel");
  bench_batched_inference(opt, art);
  bench::write_artifact(opt, art);
  return 0;
}
