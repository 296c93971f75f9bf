// Microbenchmarks: RL stack primitives (google-benchmark). These bound the
// per-tick compute a switch-resident agent would need.

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "micro_common.hpp"

#include "rl/ddqn.hpp"
#include "rl/gae.hpp"
#include "rl/mlp.hpp"
#include "rl/ppo.hpp"

namespace {

using namespace pet;

rl::PpoConfig pet_shape() {
  rl::PpoConfig cfg;
  cfg.input_size = 24;
  cfg.head_sizes = {10, 10, 20};
  cfg.seed = 1;
  return cfg;
}

void BM_MlpForward(benchmark::State& state) {
  sim::Rng rng(1);
  rl::Mlp mlp({24, 64, 64, 10}, rl::Activation::kTanh, rng);
  const std::vector<double> x(24, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlp.forward_batch(x, 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MlpForward);

/// ACC's minibatch forward: one Q-head {18, 64, 64, 10} (ReLU) over the
/// DdqnConfig default batch of 32, the shape that runs the blocked GEMM's
/// four-sample body. Items are samples.
void BM_MlpForwardBatch32(benchmark::State& state) {
  constexpr std::int32_t kBatch = 32;
  sim::Rng rng(9);
  rl::Mlp mlp({18, 64, 64, 10}, rl::Activation::kRelu, rng);
  std::vector<double> x(static_cast<std::size_t>(kBatch) * 18);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(0.37 * static_cast<double>(i + 1));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlp.forward_batch(x, kBatch));
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_MlpForwardBatch32);

void BM_MlpForwardBackward(benchmark::State& state) {
  sim::Rng rng(2);
  rl::Mlp mlp({24, 64, 64, 10}, rl::Activation::kTanh, rng);
  const std::vector<double> x(24, 0.3);
  const std::vector<double> dy(10, 0.1);
  for (auto _ : state) {
    rl::Mlp::BatchCache cache;
    std::vector<double> dx(x.size());
    benchmark::DoNotOptimize(mlp.forward_batch(x, 1, &cache));
    mlp.backward_batch(x, cache, dy, 1, dx);
    benchmark::DoNotOptimize(dx.data());
    mlp.zero_grad();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MlpForwardBackward);

void BM_PpoAct(benchmark::State& state) {
  rl::PpoAgent agent(pet_shape());
  sim::Rng rng(3);
  const std::vector<double> s(24, 0.4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.act(s, rng, 0.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PpoAct);

void BM_PpoUpdate(benchmark::State& state) {
  rl::PpoAgent agent(pet_shape());
  sim::Rng rng(4);
  rl::RolloutBuffer buf;
  const std::vector<double> s(24, 0.4);
  for (int i = 0; i < 32; ++i) {
    auto res = agent.act(s, rng, 0.0);
    buf.push(rl::Transition{s, res.actions, res.log_prob, res.value,
                            rng.uniform()});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.update(buf, 0.0));
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_PpoUpdate);

void BM_DdqnAct(benchmark::State& state) {
  auto replay = std::make_shared<rl::ReplayBuffer>(1000);
  rl::DdqnConfig cfg;
  cfg.input_size = 18;
  cfg.head_sizes = {10, 10, 20};
  cfg.seed = 5;
  rl::DdqnAgent agent(cfg, replay, 0);
  sim::Rng rng(6);
  const std::vector<double> s(18, 0.4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.act(s, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DdqnAct);

/// ACC's actual train step: the DdqnConfig default batch, sampled from a
/// replay of varied states and actions.
void BM_DdqnTrainStep(benchmark::State& state) {
  auto replay = std::make_shared<rl::ReplayBuffer>(1000);
  rl::DdqnConfig cfg;
  cfg.input_size = 18;
  cfg.head_sizes = {10, 10, 20};
  cfg.seed = 7;
  rl::DdqnAgent agent(cfg, replay, 0);
  sim::Rng rng(8);
  for (int i = 0; i < 256; ++i) {
    rl::DqnTransition t;
    for (std::int32_t k = 0; k < cfg.input_size; ++k) {
      t.state.push_back(rng.uniform(-1.0, 1.0));
      t.next_state.push_back(rng.uniform(-1.0, 1.0));
    }
    for (const std::int32_t n : cfg.head_sizes) {
      t.actions.push_back(static_cast<std::int32_t>(
          rng.uniform_int(static_cast<std::uint64_t>(n))));
    }
    t.reward = rng.uniform();
    agent.observe(std::move(t));
  }
  for (auto _ : state) {
    agent.train_step();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * cfg.batch_size);
}
BENCHMARK(BM_DdqnTrainStep);

void BM_Gae(benchmark::State& state) {
  std::vector<double> rewards(256, 0.5);
  std::vector<double> values(256, 0.4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rl::compute_gae(rewards, values, 0.3, 0.99, 0.95));
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_Gae);

}  // namespace

PET_MICRO_BENCH_MAIN("micro_rl")
