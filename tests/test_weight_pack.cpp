// Every rl::Linear keeps a second, packed copy of its weights for the AVX2
// GEMM and rebuilds it at the end of each parameter write. A write path that
// forgot the repack would leave forward passes computing with stale weights
// on AVX2 only — a silent backend divergence. These tests take every write
// path (Adam steps through both agents, restore_params, set_weights, the
// DDQN target sync, re-quantization) and demand that the next forward, on
// both backends, is memcmp-equal to
//  - a freshly built network given the same parameters, and
//  - the naive per-sample chain over the public weight views (which reads
//    no pack at all).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "rl/ddqn.hpp"
#include "rl/inference.hpp"
#include "rl/kernels.hpp"
#include "rl/mlp.hpp"
#include "rl/ppo.hpp"
#include "sim/rng.hpp"

namespace pet::rl {
namespace {

constexpr kern::Backend kBackends[] = {kern::Backend::kScalar,
                                       kern::Backend::kAvx2};

/// Pin the kernel backend for a scope.
struct BackendGuard {
  explicit BackendGuard(kern::Backend b) { kern::set_backend(b); }
  ~BackendGuard() { kern::reset_backend(); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;
};

[[nodiscard]] bool same_bytes(std::span<const double> a,
                              std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Five rows: one full four-sample block and a one-sample tail.
constexpr std::int32_t kRows = 5;

[[nodiscard]] std::vector<double> probe_states(std::int32_t input) {
  std::vector<double> x(static_cast<std::size_t>(kRows * input));
  sim::Rng rng(404);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  return x;
}

/// All parameters of `net` in snapshot_params order, read through the
/// const weight views.
[[nodiscard]] std::vector<double> flat_params(const Mlp& net) {
  std::vector<double> out;
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    const Linear& layer = net.layer(l);
    out.insert(out.end(), layer.weights().begin(), layer.weights().end());
    out.insert(out.end(), layer.biases().begin(), layer.biases().end());
  }
  return out;
}

/// The per-sample forward over the weight views, one ascending
/// mul-then-add chain per output.
[[nodiscard]] std::vector<double> naive_forward(const Mlp& net,
                                                std::span<const double> x) {
  const auto in = static_cast<std::size_t>(net.input_size());
  std::vector<double> out;
  for (std::int32_t s = 0; s < kRows; ++s) {
    const auto row = x.subspan(static_cast<std::size_t>(s) * in, in);
    std::vector<double> cur(row.begin(), row.end());
    for (std::size_t l = 0; l < net.num_layers(); ++l) {
      const Linear& layer = net.layer(l);
      const auto n = static_cast<std::size_t>(layer.in_size());
      std::vector<double> y(static_cast<std::size_t>(layer.out_size()));
      for (std::size_t o = 0; o < y.size(); ++o) {
        double acc = layer.biases()[o];
        for (std::size_t i = 0; i < n; ++i) {
          acc += layer.weights()[o * n + i] * cur[i];
        }
        y[o] = acc;
      }
      if (l + 1 < net.num_layers()) {
        for (double& v : y) {
          v = net.activation() == Activation::kTanh ? std::tanh(v)
                                                    : (v > 0.0 ? v : 0.0);
        }
      }
      cur = std::move(y);
    }
    out.insert(out.end(), cur.begin(), cur.end());
  }
  return out;
}

/// The check every write path ends with: on both backends, `net`'s forward
/// equals a fresh twin (different initial weights, then restore_params of
/// the same snapshot) and the naive chain.
void expect_current(const Mlp& net, const char* what) {
  SCOPED_TRACE(what);
  sim::Rng other_init(99);
  Mlp fresh(net.sizes(), net.activation(), other_init);
  ParamRefs fresh_refs;
  fresh.collect(fresh_refs);
  restore_params(fresh_refs, flat_params(net));
  const std::vector<double> x = probe_states(net.input_size());
  const std::vector<double> want = naive_forward(net, x);
  for (const kern::Backend backend : kBackends) {
    BackendGuard guard(backend);
    const std::vector<double> got = net.forward_batch(x, kRows);
    EXPECT_TRUE(same_bytes(got, fresh.forward_batch(x, kRows)))
        << "backend " << static_cast<int>(backend);
    EXPECT_TRUE(same_bytes(got, want))
        << "backend " << static_cast<int>(backend);
  }
}

/// The parameters of a differently initialized network of the same shape
/// (one per `seed`): restoring them really changes every weight.
[[nodiscard]] std::vector<double> other_params(const Mlp& net,
                                               std::uint64_t seed) {
  sim::Rng rng(seed);
  const Mlp other(net.sizes(), net.activation(), rng);
  return flat_params(other);
}

// --- Linear / Mlp ------------------------------------------------------------

TEST(WeightPack, RestoreParamsRepacks) {
  sim::Rng rng(1);
  Mlp net({18, 64, 64, 10}, Activation::kRelu, rng);
  ParamRefs refs;
  net.collect(refs);
  (void)net.forward_batch(probe_states(18), kRows);  // use the first pack
  restore_params(refs, other_params(net, 7777));
  expect_current(net, "restore_params");
}

// --- DdqnAgent ---------------------------------------------------------------

DdqnConfig acc_config() {
  DdqnConfig cfg;
  cfg.input_size = 18;
  cfg.head_sizes = {10, 10, 20};
  cfg.batch_size = 8;
  cfg.target_sync_interval = 3;
  cfg.seed = 17;
  return cfg;
}

void fill_replay(DdqnAgent& agent, const DdqnConfig& cfg, std::int32_t n) {
  sim::Rng data(23);
  for (std::int32_t k = 0; k < n; ++k) {
    DqnTransition t;
    for (std::int32_t i = 0; i < cfg.input_size; ++i) {
      t.state.push_back(data.uniform(-1.0, 1.0));
      t.next_state.push_back(data.uniform(-1.0, 1.0));
    }
    for (const std::int32_t h : cfg.head_sizes) {
      t.actions.push_back(static_cast<std::int32_t>(
          data.uniform_int(static_cast<std::uint64_t>(h))));
    }
    t.reward = data.uniform(-1.0, 1.0);
    agent.observe(std::move(t));
  }
}

void expect_ddqn_current(const DdqnAgent& agent, const DdqnConfig& cfg,
                         const char* what) {
  for (std::size_t h = 0; h < cfg.head_sizes.size(); ++h) {
    expect_current(agent.online_head(h), what);
    expect_current(agent.target_head(h), what);
  }
}

TEST(WeightPack, DdqnTrainStepAndTargetSyncRepack) {
  const DdqnConfig cfg = acc_config();
  DdqnAgent agent(cfg, std::make_shared<ReplayBuffer>(256), 0);
  fill_replay(agent, cfg, 32);
  // Two Adam steps: the online nets move, the target nets do not.
  agent.train_step();
  agent.train_step();
  ASSERT_EQ(agent.train_steps(), 2);
  ASSERT_NE(flat_params(agent.online_head(0)),
            flat_params(agent.target_head(0)));
  expect_ddqn_current(agent, cfg, "DdqnAgent::train_step (Adam::step)");
  // The third step hits target_sync_interval: restore_params into the
  // target nets.
  agent.train_step();
  ASSERT_EQ(agent.train_steps(), cfg.target_sync_interval);
  for (std::size_t h = 0; h < cfg.head_sizes.size(); ++h) {
    ASSERT_EQ(flat_params(agent.online_head(h)),
              flat_params(agent.target_head(h)));
  }
  expect_ddqn_current(agent, cfg, "target sync");
}

TEST(WeightPack, DdqnSetWeightsRepacks) {
  const DdqnConfig cfg = acc_config();
  DdqnAgent agent(cfg, std::make_shared<ReplayBuffer>(64), 0);
  DdqnConfig other_cfg = cfg;
  other_cfg.seed = cfg.seed + 1;
  const DdqnAgent other(other_cfg, std::make_shared<ReplayBuffer>(64), 0);
  ASSERT_TRUE(agent.set_weights(other.weights()));
  ASSERT_EQ(agent.weights(), other.weights());
  expect_ddqn_current(agent, cfg, "DdqnAgent::set_weights");
}

// --- PpoAgent ----------------------------------------------------------------

PpoConfig pet_config(std::uint64_t seed) {
  PpoConfig cfg;
  cfg.input_size = 24;
  cfg.head_sizes = {10, 10, 20};
  cfg.minibatch_size = 8;
  cfg.update_epochs = 2;
  cfg.seed = seed;
  return cfg;
}

/// Actor heads through expect_current; the critic (no Mlp accessor) against
/// a fresh agent of another seed given the same weights.
void expect_ppo_current(const PpoAgent& agent, const char* what) {
  for (std::size_t h = 0; h < agent.num_heads(); ++h) {
    expect_current(agent.actor_head(h), what);
  }
  SCOPED_TRACE(what);
  PpoAgent fresh(pet_config(agent.config().seed + 1));
  ASSERT_TRUE(fresh.set_weights(agent.weights()));
  const std::vector<double> x = probe_states(agent.config().input_size);
  for (const kern::Backend backend : kBackends) {
    BackendGuard guard(backend);
    EXPECT_TRUE(same_bytes(agent.value_batch(x, kRows),
                           fresh.value_batch(x, kRows)))
        << "backend " << static_cast<int>(backend);
  }
}

RolloutBuffer rollout(PpoAgent& agent) {
  RolloutBuffer buf;
  sim::Rng rng(31);
  sim::Rng* row_rng = &rng;
  const double explore = 0.0;
  for (int i = 0; i < 16; ++i) {
    Transition t;
    for (std::int32_t k = 0; k < agent.config().input_size; ++k) {
      t.state.push_back(rng.uniform(-1.0, 1.0));
    }
    const auto res = agent.act_batch(t.state, 1, {&row_rng, 1}, {&explore, 1});
    t.actions = res.front().actions;
    t.log_prob = res.front().log_prob;
    t.value = res.front().value;
    t.reward = rng.uniform(-1.0, 1.0);
    buf.push(t);
  }
  return buf;
}

TEST(WeightPack, PpoUpdateRepacks) {
  PpoAgent agent(pet_config(41));
  const std::vector<double> before = agent.weights();
  const RolloutBuffer buf = rollout(agent);
  ASSERT_GT(agent.update(buf, 0.1).minibatches, 0);
  ASSERT_NE(agent.weights(), before);
  expect_ppo_current(agent, "PpoAgent::update (Adam::step)");
}

TEST(WeightPack, PpoSetWeightsRepacks) {
  PpoAgent agent(pet_config(43));
  const PpoAgent other(pet_config(44));
  ASSERT_TRUE(agent.set_weights(other.weights()));
  expect_ppo_current(agent, "PpoAgent::set_weights");
}

// --- InferenceModel ----------------------------------------------------------

TEST(WeightPack, QuantizeAfterWeightChangeRepacks) {
  sim::Rng rng(61);
  Mlp net({24, 64, 64, 20}, Activation::kTanh, rng);
  ParamRefs refs;
  net.collect(refs);
  const std::vector<double> x = probe_states(24);
  std::uint64_t seed = 7000;
  for (const InferPrecision precision :
       {InferPrecision::kFp64, InferPrecision::kFp32}) {
    SCOPED_TRACE(infer_precision_name(precision));
    InferenceModel model;
    ASSERT_TRUE(model.quantize(net, precision));
    std::vector<double> y(static_cast<std::size_t>(kRows) * 20);
    model.forward_batch(x, kRows, y);  // use the first snapshot's pack
    restore_params(refs, other_params(net, ++seed));
    ASSERT_TRUE(model.quantize(net, precision));  // reuses the storage
    sim::Rng other_init(62);
    Mlp twin(net.sizes(), net.activation(), other_init);
    ParamRefs twin_refs;
    twin.collect(twin_refs);
    restore_params(twin_refs, snapshot_params(refs));
    InferenceModel fresh;
    ASSERT_TRUE(fresh.quantize(twin, precision));
    for (const kern::Backend backend : kBackends) {
      BackendGuard guard(backend);
      std::vector<double> got(y.size());
      std::vector<double> want(y.size());
      model.forward_batch(x, kRows, got);
      fresh.forward_batch(x, kRows, want);
      EXPECT_TRUE(same_bytes(got, want))
          << "backend " << static_cast<int>(backend);
      if (precision == InferPrecision::kFp64) {
        EXPECT_TRUE(same_bytes(got, net.forward_batch(x, kRows)))
            << "backend " << static_cast<int>(backend);
      }
    }
  }
}

}  // namespace
}  // namespace pet::rl
