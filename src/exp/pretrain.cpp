#include "exp/pretrain.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/reward.hpp"
#include "sim/fs_atomic.hpp"
#include "sim/rng.hpp"
#include "workload/distributions.hpp"

namespace pet::exp {

std::vector<double> offline_pretrain(ScenarioConfig base,
                                     const PretrainOptions& opt) {
  if (!is_learning_scheme(base.scheme)) return {};
  base.pet_shared_policy = true;
  base.pretrain_lr_boost = opt.lr_boost;
  base.pet_explore_start = 0.1;
  base.seed = sim::derive_seed(base.seed, "offline-pretrain");
  Experiment sandbox(base);

  // Cycle the sandbox through the configured load regimes.
  sim::Time t = sim::Time::zero();
  std::size_t idx = 0;
  while (t < opt.duration) {
    const double load = opt.loads[idx % opt.loads.size()];
    sandbox.add_event(t, [&sandbox, load] { sandbox.background().set_load(load); });
    ++idx;
    t += opt.cycle;
  }
  if (!opt.verbose) {
    sandbox.run_until(opt.duration);
    return sandbox.learned_weights();
  }
  for (sim::Time at = opt.cycle; at <= opt.duration; at += opt.cycle) {
    sandbox.run_until(at);
    if (auto* pet = sandbox.pet()) {
      auto& agent = pet->agent(0);
      const std::vector<double> probe(
          static_cast<std::size_t>(agent.policy().config().input_size), 0.5);
      std::vector<std::int32_t> g(agent.policy().num_heads());
      agent.policy().act_greedy_batch(probe, 1, g);
      // pet-lint: allow(banned-api): pretrain progress is CLI UX on stdout
      std::printf(
          "  [pretrain] t=%.0fms reward(mean)=%.3f updates=%lld greedy "
          "n_min=%d n_max=%d p=%d expl=%.3f\n",
          at.ms(), pet->mean_reward(), static_cast<long long>(agent.updates()),
          g[0], g[1], g[2], agent.policy().exploration_rate());
      // pet-lint: allow(banned-api): pretrain progress is CLI UX on stdout
      std::printf("             entropy=%.3f kl=%.4f vloss=%.4f\n",
                  agent.last_update().entropy, agent.last_update().approx_kl,
                  agent.last_update().value_loss);
    } else if (auto* acc = sandbox.acc()) {
      // pet-lint: allow(banned-api): pretrain progress is CLI UX on stdout
      std::printf("  [pretrain] t=%.0fms reward(mean)=%.3f eps=%.3f\n",
                  at.ms(), acc->mean_reward(),
                  acc->agent(0).learner().epsilon());
    }
    std::fflush(stdout);
  }
  return sandbox.learned_weights();
}

std::string pretrain_cache_key(const ScenarioConfig& base,
                               const PretrainOptions& opt) {
  const core::RewardConfig reward = base.reward_config();
  // Non-leaf-spine fabrics get a kind discriminator; leaf-spine keys keep
  // the historical format so existing on-disk caches stay valid.
  const std::string topo_tag =
      base.topo.is_leaf_spine() ? "" : std::string("_") + base.topo.kind_name();
  char buf[256];
  std::snprintf(
      buf, sizeof buf,
      "%s_%s%s_h%d_r%" PRId64 "_seed%llu_d%" PRId64 "ms_b%g_rw%g-%g-%g",
      scheme_name(base.scheme), workload::workload_name(base.workload),
      topo_tag.c_str(), base.topo.num_hosts(),
      base.topo.host_link_rate().bps() / 1'000'000'000,
      static_cast<unsigned long long>(base.seed),
      static_cast<std::int64_t>(opt.duration.ms()), opt.lr_boost,
      reward.beta1, reward.beta2, reward.qref_bytes / 1024.0);
  return buf;
}

std::string WeightCache::path_for(const std::string& key) const {
  return dir_ + "/" + key + ".weights";
}

std::optional<std::vector<double>> WeightCache::load(
    const std::string& key, std::uint64_t expected_count) const {
  const std::string path = path_for(key);
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::uint64_t magic = 0;
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof magic);
  in.read(reinterpret_cast<char*>(&count), sizeof count);
  if (!in || magic != 0x5045545754ULL) {  // "PETWT"
    std::fprintf(stderr, "  [pretrain] WARN: %s is not a weight file\n",
                 path.c_str());
    return std::nullopt;
  }
  // Validate the declared count against the actual payload size before
  // allocating: a corrupted header must not trigger a giant allocation or a
  // silently short read.
  std::error_code ec;
  const std::uintmax_t file_size = std::filesystem::file_size(path, ec);
  const std::uint64_t header = 2 * sizeof(std::uint64_t);
  if (ec || file_size < header ||
      (file_size - header) / sizeof(double) != count ||
      (file_size - header) % sizeof(double) != 0) {
    std::fprintf(stderr,
                 "  [pretrain] WARN: %s truncated or corrupted "
                 "(declares %llu weights, payload %llu bytes)\n",
                 path.c_str(), static_cast<unsigned long long>(count),
                 static_cast<unsigned long long>(
                     file_size >= header ? file_size - header : 0));
    return std::nullopt;
  }
  if (expected_count != 0 && count != expected_count) {
    std::fprintf(stderr,
                 "  [pretrain] WARN: %s holds %llu weights but the model "
                 "expects %llu; ignoring cached model\n",
                 path.c_str(), static_cast<unsigned long long>(count),
                 static_cast<unsigned long long>(expected_count));
    return std::nullopt;
  }
  std::vector<double> weights(count);
  in.read(reinterpret_cast<char*>(weights.data()),
          static_cast<std::streamsize>(count * sizeof(double)));
  if (!in) {
    std::fprintf(stderr, "  [pretrain] WARN: short read from %s\n",
                 path.c_str());
    return std::nullopt;
  }
  for (const double w : weights) {
    if (!std::isfinite(w)) {
      std::fprintf(stderr,
                   "  [pretrain] WARN: %s contains non-finite weights; "
                   "ignoring cached model\n",
                   path.c_str());
      return std::nullopt;
    }
  }
  return weights;
}

void WeightCache::store(const std::string& key,
                        std::span<const double> weights) const {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  // Assemble in memory, then write atomically: a concurrent or crashed
  // writer must never leave a torn cache entry that a later run trusts.
  std::string blob;
  blob.reserve(16 + weights.size() * sizeof(double));
  const std::uint64_t magic = 0x5045545754ULL;
  const std::uint64_t count = weights.size();
  blob.append(reinterpret_cast<const char*>(&magic), sizeof magic);
  blob.append(reinterpret_cast<const char*>(&count), sizeof count);
  blob.append(reinterpret_cast<const char*>(weights.data()),
              count * sizeof(double));
  static_cast<void>(sim::atomic_write_file(path_for(key), blob));
}

std::vector<double> pretrained_weights_cached(const ScenarioConfig& base,
                                              const PretrainOptions& opt,
                                              const std::string& cache_dir,
                                              std::uint64_t expected_count) {
  if (!is_learning_scheme(base.scheme)) return {};
  const WeightCache cache(cache_dir);
  const std::string key = pretrain_cache_key(base, opt);
  if (auto cached = cache.load(key, expected_count)) {
    // pet-lint: allow(banned-api): pretrain progress is CLI UX on stdout
    std::printf("  [pretrain] cache hit: %s\n", key.c_str());
    return *cached;
  }
  // pet-lint: allow(banned-api): pretrain progress is CLI UX on stdout
  std::printf("  [pretrain] training %s (%.0f ms sandbox)...\n", key.c_str(),
              opt.duration.ms());
  std::fflush(stdout);
  std::vector<double> weights = offline_pretrain(base, opt);
  if (!weights.empty()) cache.store(key, weights);
  return weights;
}

std::unique_ptr<Experiment> build_pretrained(
    ExperimentBuilder builder, const PretrainOptions& opt,
    std::optional<sim::Time> online_warmup) {
  if (!is_learning_scheme(builder.config().scheme)) return builder.build();
  const std::vector<double> weights =
      pretrained_weights_cached(builder.config(), opt);
  builder.expects_pretrained(!weights.empty()).pretrain_lr_boost(1.0);
  if (online_warmup) builder.pretrain(*online_warmup);
  std::unique_ptr<Experiment> experiment = builder.build();
  if (!weights.empty() && !experiment->install_learned_weights(weights)) {
    std::fprintf(stderr,
                 "warning: pretrained weights rejected (stale cache?); "
                 "running untrained\n");
  }
  return experiment;
}

}  // namespace pet::exp
