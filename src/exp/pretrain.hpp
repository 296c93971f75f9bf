#pragma once
// Offline pre-training (paper Section 4.4.1): train an initial model in a
// sandbox simulation driven by traffic matching the production
// distributions, then deploy its weights onto every switch for online
// incremental training (build_pretrained). A small file cache lets bench
// binaries reuse pre-trained models across invocations.

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "sim/time.hpp"

namespace pet::exp {

struct PretrainOptions {
  /// Sandbox simulated duration (longer = better initial model).
  sim::Time duration = sim::milliseconds(600);
  /// Loads cycled through the sandbox so the model sees varied regimes.
  std::vector<double> loads{0.3, 0.5, 0.7};
  /// Interval between load switches.
  sim::Time cycle = sim::milliseconds(20);
  /// Offline training runs hotter than the deployed learning rates.
  double lr_boost = 3.0;
};

/// Run the offline sandbox for `base`'s scheme/workload/topology and return
/// the trained weights (empty for static schemes). PET trains one shared
/// policy over all switches' pooled experience, mirroring the single
/// pre-trained initial model the paper installs on every switch.
[[nodiscard]] std::vector<double> offline_pretrain(ScenarioConfig base,
                                                   const PretrainOptions& opt);

/// Stable cache key for a (scenario, pretrain) combination.
[[nodiscard]] std::string pretrain_cache_key(const ScenarioConfig& base,
                                             const PretrainOptions& opt);

/// Binary weight files under a cache directory.
class WeightCache {
 public:
  explicit WeightCache(std::string dir) : dir_(std::move(dir)) {}

  /// Loads a cached weight vector. Returns nullopt (with a warning on
  /// stderr) for missing, truncated, corrupted or non-finite files, and —
  /// when expected_count is nonzero — for files whose weight count does
  /// not match the consuming model (stale cache from an older
  /// architecture). Callers treat nullopt as a cache miss and retrain.
  [[nodiscard]] std::optional<std::vector<double>> load(
      const std::string& key, std::uint64_t expected_count = 0) const;
  void store(const std::string& key, std::span<const double> weights) const;

 private:
  [[nodiscard]] std::string path_for(const std::string& key) const;
  std::string dir_;
};

/// Pre-train (or fetch from cache) the weights for a learning scheme.
/// Returns empty for static schemes.
[[nodiscard]] std::vector<double> pretrained_weights_cached(
    const ScenarioConfig& base, const PretrainOptions& opt,
    const std::string& cache_dir = "pretrain_cache",
    std::uint64_t expected_count = 0);

/// Hybrid-training deployment (paper Section 4.4): build `cfg`'s experiment
/// with the offline-pretrained model installed on every agent.
/// A learning scheme fetches its weights for the scenario as configured
/// (pretrained_weights_cached), then switches to the paper's online
/// learning rates and, if `online_warmup` is set, shortens its pretrain
/// phase to that warmup; the sandbox reads the scenario's own phases, so
/// the override must come after the fetch. Weights the model rejects
/// (stale cache) leave it untrained, with a warning on stderr. Static
/// schemes build as configured.
[[nodiscard]] std::unique_ptr<Experiment> build_pretrained(
    ScenarioConfig cfg, const PretrainOptions& opt,
    std::optional<sim::Time> online_warmup = std::nullopt);

}  // namespace pet::exp
