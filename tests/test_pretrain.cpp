#include "exp/pretrain.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <unistd.h>

namespace pet::exp {
namespace {

ScenarioConfig tiny_base(Scheme scheme) {
  ScenarioConfig cfg;
  cfg.scheme = scheme;
  cfg.topo.leaf_spine().num_spines = 1;
  cfg.topo.leaf_spine().num_leaves = 2;
  cfg.topo.leaf_spine().hosts_per_leaf = 4;
  cfg.load = 0.5;
  cfg.flow_size_cap_bytes = 2e6;
  cfg.tune_dcqcn_for_rate();
  cfg.seed = 9;
  return cfg;
}

PretrainOptions tiny_options() {
  PretrainOptions opt;
  opt.duration = sim::milliseconds(6);
  opt.cycle = sim::milliseconds(2);
  opt.loads = {0.3, 0.6};
  return opt;
}

TEST(OfflinePretrain, StaticSchemesYieldNoWeights) {
  EXPECT_TRUE(offline_pretrain(tiny_base(Scheme::kSecn1), tiny_options()).empty());
  EXPECT_TRUE(offline_pretrain(tiny_base(Scheme::kSecn2), tiny_options()).empty());
}

TEST(OfflinePretrain, PetProducesInstallableWeights) {
  const auto weights = offline_pretrain(tiny_base(Scheme::kPet), tiny_options());
  ASSERT_FALSE(weights.empty());
  // Installable into a fresh experiment of the same shape.
  ScenarioConfig cfg = tiny_base(Scheme::kPet);
  cfg.pretrain = sim::milliseconds(1);
  cfg.measure = sim::milliseconds(2);
  Experiment experiment(cfg);
  ASSERT_TRUE(experiment.install_learned_weights(weights));
  EXPECT_EQ(experiment.learned_weights(), weights);
  (void)experiment.run();
}

TEST(OfflinePretrain, AccProducesWeightsOfDdqnShape) {
  const auto weights = offline_pretrain(tiny_base(Scheme::kAcc), tiny_options());
  EXPECT_FALSE(weights.empty());
  ScenarioConfig cfg = tiny_base(Scheme::kAcc);
  cfg.pretrain = sim::milliseconds(1);
  cfg.measure = sim::milliseconds(1);
  Experiment experiment(cfg);
  ASSERT_TRUE(experiment.install_learned_weights(weights));
  EXPECT_EQ(experiment.learned_weights(), weights);
}

TEST(OfflinePretrain, DeterministicForSameInputs) {
  const auto a = offline_pretrain(tiny_base(Scheme::kPet), tiny_options());
  const auto b = offline_pretrain(tiny_base(Scheme::kPet), tiny_options());
  EXPECT_EQ(a, b);
}

TEST(PretrainCacheKey, DistinguishesSchemesWorkloadsAndRewards) {
  const ScenarioConfig pet = tiny_base(Scheme::kPet);
  ScenarioConfig acc = tiny_base(Scheme::kAcc);
  ScenarioConfig dm = tiny_base(Scheme::kPet);
  dm.workload = workload::WorkloadKind::kDataMining;
  const PretrainOptions opt = tiny_options();
  EXPECT_NE(pretrain_cache_key(pet, opt), pretrain_cache_key(acc, opt));
  EXPECT_NE(pretrain_cache_key(pet, opt), pretrain_cache_key(dm, opt));
  PretrainOptions longer = opt;
  longer.duration = sim::milliseconds(99);
  EXPECT_NE(pretrain_cache_key(pet, opt), pretrain_cache_key(pet, longer));
  EXPECT_EQ(pretrain_cache_key(pet, opt), pretrain_cache_key(pet, opt));
}

struct TempDir {
  TempDir() {
    path = std::filesystem::temp_directory_path() /
           ("pet-cache-test-" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::filesystem::path path;
};

TEST(WeightCache, RoundTrip) {
  TempDir dir;
  WeightCache cache(dir.path.string());
  const std::vector<double> weights{1.0, -2.5, 3.25, 1e-9};
  EXPECT_FALSE(cache.load("k").has_value());
  cache.store("k", weights);
  const auto loaded = cache.load("k");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, weights);
}

TEST(WeightCache, RejectsCorruptFiles) {
  TempDir dir;
  WeightCache cache(dir.path.string());
  std::filesystem::create_directories(dir.path);
  {
    std::FILE* f =
        std::fopen((dir.path / "bad.weights").string().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a weight file", f);
    std::fclose(f);
  }
  EXPECT_FALSE(cache.load("bad").has_value());
}

TEST(WeightCache, TruncatedPayloadRejected) {
  TempDir dir;
  WeightCache cache(dir.path.string());
  cache.store("t", std::vector<double>{1, 2, 3, 4});
  // Truncate the stored file mid-payload.
  const auto file = dir.path / "t.weights";
  std::filesystem::resize_file(file, 20);
  EXPECT_FALSE(cache.load("t").has_value());
}

TEST(WeightCache, NonFiniteWeightsRejected) {
  TempDir dir;
  WeightCache cache(dir.path.string());
  cache.store("nan", std::vector<double>{1.0, std::nan(""), 3.0});
  EXPECT_FALSE(cache.load("nan").has_value());
  cache.store("inf",
              std::vector<double>{std::numeric_limits<double>::infinity()});
  EXPECT_FALSE(cache.load("inf").has_value());
}

TEST(WeightCache, LyingHeaderCountRejected) {
  TempDir dir;
  WeightCache cache(dir.path.string());
  cache.store("lie", std::vector<double>{1, 2, 3, 4});
  // Corrupt the header's weight count without changing the payload; a
  // naive loader would trust it and allocate/read garbage.
  const auto file = dir.path / "lie.weights";
  std::FILE* f = std::fopen(file.string().c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  const std::uint64_t huge = 1ull << 40;
  std::fseek(f, 8, SEEK_SET);
  std::fwrite(&huge, sizeof huge, 1, f);
  std::fclose(f);
  EXPECT_FALSE(cache.load("lie").has_value());
}

TEST(WeightCache, DimensionMismatchRejected) {
  TempDir dir;
  WeightCache cache(dir.path.string());
  cache.store("dim", std::vector<double>{1, 2, 3, 4});
  // A stale cache trained with a different architecture has the wrong
  // weight count for the consuming model: treated as a miss, not installed.
  EXPECT_FALSE(cache.load("dim", 5).has_value());
  EXPECT_TRUE(cache.load("dim", 4).has_value());
  EXPECT_TRUE(cache.load("dim").has_value());  // 0 = no expectation
}

TEST(InstallLearnedWeights, WrongSizeVectorIsRejectedNotFatal) {
  ScenarioConfig cfg = tiny_base(Scheme::kPet);
  cfg.pretrain = sim::milliseconds(1);
  cfg.measure = sim::milliseconds(1);
  Experiment experiment(cfg);
  const std::vector<double> before = experiment.learned_weights();
  ASSERT_FALSE(before.empty());
  // Too short, too long, and empty vectors must all leave the randomly
  // initialized model untouched instead of aborting the process.
  std::vector<double> wrong(before.size() - 1, 0.25);
  EXPECT_FALSE(experiment.install_learned_weights(wrong));
  wrong.assign(before.size() + 7, 0.25);
  EXPECT_FALSE(experiment.install_learned_weights(wrong));
  EXPECT_FALSE(experiment.install_learned_weights(std::vector<double>{}));
  EXPECT_EQ(experiment.learned_weights(), before);
  // The right size still installs.
  std::vector<double> right(before.size(), 0.125);
  EXPECT_TRUE(experiment.install_learned_weights(right));
  EXPECT_EQ(experiment.learned_weights(), right);
}

TEST(InstallLearnedWeights, AccRejectsWrongSizeToo) {
  ScenarioConfig cfg = tiny_base(Scheme::kAcc);
  cfg.pretrain = sim::milliseconds(1);
  cfg.measure = sim::milliseconds(1);
  Experiment experiment(cfg);
  const std::vector<double> before = experiment.learned_weights();
  ASSERT_FALSE(before.empty());
  EXPECT_FALSE(experiment.install_learned_weights(
      std::vector<double>(before.size() + 1, 0.5)));
  EXPECT_EQ(experiment.learned_weights(), before);
}

TEST(PretrainedWeightsCached, CachesAcrossCalls) {
  TempDir dir;
  const ScenarioConfig base = tiny_base(Scheme::kPet);
  const PretrainOptions opt = tiny_options();
  const auto first = pretrained_weights_cached(base, opt, dir.path.string());
  ASSERT_FALSE(first.empty());
  const auto second = pretrained_weights_cached(base, opt, dir.path.string());
  EXPECT_EQ(first, second);
  // The cache file exists on disk.
  EXPECT_TRUE(std::filesystem::exists(
      dir.path / (pretrain_cache_key(base, opt) + ".weights")));
}

}  // namespace
}  // namespace pet::exp
