#include "workload/cdf.hpp"

#include <gtest/gtest.h>

#include "workload/distributions.hpp"

namespace pet::workload {
namespace {

EmpiricalCdf simple_cdf() {
  EmpiricalCdf cdf;
  cdf.add_point(100, 0.5);
  cdf.add_point(1000, 1.0);
  return cdf;
}

TEST(EmpiricalCdf, ValidityRequiresTerminalOne) {
  EmpiricalCdf cdf;
  EXPECT_FALSE(cdf.valid());
  cdf.add_point(10, 0.4);
  EXPECT_FALSE(cdf.valid());
  cdf.add_point(20, 1.0);
  EXPECT_TRUE(cdf.valid());
}

TEST(EmpiricalCdf, QuantileAtKnots) {
  const EmpiricalCdf cdf = simple_cdf();
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 100.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 1000.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 100.0);  // atom at the first point
}

TEST(EmpiricalCdf, QuantileInterpolatesLinearly) {
  const EmpiricalCdf cdf = simple_cdf();
  EXPECT_DOUBLE_EQ(cdf.quantile(0.75), 550.0);
}

TEST(EmpiricalCdf, QuantileMonotone) {
  const EmpiricalCdf cdf = web_search_cdf();
  double prev = 0.0;
  for (double p = 0.0; p <= 1.0; p += 0.01) {
    const double q = cdf.quantile(p);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

TEST(EmpiricalCdf, SampleWithinSupport) {
  const EmpiricalCdf cdf = simple_cdf();
  sim::Rng rng(3);
  for (int i = 0; i < 10'000; ++i) {
    const double s = cdf.sample(rng);
    EXPECT_GE(s, 100.0);
    EXPECT_LE(s, 1000.0);
  }
}

TEST(EmpiricalCdf, SampleMeanMatchesAnalyticMean) {
  const EmpiricalCdf cdf = simple_cdf();
  // Mean = 0.5*100 (atom) + 0.5*(100+1000)/2 = 50 + 275 = 325.
  EXPECT_DOUBLE_EQ(cdf.mean(), 325.0);
  sim::Rng rng(5);
  double sum = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += cdf.sample(rng);
  EXPECT_NEAR(sum / n, 325.0, 3.0);
}

TEST(EmpiricalCdf, TruncationCapsSupport) {
  const EmpiricalCdf cdf = web_search_cdf().truncated(1e6);
  EXPECT_TRUE(cdf.valid());
  sim::Rng rng(7);
  for (int i = 0; i < 10'000; ++i) EXPECT_LE(cdf.sample(rng), 1e6);
  EXPECT_LT(cdf.mean(), web_search_cdf().mean());
}

TEST(EmpiricalCdf, TruncationAboveSupportIsIdentityShape) {
  const EmpiricalCdf orig = web_search_cdf();
  const EmpiricalCdf t = orig.truncated(1e12);
  EXPECT_DOUBLE_EQ(t.quantile(0.5), orig.quantile(0.5));
}

struct WorkloadCase {
  WorkloadKind kind;
  double min_mean;
  double max_mean;
  double mice_fraction_min;  // P(size <= 100KB)
};

class WorkloadCdfTest : public ::testing::TestWithParam<WorkloadCase> {};

TEST_P(WorkloadCdfTest, ShapeMatchesPaperCharacterization) {
  const auto& param = GetParam();
  const EmpiricalCdf cdf = workload_cdf(param.kind);
  ASSERT_TRUE(cdf.valid());
  const double mean = cdf.mean();
  EXPECT_GT(mean, param.min_mean);
  EXPECT_LT(mean, param.max_mean);
  // Empirical mice fraction by sampling.
  sim::Rng rng(11);
  int mice = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) mice += (cdf.sample(rng) <= 100'000.0);
  EXPECT_GE(static_cast<double>(mice) / n, param.mice_fraction_min);
}

// gtest names each case by the raw bytes of its WorkloadCase, padding
// included. Static storage zero-fills that padding, so the case names stay
// the same from run to run (temporaries would leave stack garbage in it).
constexpr WorkloadCase kWorkloadCases[] = {
    // Web Search: mean ~1.6MB, >=55% mice.
    {WorkloadKind::kWebSearch, 5e5, 5e6, 0.55},
    // Data Mining: heavy tail, mean ~2MB, >=79% mice.
    {WorkloadKind::kDataMining, 5e5, 1e7, 0.79},
};

INSTANTIATE_TEST_SUITE_P(Workloads, WorkloadCdfTest,
                         ::testing::ValuesIn(kWorkloadCases));

TEST(Workloads, Names) {
  EXPECT_STREQ(workload_name(WorkloadKind::kWebSearch), "WebSearch");
  EXPECT_STREQ(workload_name(WorkloadKind::kDataMining), "DataMining");
}

TEST(Workloads, DataMiningHeavierTailThanWebSearch) {
  // The Data Mining distribution has more mass in small flows AND a larger
  // maximum flow -- the defining contrast the paper's Fig. 3 shows.
  const EmpiricalCdf ws = web_search_cdf();
  const EmpiricalCdf dm = data_mining_cdf();
  EXPECT_GT(ws.quantile(0.5), dm.quantile(0.5));
  EXPECT_LT(ws.quantile(1.0), dm.quantile(1.0));
}

}  // namespace
}  // namespace pet::workload
