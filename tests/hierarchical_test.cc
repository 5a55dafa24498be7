#include "dp/hierarchical.h"

#include <gtest/gtest.h>

#include <cmath>

#include "support/histogram.h"
#include "common/rng.h"
#include "common/statistics.h"

namespace prc::dp {
namespace {

std::vector<double> dense_values(std::size_t n, double lo, double hi) {
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = lo + (hi - lo) * (static_cast<double>(i) + 0.5) /
                         static_cast<double>(n);
  }
  return values;
}

HierarchicalConfig exact_config(std::size_t levels) {
  HierarchicalConfig config;
  config.levels = levels;
  config.disable_noise = true;
  return config;
}

TEST(HierarchicalTest, ConstructionValidation) {
  Rng rng(1);
  const std::vector<double> values = {1.0};
  HierarchicalConfig bad_levels;
  bad_levels.levels = 0;
  EXPECT_THROW(HierarchicalMechanism(values, 0.0, 1.0, bad_levels, rng),
               std::invalid_argument);
  HierarchicalConfig bad_eps;
  bad_eps.epsilon = 0.0;
  EXPECT_THROW(HierarchicalMechanism(values, 0.0, 1.0, bad_eps, rng),
               std::invalid_argument);
  EXPECT_THROW(
      HierarchicalMechanism(values, 1.0, 1.0, HierarchicalConfig{}, rng),
      std::invalid_argument);
}

TEST(HierarchicalTest, ExactModeMatchesTruthOnAlignedRanges) {
  Rng rng(2);
  const auto values = dense_values(4096, 0.0, 100.0);
  const HierarchicalMechanism tree(values, 0.0, 100.0, exact_config(8), rng);
  // Leaf width = 100/256; query aligned to leaf boundaries is exact.
  const double w = 100.0 / 256.0;
  const query::RangeQuery aligned{16.0 * w, 64.0 * w - 1e-9};
  const double truth = 4096.0 * (64.0 - 16.0) / 256.0;
  EXPECT_NEAR(tree.query(aligned), truth, 1e-9);
}

TEST(HierarchicalTest, ExactModeFullDomain) {
  Rng rng(3);
  const auto values = dense_values(1000, 0.0, 10.0);
  const HierarchicalMechanism tree(values, 0.0, 10.0, exact_config(6), rng);
  EXPECT_NEAR(tree.query({0.0, 10.0}), 1000.0, 1e-9);
  EXPECT_NEAR(tree.query({-50.0, 50.0}), 1000.0, 1e-9);
  EXPECT_EQ(tree.query({20.0, 30.0}), 0.0);
}

TEST(HierarchicalTest, SnappingErrorBoundedByLeafMass) {
  Rng rng(4);
  const auto values = dense_values(4096, 0.0, 100.0);
  const HierarchicalMechanism tree(values, 0.0, 100.0, exact_config(8), rng);
  // Unaligned query: answer includes the full boundary leaves.
  const query::RangeQuery q{10.3, 57.9};
  double truth = 0.0;
  for (double v : values) {
    if (q.contains(v)) truth += 1.0;
  }
  const double per_leaf = 4096.0 / 256.0;
  EXPECT_NEAR(tree.query(q), truth, 2.0 * per_leaf);
}

TEST(HierarchicalTest, CanonicalDecompositionIsLogarithmic) {
  Rng rng(5);
  const auto values = dense_values(100, 0.0, 1.0);
  const HierarchicalMechanism tree(values, 0.0, 1.0, exact_config(10), rng);
  // Worst-case canonical cover of a dyadic tree is <= 2 * levels.
  EXPECT_LE(tree.canonical_nodes({0.0001, 0.9999}), 20u);
  EXPECT_EQ(tree.canonical_nodes({0.0, 1.0}), 1u);  // whole root
  EXPECT_GE(tree.canonical_nodes({0.1, 0.2}), 1u);
}

TEST(HierarchicalTest, NoiseScaleSplitsBudgetAcrossLevels) {
  Rng rng(6);
  const std::vector<double> values = {0.5};
  HierarchicalConfig config;
  config.levels = 9;
  config.epsilon = 2.0;
  const HierarchicalMechanism tree(values, 0.0, 1.0, config, rng);
  EXPECT_DOUBLE_EQ(tree.noise_scale(), 10.0 / 2.0);
}

TEST(HierarchicalTest, NoisyAnswersAreUnbiasedWithPredictedVariance) {
  const auto values = dense_values(2048, 0.0, 100.0);
  const query::RangeQuery q{12.5, 50.0 - 1e-9};  // leaf-aligned at levels=3
  HierarchicalConfig config;
  config.levels = 3;
  config.epsilon = 1.0;
  double truth = 0.0;
  for (double v : values) {
    if (q.contains(v)) truth += 1.0;
  }
  Rng rng(7);
  RunningStats stats;
  double predicted_variance = 0.0;
  for (int t = 0; t < 4000; ++t) {
    const HierarchicalMechanism tree(values, 0.0, 100.0, config, rng);
    stats.add(tree.query(q));
    predicted_variance = tree.noise_variance(q);
  }
  EXPECT_NEAR(stats.mean(), truth,
              5.0 * std::sqrt(predicted_variance / 4000.0));
  EXPECT_NEAR(stats.variance(), predicted_variance,
              predicted_variance * 0.15);
}

TEST(HierarchicalTest, SatisfiesDifferentialPrivacyEmpirically) {
  // Neighbors differ by one element; the whole-tree release is eps-DP, so
  // any query's output ratio is bounded by e^eps.
  const double epsilon = 1.0;
  HierarchicalConfig config;
  config.levels = 2;
  config.epsilon = epsilon;
  std::vector<double> d1(50, 0.3);
  std::vector<double> d2 = d1;
  d2.push_back(0.3);
  const query::RangeQuery q{0.0, 0.49};
  Rng rng(8);
  Histogram out1(30.0, 70.0, 20);
  Histogram out2(30.0, 70.0, 20);
  for (int t = 0; t < 200000; ++t) {
    out1.add(HierarchicalMechanism(d1, 0.0, 1.0, config, rng).query(q));
    out2.add(HierarchicalMechanism(d2, 0.0, 1.0, config, rng).query(q));
  }
  const double bound = std::exp(epsilon);
  for (std::size_t b = 0; b < out1.bins(); ++b) {
    if (out1.count(b) < 1000 || out2.count(b) < 1000) continue;
    const double ratio = out1.density(b) / out2.density(b);
    EXPECT_LE(ratio, bound * 1.15) << "bin " << b;
    EXPECT_GE(ratio, 1.0 / (bound * 1.15)) << "bin " << b;
  }
}

TEST(HierarchicalTest, DeeperTreesTradeResolutionForNoise) {
  // More levels: finer snapping but larger per-node noise.  Check both
  // directions of the trade-off.
  const auto values = dense_values(4096, 0.0, 100.0);
  Rng rng(9);
  HierarchicalConfig shallow;
  shallow.levels = 4;
  shallow.disable_noise = true;
  HierarchicalConfig deep;
  deep.levels = 12;
  deep.disable_noise = true;
  const HierarchicalMechanism a(values, 0.0, 100.0, shallow, rng);
  const HierarchicalMechanism b(values, 0.0, 100.0, deep, rng);
  const query::RangeQuery q{10.3, 57.9};
  double truth = 0.0;
  for (double v : values) {
    if (q.contains(v)) truth += 1.0;
  }
  // Deep tree snaps tighter.
  EXPECT_LT(std::abs(b.query(q) - truth), std::abs(a.query(q) - truth));
  // But pays more noise variance per query at equal epsilon.
  HierarchicalConfig shallow_noisy = shallow;
  shallow_noisy.disable_noise = false;
  HierarchicalConfig deep_noisy = deep;
  deep_noisy.disable_noise = false;
  const HierarchicalMechanism an(values, 0.0, 100.0, shallow_noisy, rng);
  const HierarchicalMechanism bn(values, 0.0, 100.0, deep_noisy, rng);
  EXPECT_LT(an.noise_variance(q), bn.noise_variance(q));
}

}  // namespace
}  // namespace prc::dp
