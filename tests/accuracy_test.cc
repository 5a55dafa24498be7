#include "estimator/accuracy.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/rng.h"
#include "data/partition.h"
#include "estimator/rank_counting.h"
#include "sampling/local_sampler.h"

namespace prc::estimator {
namespace {

TEST(AccuracyTest, RequiredProbabilityFormula) {
  const query::AccuracySpec spec{0.1, 0.75};
  const std::size_t k = 8, n = 10000;
  const double expected = (std::sqrt(2.0 * 8.0) / (0.1 * 10000.0)) * 2.0 /
                          std::sqrt(1.0 - 0.75);
  EXPECT_NEAR(required_sampling_probability(spec, k, n), expected, 1e-12);
}

TEST(AccuracyTest, RequiredProbabilityMonotonicity) {
  const std::size_t k = 10, n = 100000;
  // Stricter alpha -> more samples.
  EXPECT_GT(required_sampling_probability({0.01, 0.5}, k, n),
            required_sampling_probability({0.05, 0.5}, k, n));
  // Stricter delta -> more samples.
  EXPECT_GT(required_sampling_probability({0.05, 0.9}, k, n),
            required_sampling_probability({0.05, 0.5}, k, n));
  // More nodes -> more samples (variance grows with k).
  EXPECT_GT(required_sampling_probability({0.05, 0.5}, 40, n),
            required_sampling_probability({0.05, 0.5}, 10, n));
  // Bigger data -> smaller probability suffices.
  EXPECT_LT(required_sampling_probability({0.05, 0.5}, k, 10 * n),
            required_sampling_probability({0.05, 0.5}, k, n));
}

TEST(AccuracyTest, RequiredProbabilityRejectsBadInput) {
  EXPECT_THROW(required_sampling_probability({0.1, 0.5}, 0, 100),
               std::invalid_argument);
  EXPECT_THROW(required_sampling_probability({0.1, 0.5}, 5, 0),
               std::invalid_argument);
  EXPECT_THROW(required_sampling_probability({0.0, 0.5}, 5, 100),
               std::invalid_argument);
}

TEST(AccuracyTest, AchievedDeltaInvertsRequiredProbability) {
  const query::AccuracySpec spec{0.08, 0.6};
  const std::size_t k = 12, n = 50000;
  const double p = required_sampling_probability(spec, k, n);
  // Sampling at exactly the required probability achieves exactly delta at
  // error level alpha.
  EXPECT_NEAR(achieved_delta(p, spec.alpha, k, n), spec.delta, 1e-9);
}

TEST(AccuracyTest, MinFeasibleAlphaInvertsAchievedDelta) {
  const double p = 0.23;
  const std::size_t k = 7, n = 20000;
  const double delta = 0.8;
  const double alpha = min_feasible_alpha(p, delta, k, n);
  EXPECT_NEAR(achieved_delta(p, alpha, k, n), delta, 1e-9);
  // Larger alpha -> higher confidence.
  EXPECT_GT(achieved_delta(p, alpha * 2.0, k, n), delta);
  // Smaller alpha -> infeasible (below delta).
  EXPECT_LT(achieved_delta(p, alpha * 0.5, k, n), delta);
}

TEST(AccuracyTest, AchievedDeltaCanBeNegative) {
  // Chebyshev bound vacuous: tiny alpha at low p.
  EXPECT_LT(achieved_delta(0.01, 0.001, 10, 1000), 0.0);
}

TEST(AccuracyTest, ArgumentValidation) {
  EXPECT_THROW(achieved_delta(0.0, 0.1, 5, 100), std::invalid_argument);
  EXPECT_THROW(achieved_delta(0.5, 0.0, 5, 100), std::invalid_argument);
  EXPECT_THROW(achieved_delta(0.5, 0.1, 5, 0), std::invalid_argument);
  EXPECT_THROW(min_feasible_alpha(0.5, 1.0, 5, 100), std::invalid_argument);
  EXPECT_THROW(min_feasible_alpha(1.5, 0.5, 5, 100), std::invalid_argument);
}

TEST(AccuracyTest, BasicCountingRequiredProbability) {
  // p >= 1/(1 + alpha^2 n (1-delta)); check the closed form and that the
  // resulting worst-case variance meets the Chebyshev budget with equality.
  const query::AccuracySpec spec{0.05, 0.8};
  const std::size_t n = 17568;
  const double p = basic_counting_required_probability(spec, n);
  EXPECT_NEAR(p, 1.0 / (1.0 + 0.0025 * 17568.0 * 0.2), 1e-12);
  const double worst_variance = static_cast<double>(n) * (1.0 - p) / p;
  const double budget = (spec.alpha * n) * (spec.alpha * n) *
                        (1.0 - spec.delta);
  EXPECT_NEAR(worst_variance, budget, budget * 1e-9);
  EXPECT_THROW(basic_counting_required_probability(spec, 0),
               std::invalid_argument);
}

TEST(AccuracyTest, SampleVolumeScalesLinearlyVsQuadraticallyInAccuracy) {
  // The true §III-A separation is in the accuracy exponent: for large n
  // both estimators need an n-independent sample VOLUME, but RankCounting's
  // grows as 1/alpha while BasicCounting's grows as 1/alpha^2.  Halving
  // alpha therefore doubles one bill and quadruples the other.
  const std::size_t n = 10000000;  // deep in the asymptotic regime
  const std::size_t k = 8;
  const double delta = 0.8;
  const auto volume_rank = [&](double alpha) {
    return required_sampling_probability({alpha, delta}, k, n) *
           static_cast<double>(n);
  };
  const auto volume_basic = [&](double alpha) {
    return basic_counting_required_probability({alpha, delta}, n) *
           static_cast<double>(n);
  };
  EXPECT_NEAR(volume_rank(0.01) / volume_rank(0.02), 2.0, 0.01);
  EXPECT_NEAR(volume_basic(0.01) / volume_basic(0.02), 4.0, 0.05);
  // At large n the probability ratio converges to the constant
  // 1 / (alpha * sqrt(8k (1 - delta))).
  const double alpha = 0.02;
  const double ratio = basic_counting_required_probability({alpha, delta}, n) /
                       required_sampling_probability({alpha, delta}, k, n);
  EXPECT_NEAR(ratio,
              1.0 / (alpha * std::sqrt(8.0 * static_cast<double>(k) *
                                       (1.0 - delta))),
              0.5);
  // At small n the basic requirement saturates toward collecting
  // everything while RankCounting stays cheap.
  EXPECT_GT(basic_counting_required_probability({0.01, 0.9}, 10000), 0.9);
  EXPECT_LT(required_sampling_probability({0.01, 0.9}, k, 10000), 0.3);
}

// Theorem 3.3 end-to-end: sampling at the required p yields an estimate
// within alpha*n of the truth in at least a delta fraction of trials.
struct ContractCase {
  double alpha;
  double delta;
};

class ContractMonteCarlo : public ::testing::TestWithParam<ContractCase> {};

TEST_P(ContractMonteCarlo, GuaranteeHolds) {
  const auto [alpha, delta] = GetParam();
  const std::size_t k = 4;
  const std::size_t n = 4000;
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i);
  Rng part_rng(5);
  const auto node_values = data::partition_values(
      values, k, data::PartitionStrategy::kRoundRobin, part_rng);

  const query::AccuracySpec spec{alpha, delta};
  const double p =
      std::min(1.0, required_sampling_probability(spec, k, n));
  const query::RangeQuery range{n * 0.2 + 0.5, n * 0.7 + 0.5};
  double truth = 0.0;
  for (double v : values) {
    if (range.contains(v)) truth += 1.0;
  }

  Rng rng(1234);
  const int trials = 2000;
  int within = 0;
  for (int t = 0; t < trials; ++t) {
    double estimate = 0.0;
    for (const auto& node : node_values) {
      sampling::LocalSampler sampler(node);
      sampler.raise_probability(p, rng);
      estimate += rank_counting_node_estimate(sampler.current_sample(),
                                              node.size(), p, range);
    }
    if (std::abs(estimate - truth) <= alpha * static_cast<double>(n)) {
      ++within;
    }
  }
  // Allow 3-sigma binomial slack below delta.
  const double margin =
      3.0 * std::sqrt(delta * (1.0 - delta) / trials);
  EXPECT_GE(static_cast<double>(within) / trials, delta - margin)
      << "alpha=" << alpha << " delta=" << delta << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    SpecSweep, ContractMonteCarlo,
    ::testing::Values(ContractCase{0.05, 0.5}, ContractCase{0.05, 0.9},
                      ContractCase{0.10, 0.7}, ContractCase{0.20, 0.8},
                      ContractCase{0.15, 0.95}),
    [](const ::testing::TestParamInfo<ContractCase>& case_info) {
      std::string name = "a";
      name += std::to_string(static_cast<int>(case_info.param.alpha * 100));
      name += "_d";
      name += std::to_string(static_cast<int>(case_info.param.delta * 100));
      return name;
    });

}  // namespace
}  // namespace prc::estimator
