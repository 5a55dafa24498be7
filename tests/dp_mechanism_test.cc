#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "support/histogram.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "dp/amplification.h"
#include "dp/laplace_mechanism.h"

namespace prc::dp {
namespace {

TEST(LaplaceMechanismTest, ScaleIsSensitivityOverEpsilon) {
  const LaplaceMechanism mech(2.0, 0.5);
  EXPECT_DOUBLE_EQ(mech.scale(), 4.0);
  EXPECT_DOUBLE_EQ(mech.noise_variance(), 32.0);
}

TEST(LaplaceMechanismTest, RejectsBadParameters) {
  EXPECT_THROW(LaplaceMechanism(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(LaplaceMechanism(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(LaplaceMechanism(-1.0, 1.0), std::invalid_argument);
}

TEST(LaplaceMechanismTest, PerturbationIsCenteredOnValue) {
  const LaplaceMechanism mech(1.0, 1.0);
  Rng rng(3);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(mech.perturb(100.0, rng));
  EXPECT_NEAR(stats.mean(), 100.0, 0.05);
  EXPECT_NEAR(stats.variance(), mech.noise_variance(), 0.1);
}

// The defining DP inequality, checked empirically: for neighboring counts
// differing by the sensitivity, the output densities must be within e^eps.
TEST(LaplaceMechanismTest, EmpiricalPrivacyRatioBound) {
  const double epsilon = 0.8;
  const double sensitivity = 1.0;
  const LaplaceMechanism mech(sensitivity, epsilon);
  Rng rng(11);
  Histogram on_d(90.0, 110.0, 40);   // outputs for gamma(D) = 100
  Histogram on_d2(90.0, 110.0, 40);  // outputs for gamma(D') = 101
  const int trials = 400000;
  for (int i = 0; i < trials; ++i) {
    on_d.add(mech.perturb(100.0, rng));
    on_d2.add(mech.perturb(101.0, rng));
  }
  const double bound = std::exp(epsilon);
  for (std::size_t b = 0; b < on_d.bins(); ++b) {
    // Only compare well-populated bins; sparse tails are sampling noise.
    if (on_d.count(b) < 500 || on_d2.count(b) < 500) continue;
    const double ratio = on_d.density(b) / on_d2.density(b);
    EXPECT_LE(ratio, bound * 1.15) << "bin " << b;
    EXPECT_GE(ratio, 1.0 / (bound * 1.15)) << "bin " << b;
  }
}

// A violation detector: with a *smaller* claimed epsilon the same mechanism
// must fail the ratio bound somewhere, proving the check has power.
TEST(LaplaceMechanismTest, RatioCheckDetectsBudgetViolations) {
  const LaplaceMechanism mech(1.0, 2.0);  // actual budget 2.0
  Rng rng(13);
  Histogram on_d(95.0, 107.0, 24);
  Histogram on_d2(95.0, 107.0, 24);
  const int trials = 400000;
  // Neighbors 3 apart: effective shift 3 * eps worth of density ratio.
  for (int i = 0; i < trials; ++i) {
    on_d.add(mech.perturb(100.0, rng));
    on_d2.add(mech.perturb(103.0, rng));
  }
  const double claimed_bound = std::exp(0.5);  // far too small
  bool violated = false;
  for (std::size_t b = 0; b < on_d.bins(); ++b) {
    if (on_d.count(b) < 500 || on_d2.count(b) < 500) continue;
    const double ratio = on_d.density(b) / on_d2.density(b);
    if (ratio > claimed_bound || ratio < 1.0 / claimed_bound) violated = true;
  }
  EXPECT_TRUE(violated);
}

TEST(LaplaceMechanismTest, CentralProbabilityFeedsOptimizerConstraint) {
  const LaplaceMechanism mech(0.5, 2.0);  // scale 0.25
  // Pr[|Lap(b)| <= t] = 1 - exp(-t/b).
  EXPECT_NEAR(mech.central_probability(0.25), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_NEAR(mech.central_quantile(0.5), 0.25 * std::log(2.0), 1e-12);
}

TEST(SensitivityPolicyTest, ExpectedIsInverseP) {
  EXPECT_DOUBLE_EQ(sensitivity_for(SensitivityPolicy::kExpected, 0.25, 0),
                   4.0);
  EXPECT_THROW(sensitivity_for(SensitivityPolicy::kExpected, 0.0, 0),
               std::invalid_argument);
}

TEST(SensitivityPolicyTest, WorstCaseIsMaxNodeCount) {
  EXPECT_DOUBLE_EQ(sensitivity_for(SensitivityPolicy::kWorstCase, 0.5, 1200),
                   1200.0);
  EXPECT_THROW(sensitivity_for(SensitivityPolicy::kWorstCase, 0.5, 0),
               std::invalid_argument);
}

// --- amplification by sampling (Lemma 3.4) ---------------------------------

TEST(AmplificationTest, ClosedFormValues) {
  EXPECT_NEAR(amplified_epsilon(1.0, 1.0), 1.0, 1e-12);  // no sampling
  EXPECT_NEAR(amplified_epsilon(1.0, 0.0), 0.0, 1e-12);  // nothing sampled
  EXPECT_NEAR(amplified_epsilon(0.0, 0.5), 0.0, 1e-12);  // no noise budget
  EXPECT_NEAR(amplified_epsilon(2.0, 0.3),
              std::log(1.0 - 0.3 + 0.3 * std::exp(2.0)), 1e-12);
}

TEST(AmplificationTest, AlwaysAmplifiesForPartialSampling) {
  for (double eps : {0.1, 0.5, 1.0, 4.0}) {
    for (double p : {0.05, 0.3, 0.7}) {
      EXPECT_LT(amplified_epsilon(eps, p), eps)
          << "eps=" << eps << " p=" << p;
    }
  }
}

TEST(AmplificationTest, MonotoneInBothArguments) {
  EXPECT_LT(amplified_epsilon(1.0, 0.2), amplified_epsilon(1.0, 0.4));
  EXPECT_LT(amplified_epsilon(0.5, 0.3), amplified_epsilon(1.5, 0.3));
}

TEST(AmplificationTest, SmallPApproximation) {
  // For small p and moderate eps, eps' ~ p (e^eps - 1) up to the second-
  // order term x^2/2 of ln(1+x).
  const double eps = 1.0, p = 1e-4;
  const double x = p * std::expm1(eps);
  EXPECT_NEAR(amplified_epsilon(eps, p), x, x * x);
}

TEST(AmplificationTest, InverseRoundTrips) {
  for (double eps : {0.2, 1.0, 3.0}) {
    for (double p : {0.1, 0.5, 0.9}) {
      const double amp = amplified_epsilon(eps, p);
      EXPECT_NEAR(base_epsilon_for_amplified(amp, p), eps, 1e-9);
    }
  }
  EXPECT_THROW(base_epsilon_for_amplified(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(base_epsilon_for_amplified(-1.0, 0.5), std::invalid_argument);
}

TEST(AmplificationTest, RejectsBadArguments) {
  EXPECT_THROW(amplified_epsilon(-0.1, 0.5), std::invalid_argument);
  EXPECT_THROW(amplified_epsilon(1.0, 1.5), std::invalid_argument);
}

// Monte-Carlo check of Lemma 3.4 itself: sample-then-perturb on neighboring
// datasets must satisfy the amplified budget on output densities.
TEST(AmplificationTest, EmpiricalSampledMechanismMeetsAmplifiedBudget) {
  const double epsilon = 1.5;
  const double p = 0.2;
  const double eps_amp = amplified_epsilon(epsilon, p);

  // Query: count of items equal to 1.  D has 40 ones; D' has 41.
  const int base_ones = 40;
  const LaplaceMechanism mech(1.0, epsilon);
  Rng rng(17);
  Histogram out_d(-5.0, 20.0, 25);
  Histogram out_d2(-5.0, 20.0, 25);
  const int trials = 300000;
  for (int i = 0; i < trials; ++i) {
    int sampled_count = 0;
    for (int j = 0; j < base_ones; ++j) {
      if (rng.bernoulli(p)) ++sampled_count;
    }
    out_d.add(mech.perturb(sampled_count, rng));
    // Neighbor has one extra item, also subsampled.
    int extra = rng.bernoulli(p) ? 1 : 0;
    int sampled_count2 = 0;
    for (int j = 0; j < base_ones; ++j) {
      if (rng.bernoulli(p)) ++sampled_count2;
    }
    out_d2.add(mech.perturb(sampled_count2 + extra, rng));
  }
  const double bound = std::exp(eps_amp);
  for (std::size_t b = 0; b < out_d.bins(); ++b) {
    if (out_d.count(b) < 2000 || out_d2.count(b) < 2000) continue;
    const double ratio = out_d.density(b) / out_d2.density(b);
    EXPECT_LE(ratio, bound * 1.1) << "bin " << b;
    EXPECT_GE(ratio, 1.0 / (bound * 1.1)) << "bin " << b;
  }
}

}  // namespace
}  // namespace prc::dp
