// Property sweep for the perturbation optimizer: every plan produced over a
// (contract x probability) grid must satisfy the full constraint system of
// paper problem (3), and the composed pipeline must meet the contract
// empirically at a spot-checked subset.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "common/distributions.h"
#include "common/rng.h"
#include "dp/amplification.h"
#include "dp/optimizer.h"
#include "estimator/accuracy.h"

namespace prc::dp {
namespace {

constexpr std::size_t kNodes = 8;
constexpr std::size_t kTotal = 17568;

struct GridCase {
  double alpha;
  double delta;
  double p;
};

class OptimizerGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(OptimizerGrid, PlanSatisfiesProblem3Constraints) {
  const auto [alpha, delta, p] = GetParam();
  const query::AccuracySpec spec{alpha, delta};
  const PerturbationOptimizer optimizer;
  const auto plan = optimizer.optimize(spec, p, kNodes, kTotal);

  const double p_required =
      estimator::required_sampling_probability(spec, kNodes, kTotal);
  if (p < p_required) {
    // Below the Theorem 3.3 threshold the search space is empty.
    EXPECT_FALSE(plan.has_value())
        << "p=" << p << " < required " << p_required;
    return;
  }
  ASSERT_TRUE(plan.has_value()) << "p=" << p << " spec=" << spec.to_string();

  // Constraint 1: p >= sqrt(2k)/(alpha' n) * 2/sqrt(1 - delta') — i.e. the
  // cached samples really deliver (alpha', delta').
  const double required_for_prime = estimator::required_sampling_probability(
      {plan->alpha_prime, plan->delta_prime}, kNodes, kTotal);
  EXPECT_GE(p, required_for_prime * (1.0 - 1e-9));

  // Constraint 2/3: alpha' <= alpha, delta <= delta'.
  EXPECT_LE(plan->alpha_prime, spec.alpha);
  EXPECT_GE(plan->delta_prime, spec.delta);

  // Constraint 4: Pr[|Lap| <= (alpha - alpha') n] >= delta / delta'.
  const Laplace noise(plan->laplace_scale);
  const double tail = noise.central_probability(
      (spec.alpha - plan->alpha_prime) * static_cast<double>(kTotal));
  EXPECT_GE(tail, spec.delta / plan->delta_prime - 1e-9);

  // Constraint 5 and the objective relation.
  EXPECT_GT(plan->epsilon, 0.0);
  EXPECT_NEAR(plan->epsilon_amplified, amplified_epsilon(plan->epsilon, p),
              1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    ContractProbabilityGrid, OptimizerGrid,
    ::testing::Values(
        GridCase{0.02, 0.5, 0.05}, GridCase{0.02, 0.5, 0.2},
        GridCase{0.02, 0.9, 0.05}, GridCase{0.02, 0.9, 0.4},
        GridCase{0.05, 0.6, 0.01}, GridCase{0.05, 0.6, 0.1},
        GridCase{0.05, 0.95, 0.3}, GridCase{0.10, 0.5, 0.005},
        GridCase{0.10, 0.8, 0.05}, GridCase{0.10, 0.8, 0.8},
        GridCase{0.20, 0.7, 0.02}, GridCase{0.20, 0.7, 1.0},
        GridCase{0.01, 0.9, 0.001},  // infeasible: below threshold
        GridCase{0.30, 0.4, 0.01}),
    [](const ::testing::TestParamInfo<GridCase>& case_info) {
      const auto& c = case_info.param;
      std::string name = "a";
      name += std::to_string(static_cast<int>(c.alpha * 1000));
      name += "_d";
      name += std::to_string(static_cast<int>(c.delta * 100));
      name += "_p";
      name += std::to_string(static_cast<int>(c.p * 1000));
      return name;
    });

// The optimizer's plan, executed with real Laplace noise on a perfect
// (alpha', delta')-accurate intermediate, meets the customer contract.
// Uses a synthetic intermediate with exactly the promised accuracy so the
// test isolates the noise-phase math from the sampling phase (covered
// elsewhere).
TEST(OptimizerPipelineTest, NoiseSplitHonorsContractOnSyntheticIntermediate) {
  const query::AccuracySpec spec{0.05, 0.8};
  const double p = 0.3;
  const PerturbationOptimizer optimizer;
  const auto plan = optimizer.optimize(spec, p, kNodes, kTotal);
  ASSERT_TRUE(plan.has_value());

  Rng rng(321);
  const double truth = 9000.0;
  const double n = static_cast<double>(kTotal);
  const Laplace noise(plan->laplace_scale);
  // Intermediate error: uniform on [-a'n, a'n] with prob delta', else a
  // large excursion (worst case allowed by the (alpha',delta') contract).
  int within = 0;
  const int trials = 50000;
  for (int t = 0; t < trials; ++t) {
    double intermediate;
    if (rng.bernoulli(plan->delta_prime)) {
      intermediate = truth + rng.uniform(-plan->alpha_prime * n,
                                         plan->alpha_prime * n);
    } else {
      intermediate = truth + 3.0 * spec.alpha * n;  // a miss
    }
    const double released = intermediate + noise.sample(rng);
    if (std::abs(released - truth) <= spec.alpha * n) ++within;
  }
  const double margin =
      3.0 * std::sqrt(spec.delta * (1.0 - spec.delta) / trials);
  EXPECT_GE(static_cast<double>(within) / trials, spec.delta - margin);
}

// End-to-end contract under the *worst-case* sensitivity policy: the plan
// reserves enough headroom that even the inflated noise keeps the contract.
TEST(OptimizerPipelineTest, WorstCasePolicyStillMeetsContract) {
  OptimizerConfig config;
  config.sensitivity_policy = SensitivityPolicy::kWorstCase;
  const PerturbationOptimizer optimizer(config);
  const query::AccuracySpec spec{0.10, 0.7};
  const double p = 0.3;
  const std::size_t max_ni = kTotal / kNodes;
  const auto plan = optimizer.optimize(spec, p, kNodes, kTotal, max_ni);
  ASSERT_TRUE(plan.has_value());
  const Laplace noise(plan->laplace_scale);
  const double tail = noise.central_probability(
      (spec.alpha - plan->alpha_prime) * static_cast<double>(kTotal));
  EXPECT_GE(tail, spec.delta / plan->delta_prime - 1e-9);
  // The worst-case scale is n_i/(p-normalized) times larger than expected.
  EXPECT_GT(plan->laplace_scale, 100.0);
}

}  // namespace
}  // namespace prc::dp
