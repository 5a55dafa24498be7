// Randomized equivalence sweeps: the root-finding (alpha', delta') search
// must agree with the exhaustive fine-grid reference on every spec — same
// feasibility verdict, and when feasible an amplified budget never worse
// than the grid's beyond rounding, matching it to tight relative tolerance.
//
// The reference grid is deliberately much finer (2^19 points) than the old
// production default (512): near the unimodal minimum the objective is
// locally quadratic, so a grid of G points lands within ~(1/G)^2 of the
// continuous optimum in relative epsilon.  The root-finder stops within
// 1e-10 of the feasible interval from the exact minimizer, so its epsilon
// exceeds the continuous minimum only by rounding; the grid's own
// discretization error (~1e-10 relative) bounds how closely the two match.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/telemetry.h"
#include "dp/optimizer.h"
#include "estimator/accuracy.h"
#include "query/range_query.h"

namespace prc::dp {
namespace {

constexpr int kSpecs = 1000;
constexpr std::size_t kReferenceGrid = std::size_t{1} << 19;
/// How much larger than the grid's epsilon the root's may be: rounding only.
constexpr double kNeverWorseRtol = 1e-12;
/// How closely the two agree: the grid's discretization error.
constexpr double kMatchRtol = 1e-9;
/// Mean objective evaluations (epsilon or the stationarity condition) per
/// search that the root-finder may spend over a sweep.
constexpr double kMaxEvaluationsPerSearch = 16.0;

OptimizerConfig root_find_config() {
  OptimizerConfig config;
  config.search_strategy = SearchStrategy::kStationarityRoot;
  // Disable the memo so every call exercises the raw search.
  config.plan_cache_capacity = 0;
  return config;
}

OptimizerConfig reference_config() {
  OptimizerConfig config;
  config.search_strategy = SearchStrategy::kExhaustiveGrid;
  config.grid_points = kReferenceGrid;
  config.plan_cache_capacity = 0;
  return config;
}

struct Case {
  query::AccuracySpec spec;
  double p = 1.0;
  std::size_t node_count = 0;
  std::size_t total_count = 0;

  std::string describe() const {
    return "spec=" + spec.to_string() + " p=" + std::to_string(p) +
           " k=" + std::to_string(node_count) +
           " n=" + std::to_string(total_count);
  }
};

/// Runs one case through both searches and checks the verdict and, when
/// feasible, the plan.  Returns whether the case was feasible.
bool expect_matches_reference(const PerturbationOptimizer& fast,
                              const PerturbationOptimizer& reference,
                              const Case& c) {
  const auto got = fast.optimize(c.spec, c.p, c.node_count, c.total_count);
  const auto want =
      reference.optimize(c.spec, c.p, c.node_count, c.total_count);
  EXPECT_EQ(got.has_value(), want.has_value())
      << "feasibility verdict diverged: " << c.describe();
  if (!got || !want) return false;
  // Never worse: the root is the continuous optimum, so it cannot lose to
  // any grid beyond rounding.
  EXPECT_LE(got->epsilon, want->epsilon * (1.0 + kNeverWorseRtol))
      << c.describe() << " fast=" << got->to_string()
      << " reference=" << want->to_string();
  EXPECT_NEAR(got->epsilon_amplified, want->epsilon_amplified,
              kMatchRtol * want->epsilon_amplified)
      << c.describe() << " fast=" << got->to_string()
      << " reference=" << want->to_string();
  // The winning split itself should agree too, not just its objective.
  EXPECT_NEAR(got->alpha_prime, want->alpha_prime,
              1e-3 * (c.spec.alpha - got->alpha_prime) + 1e-6)
      << c.describe();
  return true;
}

/// Mean dp.grid_evaluations per search of `fast` over `cases`, counting
/// only calls that reached the search (a spec whose alpha is below
/// alpha_lo is refused before it).
double evaluations_per_search(const PerturbationOptimizer& fast,
                              const std::vector<Case>& cases) {
  auto& evaluations = telemetry::counter("dp.grid_evaluations");
  std::uint64_t total = 0;
  std::uint64_t searches = 0;
  for (const Case& c : cases) {
    const auto before = evaluations.value();
    (void)fast.optimize(c.spec, c.p, c.node_count, c.total_count);
    const auto spent = evaluations.value() - before;
    if (spent == 0) continue;
    total += spent;
    ++searches;
  }
  EXPECT_GT(searches, 0U);
  return searches == 0 ? 0.0
                       : static_cast<double>(total) /
                             static_cast<double>(searches);
}

TEST(PlanSearchPropertyTest, RootFindMatchesExhaustiveFineGrid) {
  const PerturbationOptimizer fast(root_find_config());
  const PerturbationOptimizer reference(reference_config());

  Rng rng(20260808);
  int feasible = 0;
  for (int trial = 0; trial < kSpecs; ++trial) {
    Case c;
    c.spec = {rng.uniform(0.01, 0.3), rng.uniform(0.4, 0.95)};
    c.p = rng.uniform(0.005, 1.0);
    c.node_count = static_cast<std::size_t>(rng.uniform_int(2, 64));
    c.total_count = static_cast<std::size_t>(rng.uniform_int(1000, 100000));
    if (expect_matches_reference(fast, reference, c)) ++feasible;
  }
  // The draw ranges are chosen so a healthy majority of specs is feasible;
  // if this trips, the sweep stopped exercising the interesting branch.
  EXPECT_GE(feasible, kSpecs / 3) << "too few feasible specs in the sweep";
}

// The worst-case sensitivity policy scales the objective but not its shape;
// the equivalence must survive the policy switch.
TEST(PlanSearchPropertyTest, EquivalenceHoldsUnderWorstCasePolicy) {
  auto fast_config = root_find_config();
  auto ref_config = reference_config();
  fast_config.sensitivity_policy = SensitivityPolicy::kWorstCase;
  ref_config.sensitivity_policy = SensitivityPolicy::kWorstCase;
  const PerturbationOptimizer fast(fast_config);
  const PerturbationOptimizer reference(ref_config);

  Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    const query::AccuracySpec spec{rng.uniform(0.02, 0.3),
                                   rng.uniform(0.4, 0.9)};
    const double p = rng.uniform(0.05, 1.0);
    const std::size_t node_count = 8;
    const std::size_t total_count = 17568;
    const std::size_t max_node_count = total_count / node_count;

    const auto got =
        fast.optimize(spec, p, node_count, total_count, max_node_count);
    const auto want =
        reference.optimize(spec, p, node_count, total_count, max_node_count);
    ASSERT_EQ(got.has_value(), want.has_value()) << "trial " << trial;
    if (!got) continue;
    EXPECT_NEAR(got->epsilon_amplified, want->epsilon_amplified,
                kMatchRtol * want->epsilon_amplified)
        << "trial " << trial;
    EXPECT_DOUBLE_EQ(got->sensitivity, want->sensitivity);
  }
}

// bespoke_contracts' box: every honest buyer and attacker draws a fresh
// (alpha, delta) over 8 nodes holding 17568 readings.
std::vector<Case> bespoke_box(int count) {
  Rng rng(32);
  std::vector<Case> cases;
  for (int trial = 0; trial < count; ++trial) {
    Case c;
    c.spec = {rng.uniform(0.03, 0.25), rng.uniform(0.4, 0.9)};
    c.p = rng.uniform(0.01, 1.0);
    c.node_count = 8;
    c.total_count = 17568;
    cases.push_back(c);
  }
  return cases;
}

// menu_market's 8-contract menu over 128 nodes holding 100000 readings, at
// sampling probabilities from 0.25, just below the strictest contract's
// minimum (about 0.29), up to 1.
std::vector<Case> menu_sweep() {
  const query::AccuracySpec menu[] = {{0.10, 0.50}, {0.08, 0.60},
                                      {0.06, 0.70}, {0.05, 0.75},
                                      {0.04, 0.80}, {0.03, 0.85},
                                      {0.02, 0.90}, {0.01, 0.95}};
  std::vector<Case> cases;
  for (int step = 0; step <= 20; ++step) {
    for (const auto& spec : menu) {
      Case c;
      c.spec = spec;
      c.p = 0.25 + 0.75 * step / 20.0;
      c.node_count = 128;
      c.total_count = 100000;
      cases.push_back(c);
    }
  }
  return cases;
}

TEST(PlanSearchPropertyTest, RootFindMatchesGridOverBespokeBox) {
  const PerturbationOptimizer fast(root_find_config());
  const PerturbationOptimizer reference(reference_config());
  const auto cases = bespoke_box(200);
  int feasible = 0;
  for (const Case& c : cases) {
    if (expect_matches_reference(fast, reference, c)) ++feasible;
  }
  EXPECT_GE(feasible, 60) << "too few feasible specs in the bespoke box";
}

TEST(PlanSearchPropertyTest, RootFindMatchesGridOverMenuMarketMenu) {
  const PerturbationOptimizer fast(root_find_config());
  const PerturbationOptimizer reference(reference_config());
  int feasible = 0;
  for (const Case& c : menu_sweep()) {
    if (expect_matches_reference(fast, reference, c)) ++feasible;
  }
  EXPECT_GE(feasible, 100) << "too few feasible menu plans in the sweep";
}

// Intervals (alpha_lo, alpha) that rounding nearly closes: alpha from 1e-9
// down to 1e-14 relative above alpha_lo, p = 1, and data sets of a few
// dozen readings.  The root-finder must reach the grid's verdict on each.
// Only the verdict is compared: with delta' - delta down to ~1e-14,
// rounding in that difference moves epsilon (1e11 and more there) in its
// fifth digit, and the grid picks the luckiest of its roundings.  At 1e-15
// (alpha_lo and alpha a few ulps apart) delta' - delta is below one ulp of
// delta', and the verdict itself is a rounding accident.
TEST(PlanSearchPropertyTest, NearDegenerateIntervalsKeepTheGridsVerdict) {
  const PerturbationOptimizer fast(root_find_config());
  const PerturbationOptimizer reference(reference_config());
  const auto same_verdict = [&](const Case& c) {
    const auto got = fast.optimize(c.spec, c.p, c.node_count, c.total_count);
    const auto want =
        reference.optimize(c.spec, c.p, c.node_count, c.total_count);
    EXPECT_EQ(got.has_value(), want.has_value())
        << "feasibility verdict diverged: " << c.describe();
    return got.has_value();
  };
  Rng rng(9);
  int feasible = 0;
  int cases = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const double delta = rng.uniform(0.4, 0.95);
    const double p = trial % 2 == 0 ? 1.0 : rng.uniform(0.05, 1.0);
    const auto node_count = static_cast<std::size_t>(rng.uniform_int(1, 16));
    const auto total_count =
        static_cast<std::size_t>(rng.uniform_int(1000, 100000));
    const double alpha_lo =
        estimator::min_feasible_alpha(p, delta, node_count, total_count);
    if (!(alpha_lo < 0.9)) continue;
    for (const double gap : {1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14}) {
      Case c;
      c.spec = {alpha_lo * (1.0 + gap), delta};
      c.p = p;
      c.node_count = node_count;
      c.total_count = total_count;
      ++cases;
      if (same_verdict(c)) ++feasible;
    }
  }
  // Small data sets: a handful of readings per node leaves alpha_lo close
  // to 1, so most contracts are infeasible and the rest barely feasible.
  for (std::size_t total_count = 8; total_count <= 64; total_count += 8) {
    for (const double alpha : {0.5, 0.8, 0.99}) {
      Case c;
      c.spec = {alpha, 0.5};
      c.p = 1.0;
      c.node_count = 1;
      c.total_count = total_count;
      ++cases;
      if (same_verdict(c)) ++feasible;
    }
  }
  EXPECT_GT(feasible, 0) << "no near-degenerate case was feasible";
  EXPECT_GT(cases - feasible, 0) << "no near-degenerate case was infeasible";
}

TEST(PlanSearchPropertyTest, RootFindSpendsFewEvaluationsPerSearch) {
  const PerturbationOptimizer fast(root_find_config());
  const double bespoke = evaluations_per_search(fast, bespoke_box(2000));
  const double menu = evaluations_per_search(fast, menu_sweep());
  RecordProperty("bespoke_evaluations_per_search", std::to_string(bespoke));
  RecordProperty("menu_evaluations_per_search", std::to_string(menu));
  EXPECT_LE(bespoke, kMaxEvaluationsPerSearch);
  EXPECT_LE(menu, kMaxEvaluationsPerSearch);
}

}  // namespace
}  // namespace prc::dp
