// Runtime and compile-time semantics of the privacy-unit types
// (src/common/units.h): same-unit arithmetic, the double adoption path,
// non-convertibility between units, the Raw/Released taint boundary, and a
// full round-trip through the optimizer's (alpha', delta') plan selection.
//
// The negative space — conversions that must NOT compile — is asserted two
// ways: statically here via type traits (cheap, runs on every build) and
// behaviorally in tests/compile_fail/ (each forbidden expression in a real
// TU, with the diagnostic text checked).
#include "common/units.h"

#include <gtest/gtest.h>

#include <cmath>
#include <type_traits>

#include "common/rng.h"
#include "dp/amplification.h"
#include "dp/laplace_mechanism.h"
#include "dp/optimizer.h"
#include "estimator/accuracy.h"

namespace prc::units {
namespace {

// ---------------------------------------------------------------------------
// Compile-time contract: what converts, what does not.
// ---------------------------------------------------------------------------

// The adoption path: doubles and literals flow into any unit implicitly,
// and every unit reads out as a double.
static_assert(std::is_convertible_v<double, Epsilon>);
static_assert(std::is_convertible_v<double, EffectiveEpsilon>);
static_assert(std::is_convertible_v<double, Delta>);
static_assert(std::is_convertible_v<double, Alpha>);
static_assert(std::is_convertible_v<double, Probability>);
static_assert(std::is_convertible_v<Epsilon, double>);
static_assert(std::is_convertible_v<Probability, double>);

// The wall: no unit converts to a different unit.  One user-defined
// conversion per sequence means Unit -> double -> OtherUnit never happens
// implicitly.
static_assert(!std::is_convertible_v<Epsilon, EffectiveEpsilon>);
static_assert(!std::is_convertible_v<EffectiveEpsilon, Epsilon>);
static_assert(!std::is_convertible_v<Delta, Alpha>);
static_assert(!std::is_convertible_v<Alpha, Delta>);
static_assert(!std::is_convertible_v<Epsilon, Delta>);
static_assert(!std::is_convertible_v<Probability, Epsilon>);
static_assert(!std::is_assignable_v<Epsilon&, EffectiveEpsilon>);
static_assert(!std::is_assignable_v<Delta&, Alpha>);

// Zero-cost: same size and layout as the double it replaces.
static_assert(sizeof(Epsilon) == sizeof(double));
static_assert(std::is_trivially_copyable_v<EffectiveEpsilon>);
static_assert(std::is_trivially_copyable_v<Released<double>>);

// Raw<T> has no implicit conversions in either direction; the only read is
// the visible .get().
static_assert(!std::is_convertible_v<double, Raw<double>>);
static_assert(std::is_constructible_v<Raw<double>, double>);  // explicit
static_assert(!std::is_convertible_v<Raw<double>, double>);

// Released<T> reads out freely but cannot be minted from a value here —
// the constructor is private to the DP mechanisms.
static_assert(std::is_convertible_v<Released<double>, double>);
static_assert(!std::is_constructible_v<Released<double>, double>);
static_assert(std::is_default_constructible_v<Released<double>>);

// Raw must never silently launder into Released or vice versa.
static_assert(!std::is_convertible_v<Raw<double>, Released<double>>);
static_assert(!std::is_constructible_v<Released<double>, Raw<double>>);

// ---------------------------------------------------------------------------
// Runtime semantics.
// ---------------------------------------------------------------------------

TEST(UnitsTest, SameUnitArithmeticBehavesLikeDouble) {
  const Epsilon a = 0.25;
  const Epsilon b = 0.5;
  EXPECT_DOUBLE_EQ(a + b, 0.75);
  EXPECT_DOUBLE_EQ(b - a, 0.25);
  EXPECT_DOUBLE_EQ(a * 2.0, 0.5);
  EXPECT_DOUBLE_EQ(b / 2.0, 0.25);
  EXPECT_LT(a, b);
  EXPECT_GE(b, a);
}

TEST(UnitsTest, AccumulationOperatorsStaySameUnit) {
  EffectiveEpsilon total = 0.0;
  total += EffectiveEpsilon(0.25);
  total += 0.5;  // literal flows in via the implicit constructor
  EXPECT_DOUBLE_EQ(total.value(), 0.75);
  total -= 0.25;
  EXPECT_DOUBLE_EQ(total.value(), 0.5);
}

TEST(UnitsTest, UnitsInteroperateWithMathAndStreams) {
  const Delta delta = 0.9;
  EXPECT_TRUE(std::isfinite(delta));
  EXPECT_DOUBLE_EQ(std::sqrt(1.0 - delta), std::sqrt(0.1));
  std::ostringstream os;
  os << delta;
  EXPECT_EQ(os.str(), "0.9");
}

TEST(UnitsTest, DefaultConstructedUnitIsZero) {
  EXPECT_DOUBLE_EQ(Epsilon{}.value(), 0.0);
  EXPECT_DOUBLE_EQ(Probability{}.value(), 0.0);
}

TEST(UnitsTest, RawExposesValueOnlyThroughGet) {
  const Raw<double> raw(41.5);
  EXPECT_DOUBLE_EQ(raw.get(), 41.5);
  EXPECT_DOUBLE_EQ(Raw<double>{}.get(), 0.0);
}

TEST(UnitsTest, DefaultReleasedCarriesZero) {
  const Released<double> released;
  EXPECT_DOUBLE_EQ(released.value(), 0.0);
  const double read = released;  // implicit read-out is the whole point
  EXPECT_DOUBLE_EQ(read, 0.0);
}

// The one legitimate Raw -> Released path: through a DP mechanism.  The
// typed perturb overload consumes a Raw and mints a Released whose value
// is the raw estimate plus Laplace noise — same noise stream as the
// double overload given the same rng state.
TEST(UnitsTest, ReleasedIsMintedOnlyByTheMechanism) {
  const dp::LaplaceMechanism mech(1.0, 0.7);
  Rng rng_typed(123);
  Rng rng_plain(123);
  const Raw<double> raw(100.0);
  const Released<double> released = mech.perturb(raw, rng_typed);
  const double expected = mech.perturb(100.0, rng_plain);
  EXPECT_DOUBLE_EQ(released.value(), expected);
  EXPECT_NE(released.value(), raw.get());  // noise was actually added
}

// ---------------------------------------------------------------------------
// Round-trip: the typed quantities survive the optimizer's (alpha', delta')
// plan selection and the accuracy formulas, with each field carrying the
// unit the paper assigns it.
// ---------------------------------------------------------------------------

TEST(UnitsTest, OptimizerPlanRoundTripKeepsUnitsCoherent) {
  constexpr std::size_t kNodes = 8;
  constexpr std::size_t kTotal = 17568;
  const query::AccuracySpec spec{0.1, 0.9};
  const dp::PerturbationOptimizer optimizer;
  const Probability p =
      optimizer.minimum_feasible_probability(spec, kNodes, kTotal);
  const auto plan = optimizer.optimize(spec, p, kNodes, kTotal);
  ASSERT_TRUE(plan.has_value());

  // Same-unit comparisons: contract vs intermediate accuracy split.
  EXPECT_LT(plan->alpha_prime, plan->alpha);
  EXPECT_GT(plan->delta_prime, plan->delta);
  // Cross-unit on purpose: the Lemma 3.4 amplification check (eps' < eps
  // whenever p < 1) has to read through .value().
  EXPECT_LT(plan->epsilon_amplified.value(), plan->epsilon.value());

  // The plan's delta' must reproduce from its own (p, alpha') via the
  // Theorem 3.3 formula — units flow through achieved_delta unchanged.
  const Delta recomputed = estimator::achieved_delta(
      plan->sampling_probability, plan->alpha_prime, kNodes, kTotal);
  EXPECT_NEAR(recomputed.value(), plan->delta_prime.value(), 1e-12);

  // And the amplified budget must reproduce from (epsilon, p) via the
  // Lemma 3.4 formula.
  const EffectiveEpsilon recomputed_amp =
      dp::amplified_epsilon(plan->epsilon, plan->sampling_probability);
  EXPECT_NEAR(recomputed_amp.value(), plan->epsilon_amplified.value(), 1e-12);

  // Inverting the amplification recovers the base epsilon (same unit).
  const Epsilon recovered = dp::base_epsilon_for_amplified(
      plan->epsilon_amplified, plan->sampling_probability);
  EXPECT_NEAR(recovered.value(), plan->epsilon.value(), 1e-9);
}

}  // namespace
}  // namespace prc::units
