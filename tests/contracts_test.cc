// Tests for the contract layer itself (src/common/check.h) plus one
// firing-proof per layer invariant documented in DESIGN.md: each guarantee
// the paper's theorems rely on has a test here demonstrating that the
// corresponding runtime contract actually fires when violated.

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "common/check.h"
#include "dp/amplification.h"
#include "dp/laplace_mechanism.h"
#include "market/ledger.h"
#include "pricing/pricing.h"
#include "pricing/variance_model.h"
#include "query/range_query.h"
#include "support/ledger_sale.h"

namespace prc {
namespace {

// ---------------------------------------------------------------------------
// The macros themselves.

TEST(PrcCheck, PassingCheckIsSilent) {
  PRC_CHECK(1 + 1 == 2) << "never evaluated";
  SUCCEED();
}

TEST(PrcCheck, FailingCheckThrowsContractViolation) {
  EXPECT_THROW(PRC_CHECK(false) << "boom", ContractViolation);
}

TEST(PrcCheck, MessageCarriesExpressionFileAndDetail) {
  try {
    const double p = -0.25;
    PRC_CHECK(p > 0.0) << "p=" << p;
    FAIL() << "check did not fire";
  } catch (const ContractViolation& violation) {
    const std::string what = violation.what();
    EXPECT_NE(what.find("p > 0.0"), std::string::npos) << what;
    EXPECT_NE(what.find("contracts_test.cc"), std::string::npos) << what;
    EXPECT_NE(what.find("p=-0.25"), std::string::npos) << what;
  }
}

TEST(PrcCheck, ViolationIsCatchableViaStandardHierarchy) {
  // Drop-in compatibility: pre-contract call sites caught
  // std::invalid_argument / std::logic_error.
  EXPECT_THROW(PRC_CHECK(false), std::invalid_argument);
  EXPECT_THROW(PRC_CHECK(false), std::logic_error);
}

TEST(PrcDcheck, TracksBuildConfiguration) {
  if (PRC_DCHECK_IS_ON()) {
    EXPECT_THROW(PRC_DCHECK(false) << "debug-only", ContractViolation);
  } else {
    // Compiled out: the condition is not evaluated and the streamed
    // detail is swallowed.
    bool evaluated = false;
    PRC_DCHECK([&] {
      evaluated = true;
      return false;
    }()) << "swallowed";
    EXPECT_FALSE(evaluated);
  }
}

TEST(PrcCheckProb, AcceptsHalfOpenUnitInterval) {
  PRC_CHECK_PROB(1e-12);
  PRC_CHECK_PROB(0.5);
  PRC_CHECK_PROB(1.0);
  SUCCEED();
}

TEST(PrcCheckProb, RejectsZeroNegativeOversizedAndNan) {
  EXPECT_THROW(PRC_CHECK_PROB(0.0), ContractViolation);
  EXPECT_THROW(PRC_CHECK_PROB(-0.1), ContractViolation);
  EXPECT_THROW(PRC_CHECK_PROB(1.0 + 1e-9), ContractViolation);
  EXPECT_THROW(PRC_CHECK_PROB(std::nan("")), ContractViolation);
}

TEST(PrcCheckFinite, RejectsNanAndInfinity) {
  PRC_CHECK_FINITE(0.0);
  EXPECT_THROW(PRC_CHECK_FINITE(std::nan("")), ContractViolation);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(PRC_CHECK_FINITE(inf), ContractViolation);
  EXPECT_THROW(PRC_CHECK_FINITE(-inf), ContractViolation);
}

// ---------------------------------------------------------------------------
// One firing-proof per layer invariant (the DESIGN.md contract table).

// Sampling layer: Horvitz–Thompson inclusion probabilities live in (0, 1].
TEST(LayerInvariants, BadSamplingProbabilityFires) {
  EXPECT_THROW(
      dp::sensitivity_for(dp::SensitivityPolicy::kExpected, 0.0, 1),
      ContractViolation);
  EXPECT_THROW(dp::amplified_epsilon(0.5, 1.5), ContractViolation);
}

// DP layer: epsilon must be finite and positive at every mechanism entry.
TEST(LayerInvariants, NegativeEpsilonFires) {
  EXPECT_THROW(dp::LaplaceMechanism(1.0, -0.5), ContractViolation);
  EXPECT_THROW(dp::LaplaceMechanism(1.0, 0.0), ContractViolation);
  EXPECT_THROW(dp::base_epsilon_for_amplified(-1.0, 0.5), ContractViolation);
}

// Query layer: accuracy contracts need alpha in (0, 1], delta in (0, 1).
TEST(LayerInvariants, InvalidAccuracySpecFires) {
  EXPECT_THROW(query::AccuracySpec({-0.1, 0.5}).validate(),
               ContractViolation);
  EXPECT_THROW(query::AccuracySpec({0.1, 1.0}).validate(), ContractViolation);
}

// Market layer: the ledger refuses records that would corrupt the budget
// conservation audit, and the audit itself stays at zero discrepancy.
TEST(LayerInvariants, InvalidLedgerRecordFires) {
  market::Ledger ledger;
  market::Transaction bad;
  bad.consumer_id = "c";
  bad.price = -1.0;
  bad.epsilon_amplified = 0.1;
  bad.coverage = 1.0;
  EXPECT_THROW(market::reserve_and_commit(ledger, bad), ContractViolation);
  bad.price = 1.0;
  bad.epsilon_amplified = -0.1;
  EXPECT_THROW(market::reserve_and_commit(ledger, bad), ContractViolation);
  bad.epsilon_amplified = 0.1;
  bad.coverage = 1.5;
  EXPECT_THROW(market::reserve_and_commit(ledger, bad), ContractViolation);

  market::Transaction good = bad;
  good.coverage = 0.9;
  market::reserve_and_commit(ledger, good);
  market::reserve_and_commit(ledger, good);
  EXPECT_EQ(ledger.transaction_count(), 2u);
  EXPECT_NEAR(ledger.conservation_discrepancy(), 0.0, 1e-12);
}

// Pricing layer: a power-family menu with q != 1 is not arbitrage-avoiding
// and must fail the Theorem 4.2 re-validation; q == 1 must pass it.
TEST(LayerInvariants, NonUnitExponentMenuFires) {
  const pricing::VarianceModel model(10000, 16);
  const query::AccuracySpec reference{0.1, 0.8};

  const pricing::InverseVariancePricing q2(model, reference, 10.0, 2.0);
  EXPECT_THROW(pricing::validate_arbitrage_conditions(model, q2),
               ContractViolation);
  const pricing::InverseVariancePricing q_half(model, reference, 10.0, 0.5);
  EXPECT_THROW(pricing::validate_arbitrage_conditions(model, q_half),
               ContractViolation);
  const pricing::LinearDiscountPricing sheet(5.0, 2.0, 3.0);
  EXPECT_THROW(pricing::validate_arbitrage_conditions(model, sheet),
               ContractViolation);

  // The theorem family itself re-validates on construction and passes.
  EXPECT_NO_THROW(pricing::InverseVariancePricing(model, reference, 10.0));
  EXPECT_NO_THROW(pricing::FittedTheoremPricing(model, 1234.5));
}

}  // namespace
}  // namespace prc
