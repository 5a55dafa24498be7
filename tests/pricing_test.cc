#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "market/simulation.h"
#include "pricing/arbitrage.h"
#include "pricing/pricing.h"
#include "pricing/variance_model.h"

namespace prc::pricing {
namespace {

constexpr std::size_t kTotal = 17568;
constexpr std::size_t kNodes = 8;
const query::AccuracySpec kReference{0.1, 0.5};

VarianceModel model() { return VarianceModel(kTotal, kNodes); }

TEST(VarianceModelTest, ContractVarianceFormula) {
  const query::AccuracySpec spec{0.1, 0.75};
  const double expected = (0.1 * kTotal) * (0.1 * kTotal) * 0.25;
  EXPECT_NEAR(model().contract_variance(spec), expected, 1e-6);
}

TEST(VarianceModelTest, FactorsMultiplyToContractVarianceBitForBit) {
  const auto m = model();
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    const query::AccuracySpec spec{rng.uniform(1e-4, 1.0),
                                   rng.uniform(1e-4, 1.0 - 1e-4)};
    EXPECT_EQ(m.alpha_factor(spec.alpha) * m.delta_factor(spec.delta),
              m.contract_variance(spec))
        << spec.to_string();
  }
  EXPECT_EQ(m.alpha_factor(1.0) * m.delta_factor(0.5),
            m.contract_variance({1.0, 0.5}));
  EXPECT_THROW(m.alpha_factor(0.0), std::invalid_argument);
  EXPECT_THROW(m.alpha_factor(1.5), std::invalid_argument);
  EXPECT_THROW(m.delta_factor(1.0), std::invalid_argument);
  EXPECT_THROW(m.delta_factor(std::nan("")), std::invalid_argument);
}

TEST(VarianceModelTest, Monotonicity) {
  const auto m = model();
  // Increasing alpha increases variance (coarser answer).
  EXPECT_LT(m.contract_variance({0.05, 0.5}), m.contract_variance({0.1, 0.5}));
  // Increasing delta decreases variance (more confident answer).
  EXPECT_GT(m.contract_variance({0.1, 0.5}), m.contract_variance({0.1, 0.9}));
}

TEST(VarianceModelTest, AlphaForVarianceInverts) {
  const auto m = model();
  const query::AccuracySpec spec{0.07, 0.65};
  const double v = m.contract_variance(spec);
  EXPECT_NEAR(m.alpha_for_variance(v, spec.delta), spec.alpha, 1e-12);
  EXPECT_THROW(m.alpha_for_variance(-1.0, 0.5), std::invalid_argument);
  EXPECT_THROW(m.alpha_for_variance(1.0, 1.0), std::invalid_argument);
}

TEST(VarianceModelTest, ConstructionValidation) {
  EXPECT_THROW(VarianceModel(0, 5), std::invalid_argument);
  EXPECT_THROW(VarianceModel(100, 0), std::invalid_argument);
}

TEST(InverseVariancePricingTest, AnchoredAtReference) {
  const InverseVariancePricing pricing(model(), kReference, 50.0);
  EXPECT_NEAR(pricing.price(kReference), 50.0, 1e-9);
}

TEST(InverseVariancePricingTest, MonotoneTheRightWay) {
  const InverseVariancePricing pricing(model(), kReference, 50.0);
  // Stricter alpha (lower variance) costs more.
  EXPECT_GT(pricing.price({0.05, 0.5}), pricing.price({0.1, 0.5}));
  // Higher confidence costs more.
  EXPECT_GT(pricing.price({0.1, 0.9}), pricing.price({0.1, 0.5}));
}

TEST(InverseVariancePricingTest, RejectsNonPositiveParameters) {
  EXPECT_THROW(InverseVariancePricing(model(), kReference, 50.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(InverseVariancePricing(model(), kReference, 50.0, -1.0),
               std::invalid_argument);
  EXPECT_THROW(InverseVariancePricing(model(), kReference, 0.0),
               std::invalid_argument);
}

TEST(LinearDiscountPricingTest, BasicShape) {
  const LinearDiscountPricing pricing(1.0, 10.0, 5.0);
  EXPECT_NEAR(pricing.price({0.5, 0.5}), 1.0 + 10.0 * 0.5 + 5.0 * 0.5, 1e-12);
  EXPECT_GT(pricing.price({0.1, 0.5}), pricing.price({0.5, 0.5}));
  EXPECT_THROW(LinearDiscountPricing(0.0, 1.0, 1.0), std::invalid_argument);
}

// --- Theorem 4.2 checker ---------------------------------------------------

TEST(ArbitrageCheckerTest, UnitExponentPasses) {
  const ArbitrageChecker checker(model());
  const InverseVariancePricing pricing(model(), kReference, 50.0, 1.0);
  const auto report = checker.check(pricing);
  EXPECT_TRUE(report.arbitrage_avoiding);
  EXPECT_GT(report.checks_performed, 1000u);
  EXPECT_TRUE(report.violations.empty());
}

TEST(ArbitrageCheckerTest, SteepExponentFailsProperty3) {
  // q > 1: price decays faster than 1/V — the relative price drop along the
  // alpha axis exceeds the relative variance increase.
  const ArbitrageChecker checker(model());
  const InverseVariancePricing pricing(model(), kReference, 50.0, 2.0);
  const auto report = checker.check(pricing);
  EXPECT_FALSE(report.arbitrage_avoiding);
  bool property3 = false;
  for (const auto& v : report.violations) {
    if (v.property == 3) property3 = true;
  }
  EXPECT_TRUE(property3);
}

TEST(ArbitrageCheckerTest, ShallowExponentFailsProperty2) {
  // q < 1: price rises too little when the customer pays for confidence —
  // the relative price increase along the delta axis undershoots the
  // relative variance decrease.
  const ArbitrageChecker checker(model());
  const InverseVariancePricing pricing(model(), kReference, 50.0, 0.5);
  const auto report = checker.check(pricing);
  EXPECT_FALSE(report.arbitrage_avoiding);
  bool property2 = false;
  for (const auto& v : report.violations) {
    if (v.property == 2) property2 = true;
  }
  EXPECT_TRUE(property2);
}

TEST(ArbitrageCheckerTest, LinearPricingFailsProperty1) {
  const ArbitrageChecker checker(model());
  const LinearDiscountPricing pricing(1.0, 10.0, 5.0);
  const auto report = checker.check(pricing);
  EXPECT_FALSE(report.arbitrage_avoiding);
  ASSERT_FALSE(report.violations.empty());
  bool property1_violated = false;
  for (const auto& v : report.violations) {
    if (v.property == 1) property1_violated = true;
    EXPECT_FALSE(v.to_string().empty());
  }
  EXPECT_TRUE(property1_violated);
}

struct ExponentVerdict {
  double exponent;
  bool avoiding;            // checker verdict
  bool averaging_attackable;  // attack-simulator verdict
};

class ExponentSweep : public ::testing::TestWithParam<ExponentVerdict> {};

TEST_P(ExponentSweep, CheckerAndSimulatorAgreeWithTheory) {
  const auto [exponent, avoiding, attackable] = GetParam();
  const InverseVariancePricing pricing(model(), kReference, 50.0, exponent);
  const ArbitrageChecker checker(model());
  EXPECT_EQ(checker.check(pricing).arbitrage_avoiding, avoiding)
      << "q=" << exponent;
  const AttackSimulator simulator(model());
  EXPECT_EQ(simulator.best_attack(pricing, {0.05, 0.9}).profitable,
            attackable)
      << "q=" << exponent;
}

INSTANTIATE_TEST_SUITE_P(
    PowerFamily, ExponentSweep,
    ::testing::Values(
        // q < 1: violates Thm 4.2 (property 2) but averaging cannot profit.
        ExponentVerdict{0.5, false, false},
        ExponentVerdict{0.75, false, false},
        // q = 1: the theorem family; break-even against averaging.
        ExponentVerdict{1.0, true, false},
        // q > 1: violates property 3 AND is strictly attackable.
        ExponentVerdict{1.5, false, true},
        ExponentVerdict{2.0, false, true},
        ExponentVerdict{3.0, false, true}),
    [](const ::testing::TestParamInfo<ExponentVerdict>& case_info) {
      std::string name = "q";
      name += std::to_string(static_cast<int>(case_info.param.exponent * 100));
      return name;
    });

TEST(ArbitrageCheckerTest, GridValidation) {
  ArbitrageChecker::Grid bad;
  bad.alpha_steps = 1;
  EXPECT_THROW(ArbitrageChecker(model(), bad), std::invalid_argument);
  ArbitrageChecker::Grid inverted;
  inverted.alpha_min = 0.9;
  inverted.alpha_max = 0.1;
  EXPECT_THROW(ArbitrageChecker(model(), inverted), std::invalid_argument);
}

// --- attack simulator ------------------------------------------------------

TEST(AttackSimulatorTest, BeatsSteepDiscountPricing) {
  // q = 2 decays faster than 1/V: m weak queries with V_i ~ m * V cost about
  // pi / m — the textbook Example 4.1 arbitrage.
  const AttackSimulator simulator(model());
  const InverseVariancePricing pricing(model(), kReference, 50.0, 2.0);
  const query::AccuracySpec target{0.05, 0.9};
  const auto result = simulator.best_attack(pricing, target);
  EXPECT_TRUE(result.profitable);
  EXPECT_GE(result.copies, 2u);
  EXPECT_LT(result.best_attack_cost, result.honest_price);
  EXPECT_GT(result.savings(), 0.3);  // q=2 is badly exposed
  // The attack's averaged answer is genuinely as good as the honest one.
  EXPECT_LE(result.combined_variance,
            model().contract_variance(target) * (1.0 + 1e-9));
  // The weaker contract really is weaker.
  EXPECT_GT(result.weaker_spec.alpha, target.alpha);
  EXPECT_LT(result.weaker_spec.delta, target.delta);
}

TEST(AttackSimulatorTest, CannotBeatTheoremFamily) {
  // q <= 1 never loses to the averaging adversary (q < 1 still violates
  // Theorem 4.2 property 2, but that failure is not exploitable by simple
  // averaging — the checker is deliberately stricter than this simulator).
  const AttackSimulator simulator(model());
  for (double q : {1.0, 0.75}) {
    const InverseVariancePricing pricing(model(), kReference, 50.0, q);
    for (const auto& target :
         {query::AccuracySpec{0.05, 0.9}, query::AccuracySpec{0.1, 0.7},
          query::AccuracySpec{0.02, 0.5}}) {
      const auto result = simulator.best_attack(pricing, target);
      EXPECT_FALSE(result.profitable)
          << "q=" << q << " target=" << target.to_string();
      EXPECT_EQ(result.copies, 0u);
      EXPECT_DOUBLE_EQ(result.best_attack_cost, result.honest_price);
      EXPECT_EQ(result.savings(), 0.0);
    }
  }
}

TEST(AttackSimulatorTest, ExactlyUnitExponentIsBreakEven) {
  // With q = 1 the symmetric attack at equal variance budget costs exactly
  // the honest price: m * c * V_ref / (m V) == c * V_ref / V.  Verify no
  // strict profit is reported (boundary of the Thm 4.2 condition).
  const AttackSimulator simulator(model());
  const InverseVariancePricing pricing(model(), kReference, 100.0, 1.0);
  const auto result = simulator.best_attack(pricing, {0.08, 0.8});
  EXPECT_FALSE(result.profitable);
}

TEST(AttackSimulatorTest, AsymmetricAttackSpotCheck) {
  // Hand-built *asymmetric* two-query attack (the simulator only searches
  // symmetric ones): both weak contracts differ, their average meets the
  // target's variance budget, and the bundle is cheaper under q = 2 but not
  // under the Theorem 4.2 family q = 1.
  const auto m = model();
  const query::AccuracySpec target{0.05, 0.9};
  const query::AccuracySpec weak1{0.055, 0.85};
  const query::AccuracySpec weak2{0.057, 0.86};
  const double combined =
      (m.contract_variance(weak1) + m.contract_variance(weak2)) / 4.0;
  ASSERT_LE(combined, m.contract_variance(target));  // attack is valid

  const InverseVariancePricing steep(m, kReference, 50.0, 2.0);
  EXPECT_LT(steep.price(weak1) + steep.price(weak2), steep.price(target));

  const InverseVariancePricing safe(m, kReference, 50.0, 1.0);
  EXPECT_GE(safe.price(weak1) + safe.price(weak2), safe.price(target));
}

TEST(AttackSimulatorTest, SearchSpaceValidation) {
  AttackSimulator::SearchSpace bad;
  bad.max_copies = 1;
  EXPECT_THROW(AttackSimulator(model(), bad), std::invalid_argument);
}

TEST(AttackSimulatorTest, RejectsUnboundedCopyCountsAtConstruction) {
  // A search sizes its tables by max_copies: SIZE_MAX would wrap them and
  // 1e9 would allocate gigabytes.  The constructor, which allocates
  // nothing, refuses both, so no search ever sizes a table by them.
  const auto m = model();
  for (const std::size_t copies :
       {std::numeric_limits<std::size_t>::max(), std::size_t{1000000000},
        AttackSimulator::SearchSpace::kMaxCopiesLimit + 1}) {
    AttackSimulator::SearchSpace space;
    space.max_copies = copies;
    EXPECT_THROW(AttackSimulator(m, space), prc::ContractViolation)
        << "max_copies=" << copies;
  }
  AttackSimulator::SearchSpace widest;
  widest.max_copies = AttackSimulator::SearchSpace::kMaxCopiesLimit;
  EXPECT_NO_THROW(AttackSimulator(m, widest));
}

// --- single-pass attack search vs the m-major scan ---------------------------

// The m-major memo scan best_attack used before it became a single pass,
// kept verbatim as the reference: for m = 2..max_copies it visits every
// lattice cell, prices a cell on its first admissible visit and counts every
// later visit as a memo hit.
AttackResult reference_best_attack(const VarianceModel& model,
                                   const AttackSimulator::SearchSpace& space,
                                   const PricingFunction& pricing,
                                   const query::AccuracySpec& target,
                                   std::uint64_t& memo_hits) {
  target.validate();
  AttackResult result;
  result.honest_price = pricing.price(target);
  result.best_attack_cost = result.honest_price;
  const double target_variance = model.contract_variance(target);
  struct Cell {
    bool valid = false;
    query::AccuracySpec spec;
    double variance = 0.0;
    double price = 0.0;
    bool priced = false;
  };
  std::vector<Cell> cells(space.alpha_steps * space.delta_steps);
  for (std::size_t ai = 1; ai <= space.alpha_steps; ++ai) {
    const double alpha_w =
        target.alpha + (space.alpha_max - target.alpha) *
                           static_cast<double>(ai) /
                           static_cast<double>(space.alpha_steps);
    if (!(alpha_w > target.alpha) || alpha_w > 1.0) continue;
    for (std::size_t di = 1; di <= space.delta_steps; ++di) {
      const double delta_w = target.delta * static_cast<double>(di) /
                             static_cast<double>(space.delta_steps + 1);
      if (!(delta_w > 0.0) || !(delta_w < target.delta)) continue;
      Cell& c = cells[(ai - 1) * space.delta_steps + (di - 1)];
      c.valid = true;
      c.spec = query::AccuracySpec{alpha_w, delta_w};
      c.variance = model.contract_variance(c.spec);
    }
  }
  for (std::size_t m = 2; m <= space.max_copies; ++m) {
    const double variance_budget = static_cast<double>(m) * target_variance;
    for (Cell& c : cells) {
      if (!c.valid) continue;
      if (c.variance > variance_budget) continue;
      if (!c.priced) {
        c.price = pricing.price(c.spec);
        c.priced = true;
      } else {
        ++memo_hits;
      }
      const double cost = static_cast<double>(m) * c.price;
      if (cost < result.best_attack_cost) {
        result.best_attack_cost = cost;
        result.copies = m;
        result.weaker_spec = c.spec;
        result.combined_variance = c.variance / static_cast<double>(m);
      }
    }
  }
  result.profitable =
      result.best_attack_cost < result.honest_price * (1.0 - 1e-9);
  if (!result.profitable) {
    result.best_attack_cost = result.honest_price;
    result.copies = 0;
    result.combined_variance = target_variance;
  }
  return result;
}

// Forwards to another pricing function and records every spec it quotes,
// so two searches can be compared call by call.
class RecordingPricing final : public PricingFunction {
 public:
  explicit RecordingPricing(const PricingFunction& inner) : inner_(inner) {}
  void evaluate(std::span<const query::AccuracySpec> specs,
                std::span<double> prices) const override {
    quoted_.insert(quoted_.end(), specs.begin(), specs.end());
    inner_.evaluate(specs, prices);
  }
  std::string name() const override { return inner_.name(); }
  std::vector<query::AccuracySpec> take() {
    std::vector<query::AccuracySpec> out;
    out.swap(quoted_);
    return out;
  }

 private:
  const PricingFunction& inner_;
  mutable std::vector<query::AccuracySpec> quoted_;
};

// Everything one search leaves behind: its result, the specs it quoted in
// order (when it ran through a RecordingPricing), and what it added to the
// pricing telemetry.
struct SearchTrace {
  AttackResult result;
  std::vector<query::AccuracySpec> quoted;
  std::uint64_t quotes = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t price_count = 0;
  double price_sum = 0.0;
};

template <typename Search>
SearchTrace trace_search(const PricingFunction& pricing, Search search) {
  auto& quotes = telemetry::counter("pricing.quotes");
  auto& memo_hits = telemetry::counter("pricing.attack_quote_cache_hits");
  auto& prices = telemetry::histogram("pricing.price");
  // Reset rather than diff the histogram, so both sums start from 0.0 and
  // are comparable bit for bit.
  prices.reset();
  const std::uint64_t quotes_before = quotes.value();
  const std::uint64_t hits_before = memo_hits.value();
  SearchTrace trace;
  trace.result = search(pricing, trace.memo_hits);
  trace.quotes = quotes.value() - quotes_before;
  trace.memo_hits += memo_hits.value() - hits_before;
  const telemetry::HistogramSnapshot snapshot = prices.snapshot();
  trace.price_count = snapshot.count;
  trace.price_sum = snapshot.sum;
  return trace;
}

template <typename Search>
SearchTrace trace_recorded_search(const PricingFunction& pricing,
                                  Search search) {
  RecordingPricing recording(pricing);
  SearchTrace trace = trace_search(recording, search);
  trace.quoted = recording.take();
  return trace;
}

void expect_same_trace(const SearchTrace& got, const SearchTrace& want) {
  EXPECT_EQ(got.result.profitable, want.result.profitable);
  EXPECT_EQ(got.result.honest_price, want.result.honest_price);
  EXPECT_EQ(got.result.best_attack_cost, want.result.best_attack_cost);
  EXPECT_EQ(got.result.copies, want.result.copies);
  EXPECT_EQ(got.result.weaker_spec.alpha, want.result.weaker_spec.alpha);
  EXPECT_EQ(got.result.weaker_spec.delta, want.result.weaker_spec.delta);
  EXPECT_EQ(got.result.combined_variance, want.result.combined_variance);
  EXPECT_EQ(got.quotes, want.quotes);
  EXPECT_EQ(got.memo_hits, want.memo_hits);
  EXPECT_EQ(got.price_count, want.price_count);
  EXPECT_EQ(got.price_sum, want.price_sum);
  ASSERT_EQ(got.quoted.size(), want.quoted.size());
  for (std::size_t i = 0; i < got.quoted.size(); ++i) {
    EXPECT_EQ(got.quoted[i].alpha, want.quoted[i].alpha) << "quote " << i;
    EXPECT_EQ(got.quoted[i].delta, want.quoted[i].delta) << "quote " << i;
  }
}

// Runs both searches twice: through a RecordingPricing, which compares the
// quoted specs call by call, and on `pricing` itself, so the function's own
// evaluate() and the batch telemetry are what is compared.
void expect_same_search(const VarianceModel& m,
                        const AttackSimulator::SearchSpace& space,
                        const PricingFunction& pricing,
                        const query::AccuracySpec& target) {
  const AttackSimulator simulator(m, space);
  const auto reference = [&](const PricingFunction& p, std::uint64_t& hits) {
    return reference_best_attack(m, space, p, target, hits);
  };
  const auto single_pass = [&](const PricingFunction& p, std::uint64_t&) {
    return simulator.best_attack(p, target);
  };
  SCOPED_TRACE(pricing.name() + " target=" + target.to_string() +
               " max_copies=" + std::to_string(space.max_copies) +
               " steps=" + std::to_string(space.alpha_steps) + "x" +
               std::to_string(space.delta_steps));
  {
    SCOPED_TRACE("recorded");
    expect_same_trace(trace_recorded_search(pricing, single_pass),
                      trace_recorded_search(pricing, reference));
  }
  {
    SCOPED_TRACE("unwrapped");
    expect_same_trace(trace_search(pricing, single_pass),
                      trace_search(pricing, reference));
  }
}

// Quotes every contract weaker than the target at one flat price, so every
// cell admissible at m = 2 ties on cost and the lattice index alone picks
// the winner.
class StepPricing final : public PricingFunction {
 public:
  explicit StepPricing(double target_alpha) : target_alpha_(target_alpha) {}
  void evaluate(std::span<const query::AccuracySpec> specs,
                std::span<double> prices) const override {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      prices[i] = specs[i].alpha > target_alpha_ ? 1.0 : 100.0;
    }
  }
  std::string name() const override { return "step"; }

 private:
  double target_alpha_;
};

TEST(AttackSimulatorTest, SinglePassMatchesMMajorScan) {
  const auto m = model();
  const AttackSimulator::SearchSpace space;
  const LinearDiscountPricing linear(5.0, 40.0, 30.0);
  const FittedTheoremPricing fitted(m, 50.0 * m.contract_variance(kReference));
  std::vector<InverseVariancePricing> power;
  for (double q : {0.5, 1.0, 1.5, 2.0, 3.0}) {
    power.emplace_back(m, kReference, 50.0, q);
  }
  std::vector<const PricingFunction*> pricings{&linear, &fitted};
  for (const auto& p : power) pricings.push_back(&p);

  Rng rng(20240518);
  for (int i = 0; i < 500; ++i) {
    const query::AccuracySpec target{rng.uniform(0.01, 0.5),
                                     rng.uniform(0.05, 0.95)};
    for (const PricingFunction* pricing : pricings) {
      expect_same_search(m, space, *pricing, target);
    }
  }
}

TEST(AttackSimulatorTest, SinglePassMatchesOnTheBespokeContractBox) {
  // The targets attackers shop for in a market simulation: contracts drawn
  // from its box, priced by the theorem family the broker sells and by a
  // steep family the attack beats.
  const auto m = model();
  const AttackSimulator::SearchSpace space;
  const InverseVariancePricing theorem(m, kReference, 100.0, 1.0);
  const InverseVariancePricing steep(m, kReference, 100.0, 2.0);
  const market::SimulationConfig box;
  Rng rng(4242);
  std::size_t profitable = 0;
  for (int i = 0; i < 2000; ++i) {
    const query::AccuracySpec target{rng.uniform(box.alpha_min, box.alpha_max),
                                     rng.uniform(box.delta_min, box.delta_max)};
    expect_same_search(m, space, theorem, target);
    expect_same_search(m, space, steep, target);
    profitable +=
        AttackSimulator(m, space).best_attack(steep, target).profitable;
  }
  EXPECT_GT(profitable, 1000u);
}

TEST(AttackSimulatorTest, SinglePassMatchesWhenWholeRowsAreInadmissible) {
  // A strict target leaves every cell of the coarse rows too noisy at any
  // m <= max_copies, others admissible from some column on.  The last
  // target's variance is subnormal: the search scales it before taking its
  // reciprocal, and the budget products round on the subnormal grid.
  const auto m = model();
  const InverseVariancePricing steep(m, kReference, 50.0, 2.0);
  // Anchored among the subnormal variances, so its quotes stay finite.
  const InverseVariancePricing steep_subnormal(m, {2e-158, 0.5}, 50.0, 2.0);
  const LinearDiscountPricing linear(5.0, 40.0, 30.0);
  struct Case {
    query::AccuracySpec target;
    AttackSimulator::SearchSpace space;
    const PricingFunction* steep;
  };
  std::vector<Case> cases;
  for (const std::size_t copies : {std::size_t{2}, std::size_t{3},
                                   std::size_t{24}}) {
    AttackSimulator::SearchSpace space;
    space.max_copies = copies;
    cases.push_back({{0.02, 0.9}, space, &steep});
    cases.push_back({{0.01, 0.95}, space, &steep});
  }
  AttackSimulator::SearchSpace subnormal;
  subnormal.alpha_max = 4e-158;
  cases.push_back({{1e-158, 0.5}, subnormal, &steep_subnormal});
  ASSERT_LT(m.contract_variance(cases.back().target),
            std::numeric_limits<double>::min());
  std::size_t empty_rows = 0;
  std::size_t partial_rows = 0;
  for (const Case& c : cases) {
    const double budget = static_cast<double>(c.space.max_copies) *
                          m.contract_variance(c.target);
    for (std::size_t ai = 1; ai <= c.space.alpha_steps; ++ai) {
      const double alpha_w =
          c.target.alpha + (c.space.alpha_max - c.target.alpha) *
                               static_cast<double>(ai) /
                               static_cast<double>(c.space.alpha_steps);
      std::size_t admissible = 0;
      for (std::size_t di = 1; di <= c.space.delta_steps; ++di) {
        const double delta_w = c.target.delta * static_cast<double>(di) /
                               static_cast<double>(c.space.delta_steps + 1);
        admissible += m.contract_variance({alpha_w, delta_w}) <= budget;
      }
      empty_rows += admissible == 0;
      partial_rows += admissible > 0 && admissible < c.space.delta_steps;
    }
    expect_same_search(m, c.space, *c.steep, c.target);
    expect_same_search(m, c.space, linear, c.target);
  }
  EXPECT_GT(empty_rows, 100u);
  EXPECT_GE(partial_rows, 7u);
}

TEST(AttackSimulatorTest, SinglePassMatchesAtSearchSpaceEdges) {
  const auto m = model();
  const InverseVariancePricing steep(m, kReference, 50.0, 2.0);
  const LinearDiscountPricing linear(5.0, 40.0, 30.0);
  const query::AccuracySpec target{0.05, 0.8};
  std::vector<AttackSimulator::SearchSpace> spaces;
  for (const std::size_t copies :
       {std::size_t{2}, std::size_t{3}, std::size_t{24},
        AttackSimulator::SearchSpace::kMaxCopiesLimit}) {
    for (const std::size_t delta_steps : {std::size_t{20}, std::size_t{1}}) {
      AttackSimulator::SearchSpace space;
      space.max_copies = copies;
      space.delta_steps = delta_steps;
      spaces.push_back(space);
    }
  }
  AttackSimulator::SearchSpace narrow;  // alpha_max just above the target
  narrow.alpha_max = std::nextafter(target.alpha, 1.0);
  spaces.push_back(narrow);
  AttackSimulator::SearchSpace below;  // target alpha at or past alpha_max
  below.alpha_max = target.alpha;
  spaces.push_back(below);
  for (const auto& space : spaces) {
    for (const PricingFunction* pricing :
         {static_cast<const PricingFunction*>(&steep),
          static_cast<const PricingFunction*>(&linear)}) {
      expect_same_search(m, space, *pricing, target);
      expect_same_search(m, space, *pricing, {0.3, 0.5});
    }
  }
  // With no weaker alpha on the lattice there is nothing to buy.
  EXPECT_FALSE(AttackSimulator(m, below).best_attack(steep, target).profitable);
  below.alpha_max = 0.01;
  EXPECT_FALSE(AttackSimulator(m, below).best_attack(steep, target).profitable);
  expect_same_search(m, below, steep, target);
}

TEST(AttackSimulatorTest, SinglePassHonorsAnExactIntegerVarianceRatio) {
  // Target (0.25, 0.5) and lattice cell (0.5, 0.25): V_c / V_target is
  // exactly 4 * 1.5 = 6 in doubles, so the cell is admissible at m = 6 and
  // not one copy earlier.
  const auto m = model();
  const query::AccuracySpec target{0.25, 0.5};
  const query::AccuracySpec cell{0.5, 0.25};
  ASSERT_EQ(m.contract_variance(cell), 6.0 * m.contract_variance(target));
  AttackSimulator::SearchSpace space;
  space.alpha_steps = 2;
  space.delta_steps = 1;
  space.alpha_max = 0.5;
  const InverseVariancePricing steep(m, kReference, 50.0, 3.0);
  for (std::size_t max_copies : {5u, 6u, 24u}) {
    space.max_copies = max_copies;
    expect_same_search(m, space, steep, target);
  }
  space.max_copies = 6;
  const auto result = AttackSimulator(m, space).best_attack(steep, target);
  EXPECT_TRUE(result.profitable);
  EXPECT_EQ(result.copies, 6u);
  EXPECT_EQ(result.weaker_spec.alpha, cell.alpha);
  EXPECT_EQ(result.weaker_spec.delta, cell.delta);
}

TEST(AttackSimulatorTest, SinglePassSettlesRoundedBoundaries) {
  // With alpha_max = 2 alpha and one delta step, the outer lattice cell is
  // (2 alpha, delta / 2), whose variance ratio to the target is
  // 4 (1 - delta / 2) / (1 - delta): 6 at delta = 1/2 and 5 at delta = 1/3.
  // Near those integers, rounding in V_c / V_target and in m * V_target puts
  // the ratio's ceiling a copy above or below the smallest m the budget
  // comparison admits; the search must follow the comparison.
  const auto m = model();
  const InverseVariancePricing steep(m, kReference, 50.0, 3.0);
  const double third_up = std::nextafter(1.0 / 3.0, 1.0);
  std::size_t ceiling_above = 0;
  std::size_t ceiling_below = 0;
  Rng rng(77);
  for (int i = 0; i < 300; ++i) {
    const double alpha = rng.uniform(0.01, 0.5);
    for (double delta : {0.5, third_up, std::nextafter(third_up, 1.0)}) {
      const query::AccuracySpec target{alpha, delta};
      AttackSimulator::SearchSpace space;
      space.alpha_steps = 2;
      space.delta_steps = 1;
      space.alpha_max = alpha + alpha;
      const double v_cell = m.contract_variance({alpha + alpha, delta / 2.0});
      const double v_target = m.contract_variance(target);
      std::size_t copies = 2;
      while (v_cell > static_cast<double>(copies) * v_target) ++copies;
      const auto ceiling =
          static_cast<std::size_t>(std::ceil(v_cell / v_target));
      ceiling_above += ceiling > copies ? 1 : 0;
      ceiling_below += ceiling < copies ? 1 : 0;
      expect_same_search(m, space, steep, target);
    }
  }
  EXPECT_GT(ceiling_above, 0u);
  EXPECT_GT(ceiling_below, 0u);
}

TEST(AttackSimulatorTest, SinglePassKeepsTheFirstOfTiedCells) {
  // A coarse, low-confidence target leaves many weaker cells within twice
  // its variance.
  const auto m = model();
  const query::AccuracySpec target{0.3, 0.3};
  const StepPricing step(target.alpha);
  const AttackSimulator::SearchSpace space;
  std::uint64_t hits = 0;
  const AttackResult want =
      reference_best_attack(m, space, step, target, hits);
  ASSERT_EQ(want.copies, 2u);
  ASSERT_EQ(want.best_attack_cost, 2.0);
  // Many cells are admissible at m = 2, so the tie-break is what is tested.
  std::size_t tied = 0;
  for (std::size_t ai = 1; ai <= space.alpha_steps; ++ai) {
    const double alpha_w =
        target.alpha + (space.alpha_max - target.alpha) *
                           static_cast<double>(ai) /
                           static_cast<double>(space.alpha_steps);
    for (std::size_t di = 1; di <= space.delta_steps; ++di) {
      const double delta_w = target.delta * static_cast<double>(di) /
                             static_cast<double>(space.delta_steps + 1);
      if (m.contract_variance({alpha_w, delta_w}) <=
          2.0 * m.contract_variance(target)) {
        ++tied;
      }
    }
  }
  ASSERT_GE(tied, 10u);
  expect_same_search(m, space, step, target);
}

// Quotes `honest` for the (0.05, 0.8) target and `weaker` for every
// contract with a larger alpha.
class BrokenPricing final : public PricingFunction {
 public:
  BrokenPricing(double honest, double weaker)
      : honest_(honest), weaker_(weaker) {}
  void evaluate(std::span<const query::AccuracySpec> specs,
                std::span<double> prices) const override {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      prices[i] = specs[i].alpha > 0.05 ? weaker_ : honest_;
    }
  }
  std::string name() const override { return "broken-stub"; }

 private:
  double honest_;
  double weaker_;
};

TEST(AttackSimulatorTest, RejectsNonPositiveQuotes) {
  const AttackSimulator simulator(model());
  const query::AccuracySpec target{0.05, 0.8};
  for (const auto& [honest, weaker] :
       {std::pair{0.0, 0.0}, std::pair{10.0, 0.0}, std::pair{10.0, -1.0},
        std::pair{10.0, std::nan("")},
        std::pair{10.0, std::numeric_limits<double>::infinity()}}) {
    const BrokenPricing broken(honest, weaker);
    try {
      simulator.best_attack(broken, target);
      ADD_FAILURE() << "accepted honest=" << honest << " weaker=" << weaker;
    } catch (const prc::ContractViolation& violation) {
      EXPECT_NE(std::string(violation.what()).find("broken-stub"),
                std::string::npos)
          << violation.what();
    }
  }
}

TEST(AttackSimulatorTest, PriceAllRejectsNonFiniteQuotesBeforeRecording) {
  auto& quotes = telemetry::counter("pricing.quotes");
  auto& prices = telemetry::histogram("pricing.price");
  prices.reset();
  const std::uint64_t quotes_before = quotes.value();
  const BrokenPricing broken(10.0, std::nan(""));
  const std::vector<query::AccuracySpec> batch{
      {0.05, 0.8}, {0.05, 0.5}, {0.2, 0.5}, {0.05, 0.3}};
  try {
    broken.price_all(batch);
    ADD_FAILURE() << "accepted a NaN quote";
  } catch (const prc::ContractViolation& violation) {
    EXPECT_NE(std::string(violation.what()).find("broken-stub"),
              std::string::npos)
        << violation.what();
  }
  // The two valid quotes ahead of the NaN are not counted either.
  EXPECT_EQ(quotes.value(), quotes_before);
  EXPECT_EQ(prices.snapshot().count, 0u);
  // A valid batch is counted and recorded once per quote.
  const std::vector<double> valid = broken.price_all(
      std::span<const query::AccuracySpec>(batch).first(2));
  EXPECT_EQ(valid, (std::vector<double>{10.0, 10.0}));
  EXPECT_EQ(quotes.value(), quotes_before + 2);
  EXPECT_EQ(prices.snapshot().count, 2u);
}

TEST(InverseVariancePricingTest, UnitExponentEqualsPowBitForBit) {
  // q = 1 skips std::pow; the quote must still be the exact double that
  // base * pow(ratio, 1.0) gives.  The exponent is read through a volatile
  // so the compiler cannot fold the call away.
  const auto m = model();
  const InverseVariancePricing pricing(m, kReference, 50.0, 1.0);
  const volatile double one = 1.0;
  const double reference_variance = m.contract_variance(kReference);
  std::vector<query::AccuracySpec> specs;
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    specs.push_back({rng.uniform(0.001, 1.0), rng.uniform(0.001, 0.999)});
  }
  for (double alpha : {0.001, 0.01, 0.05, 0.1, 0.5, 1.0}) {
    for (double delta : {0.001, 0.1, 0.5, 0.9, 0.999}) {
      specs.push_back({alpha, delta});
    }
  }
  const std::vector<double> batch = pricing.price_all(specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const double ratio = reference_variance / m.contract_variance(specs[i]);
    const double want = 50.0 * std::pow(ratio, static_cast<double>(one));
    EXPECT_EQ(pricing.price(specs[i]), want) << specs[i].to_string();
    EXPECT_EQ(batch[i], want) << specs[i].to_string();
  }
}

// ArbitrageChecker::check as it was before it priced its grid through
// price_all(): the grid cell by cell, row-major, then the properties.
CheckReport reference_check(const VarianceModel& model,
                            const ArbitrageChecker::Grid& grid,
                            const PricingFunction& pricing,
                            std::size_t max_violations) {
  const auto approximately_equal = [](double a, double b) {
    const double scale = std::max({std::abs(a), std::abs(b), 1.0});
    return std::abs(a - b) <= 1e-6 * scale;
  };
  constexpr double kRelTolerance = 1e-9;
  CheckReport report;
  const auto record = [&](PropertyViolation violation) {
    report.arbitrage_avoiding = false;
    if (report.violations.size() < max_violations) {
      report.violations.push_back(std::move(violation));
    }
  };
  std::vector<double> alphas(grid.alpha_steps);
  std::vector<double> deltas(grid.delta_steps);
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    alphas[i] = grid.alpha_min + (grid.alpha_max - grid.alpha_min) *
                                     static_cast<double>(i) /
                                     static_cast<double>(alphas.size() - 1);
  }
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    deltas[i] = grid.delta_min + (grid.delta_max - grid.delta_min) *
                                     static_cast<double>(i) /
                                     static_cast<double>(deltas.size() - 1);
  }
  const auto cell = [&grid](std::size_t i, std::size_t j) {
    return i * grid.delta_steps + j;
  };
  std::vector<double> price_grid(alphas.size() * deltas.size());
  std::vector<double> variance_grid(alphas.size() * deltas.size());
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    for (std::size_t j = 0; j < deltas.size(); ++j) {
      const query::AccuracySpec spec{alphas[i], deltas[j]};
      price_grid[cell(i, j)] = pricing.price(spec);
      variance_grid[cell(i, j)] = model.contract_variance(spec);
    }
  }
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    for (std::size_t j = 0; j < deltas.size(); ++j) {
      const query::AccuracySpec spec{alphas[i], deltas[j]};
      const double v = variance_grid[cell(i, j)];
      const double price_a = price_grid[cell(i, j)];
      for (double other_delta : deltas) {
        if (other_delta == deltas[j]) continue;  // lint:allow float-eq
        const double other_alpha = model.alpha_for_variance(v, other_delta);
        if (!(other_alpha > 0.0) || other_alpha > 1.0) continue;
        const query::AccuracySpec other{other_alpha, other_delta};
        const double price_b = pricing.price(other);
        ++report.checks_performed;
        if (!approximately_equal(price_a, price_b)) {
          record({1, spec, other, price_a, price_b});
        }
      }
    }
  }
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    for (std::size_t j = 0; j + 1 < deltas.size(); ++j) {
      const double pi_lo = price_grid[cell(i, j)];
      const double pi_hi = price_grid[cell(i, j + 1)];
      const double v_lo = variance_grid[cell(i, j)];
      const double v_hi = variance_grid[cell(i, j + 1)];
      const double lhs = (pi_hi - pi_lo) / pi_hi;
      const double rhs = (v_lo - v_hi) / v_lo;
      ++report.checks_performed;
      if (lhs < rhs - kRelTolerance) {
        record({2, {alphas[i], deltas[j]}, {alphas[i], deltas[j + 1]}, lhs,
                rhs});
      }
    }
  }
  for (std::size_t j = 0; j < deltas.size(); ++j) {
    for (std::size_t i = 0; i + 1 < alphas.size(); ++i) {
      const double pi_lo = price_grid[cell(i, j)];
      const double pi_hi = price_grid[cell(i + 1, j)];
      const double v_lo = variance_grid[cell(i, j)];
      const double v_hi = variance_grid[cell(i + 1, j)];
      const double lhs = (pi_lo - pi_hi) / pi_lo;
      const double rhs = (v_hi - v_lo) / v_hi;
      ++report.checks_performed;
      if (lhs > rhs + kRelTolerance) {
        record({3, {alphas[i], deltas[j]}, {alphas[i + 1], deltas[j]}, lhs,
                rhs});
      }
    }
  }
  return report;
}

TEST(ArbitrageCheckerTest, BatchGridMatchesPerCellOrder) {
  const auto m = model();
  ArbitrageChecker::Grid grid;
  grid.alpha_steps = 12;
  grid.delta_steps = 9;
  const ArbitrageChecker checker(m, grid);
  const LinearDiscountPricing linear(5.0, 40.0, 30.0);
  const FittedTheoremPricing fitted(m, 50.0 * m.contract_variance(kReference));
  std::vector<InverseVariancePricing> power;
  for (double q : {0.5, 1.0, 2.0}) power.emplace_back(m, kReference, 50.0, q);
  std::vector<const PricingFunction*> pricings{&linear, &fitted};
  for (const auto& p : power) pricings.push_back(&p);
  for (const PricingFunction* pricing : pricings) {
    SCOPED_TRACE(pricing->name());
    for (const std::size_t cap : {std::size_t{3}, std::size_t{1000}}) {
      RecordingPricing recording(*pricing);
      const CheckReport want = reference_check(m, grid, recording, cap);
      const std::vector<query::AccuracySpec> want_quoted = recording.take();
      const CheckReport got = checker.check(recording, cap);
      const std::vector<query::AccuracySpec> got_quoted = recording.take();
      EXPECT_EQ(got.arbitrage_avoiding, want.arbitrage_avoiding);
      EXPECT_EQ(got.checks_performed, want.checks_performed);
      ASSERT_EQ(got.violations.size(), want.violations.size());
      for (std::size_t i = 0; i < got.violations.size(); ++i) {
        EXPECT_EQ(got.violations[i].to_string(),
                  want.violations[i].to_string());
        EXPECT_EQ(got.violations[i].lhs, want.violations[i].lhs);
        EXPECT_EQ(got.violations[i].rhs, want.violations[i].rhs);
      }
      ASSERT_EQ(got_quoted.size(), want_quoted.size());
      ASSERT_GT(got_quoted.size(), grid.alpha_steps * grid.delta_steps);
      for (std::size_t i = 0; i < got_quoted.size(); ++i) {
        EXPECT_EQ(got_quoted[i].alpha, want_quoted[i].alpha) << "quote " << i;
        EXPECT_EQ(got_quoted[i].delta, want_quoted[i].delta) << "quote " << i;
      }
    }
  }
}

}  // namespace
}  // namespace prc::pricing
