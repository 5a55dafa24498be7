// Pricing functions for (alpha, delta)-range counting services.
//
// Theorem 4.2 characterizes arbitrage-avoiding prices: pi = psi(V) (Lemma
// 4.1), plus two relative-difference inequalities that together say the
// product psi(V) * V must be non-decreasing both when V falls (raising
// delta, property 2) and when V rises (raising alpha, property 3) — i.e.
// psi(V) * V is constant, pinning the family to psi(V) = c / V.
//
// The power family psi(V) = c (V_ref / V)^q makes all the regimes concrete:
//   q = 1  — the Theorem 4.2 family; averaging attacks exactly break even.
//   q > 1  — price decays faster than 1/V; property 3 fails and the
//            Example 4.1 averaging attack strictly profits (buy m weak
//            queries with V_i = m V: cost = pi / m^{q-1} < pi).
//   q < 1  — price decays slower than 1/V; the averaging attack never
//            profits, but property 2 fails: the theorem's characterization
//            is strictly stronger than immunity to the simple averaging
//            adversary (the broker over-discounts confidence upgrades).
// A deliberately naive linear "discount sheet" price is included as the
// not-variance-keyed baseline (violates property 1).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pricing/variance_model.h"
#include "query/range_query.h"

namespace prc::pricing {

/// Interface for a pricing function pi(alpha, delta).
///
/// An implementation supplies the formula, evaluate(), over a batch of
/// specs; callers quote through price() (a batch of one) or price_all(),
/// which own what every quote shares: the check that each price is
/// positive and finite (a violation throws prc::ContractViolation naming
/// the function, before any price of the batch reaches a metric), the
/// `pricing.quotes` count and the `pricing.price` histogram.
class PricingFunction {
 public:
  virtual ~PricingFunction() = default;

  /// Price of one (alpha, delta) query: evaluate() on a batch of one,
  /// checked and recorded.
  double price(const query::AccuracySpec& spec) const;

  /// The prices of `specs`, in order: the values and telemetry of one
  /// price() call per spec (the same quoted spec sequence, the same quote
  /// count, the same histogram count, sum, min, max and buckets), with one
  /// evaluate() call and the telemetry flushed once for the batch.  When a
  /// quote fails its check, the batch throws and records nothing.
  std::vector<double> price_all(
      std::span<const query::AccuracySpec> specs) const;

  /// The bare formula: writes the price of specs[i] to prices[i] (the two
  /// spans have equal sizes), validating each spec, with no price check
  /// and no telemetry.  Wrappers forward to it; everything else quotes
  /// through price() or price_all().
  virtual void evaluate(std::span<const query::AccuracySpec> specs,
                        std::span<double> prices) const = 0;

  virtual std::string name() const = 0;

 private:
  // evaluate(), then the checks and telemetry price() and price_all()
  // share.
  void quote(std::span<const query::AccuracySpec> specs,
             std::span<double> prices) const;
};

/// Contract audit for a pricing function that claims to sit in the
/// Theorem 4.2 family psi(V) = c / V.  Evaluates a coarse (alpha, delta)
/// grid and PRC_CHECKs the q = 1 arbitrage conditions:
///   - V(alpha, delta) is positive, finite, strictly increasing in alpha
///     and strictly decreasing in delta (the Chebyshev contract variance
///     monotonicity the theorem manipulates);
///   - every price is positive and finite;
///   - psi(V) * V is constant across the grid (relative spread <= 1e-6),
///     which is exactly properties 2 + 3 holding with equality.
/// Called automatically whenever a theorem-family menu is constructed
/// (FittedTheoremPricing, InverseVariancePricing with exponent == 1, and
/// fit_theorem_pricing).  Throws prc::ContractViolation on failure, so it
/// doubles as an explicit guard for hand-built menus.
void validate_arbitrage_conditions(const VarianceModel& model,
                                   const PricingFunction& pricing);

/// The power family psi(V) = base_price * (reference_variance / V)^exponent.
/// Arbitrage-avoiding (per Theorem 4.2) exactly when exponent == 1; other
/// exponents are constructible on purpose so the checker and attack
/// simulator can exercise the failure modes.
class InverseVariancePricing final : public PricingFunction {
 public:
  /// `reference_spec` anchors the scale: price(reference_spec) == base_price.
  /// Requires base_price > 0 and exponent > 0.
  InverseVariancePricing(VarianceModel model,
                         query::AccuracySpec reference_spec, double base_price,
                         double exponent = 1.0);

  void evaluate(std::span<const query::AccuracySpec> specs,
                std::span<double> prices) const override;
  std::string name() const override;

  double exponent() const noexcept { return exponent_; }
  const VarianceModel& model() const noexcept { return model_; }

 private:
  VarianceModel model_;
  double reference_variance_;
  double base_price_;
  double exponent_;
};

/// Naive "discount sheet" pricing: linear in accuracy and confidence,
/// ignoring the variance geometry.  Monotone in the intuitive directions
/// (cheaper for larger alpha, pricier for larger delta) but not a function
/// of the variance, so it violates Theorem 4.2 property 1: two contracts
/// with identical variance get different prices, and the cheaper one
/// dominates the dearer.
class LinearDiscountPricing final : public PricingFunction {
 public:
  /// price = base + accuracy_rate * (1 - alpha) + confidence_rate * delta.
  LinearDiscountPricing(double base, double accuracy_rate,
                        double confidence_rate);

  void evaluate(std::span<const query::AccuracySpec> specs,
                std::span<double> prices) const override;
  std::string name() const override;

 private:
  double base_;
  double accuracy_rate_;
  double confidence_rate_;
};

/// Fits the best Theorem 4.2 pricing under a hand-authored price menu.
///
/// Brokers typically start from a menu of (contract, price) points chosen
/// by the business; an arbitrary menu is almost never arbitrage-avoiding.
/// This helper finds the revenue-maximal member of the theorem family
/// psi(V) = c / V that never charges MORE than the menu does at any menu
/// point (so published prices remain honored):  c = min_i pi_i * V_i.
/// Returns the fitted function plus the worst-case relative revenue
/// concession versus the menu.
struct MenuFit {
  /// The fitted scalar c of psi(V) = c / V.
  double scale = 0.0;
  /// max_i (menu_i - c/V_i) / menu_i — how much the repair undercuts the
  /// menu at its most-discounted point (0 means the menu was already in the
  /// family).
  double max_relative_concession = 0.0;
};

/// Requires a non-empty menu with positive prices.  `model` supplies
/// V(alpha, delta).
MenuFit fit_theorem_pricing(
    const VarianceModel& model,
    const std::vector<std::pair<query::AccuracySpec, double>>& menu);

/// A PricingFunction over a fitted scale: psi(V) = scale / V.
class FittedTheoremPricing final : public PricingFunction {
 public:
  FittedTheoremPricing(VarianceModel model, double scale);

  void evaluate(std::span<const query::AccuracySpec> specs,
                std::span<double> prices) const override;
  std::string name() const override;

 private:
  VarianceModel model_;
  double scale_;
};

}  // namespace prc::pricing
