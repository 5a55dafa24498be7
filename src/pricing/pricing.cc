#include "pricing/pricing.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "common/telemetry.h"

namespace prc::pricing {
namespace {

// Coarse audit grid; deliberately smaller than ArbitrageChecker's default
// so the re-validation cost on every menu construction stays negligible.
constexpr double kAuditAlpha[] = {0.05, 0.2, 0.5, 0.9};
constexpr double kAuditDelta[] = {0.05, 0.3, 0.6, 0.9};

// Quoting is the attacker grid search's inner loop; cache the registry
// lookups (name hash + registry lock) once per process.
telemetry::Counter& quote_counter() {
  static telemetry::Counter& quotes = telemetry::counter("pricing.quotes");
  return quotes;
}

telemetry::Histogram& price_histogram() {
  static telemetry::Histogram& prices = telemetry::histogram("pricing.price");
  return prices;
}

}  // namespace

void PricingFunction::quote(std::span<const query::AccuracySpec> specs,
                            std::span<double> prices) const {
  evaluate(specs, prices);
  // A finite positive price is one in (0, DBL_MAX]; NaN fails both sides.
  bool all_valid = true;
  for (const double price : prices) {
    all_valid &=
        (price > 0.0) & (price <= std::numeric_limits<double>::max());
  }
  if (!all_valid) [[unlikely]] {
    for (std::size_t i = 0; i < prices.size(); ++i) {
      PRC_CHECK(std::isfinite(prices[i]) && prices[i] > 0.0)
          << name() << " quoted " << prices[i] << " for "
          << specs[i].to_string() << "; a price must be positive and finite";
    }
  }
  quote_counter().increment(prices.size());
  price_histogram().record_all(prices);
}

double PricingFunction::price(const query::AccuracySpec& spec) const {
  double price = 0.0;
  quote({&spec, 1}, {&price, 1});
  return price;
}

std::vector<double> PricingFunction::price_all(
    std::span<const query::AccuracySpec> specs) const {
  std::vector<double> prices(specs.size());
  quote(specs, prices);
  return prices;
}

void validate_arbitrage_conditions(const VarianceModel& model,
                                   const PricingFunction& pricing) {
  telemetry::counter("pricing.menu_validations").increment();
  double product_min = std::numeric_limits<double>::infinity();
  double product_max = 0.0;
  double prev_v_alpha = 0.0;
  for (double alpha : kAuditAlpha) {
    // Monotonicity in alpha at fixed delta (first audit delta).
    const double v_alpha =
        model.contract_variance(query::AccuracySpec{alpha, kAuditDelta[0]});
    PRC_CHECK(v_alpha > prev_v_alpha)
        << "V(alpha, delta) must be strictly increasing in alpha; "
        << "V(" << alpha << ") = " << v_alpha << " <= " << prev_v_alpha;
    prev_v_alpha = v_alpha;
    double prev_v_delta = std::numeric_limits<double>::infinity();
    for (double delta : kAuditDelta) {
      const query::AccuracySpec spec{alpha, delta};
      const double v = model.contract_variance(spec);
      PRC_CHECK(std::isfinite(v) && v > 0.0)
          << "contract variance must be positive at " << spec.to_string()
          << ", got " << v;
      PRC_CHECK(v < prev_v_delta)
          << "V(alpha, delta) must be strictly decreasing in delta at "
          << spec.to_string();
      prev_v_delta = v;
      const double price = pricing.price(spec);
      const double product = price * v;
      product_min = std::min(product_min, product);
      product_max = std::max(product_max, product);
    }
  }
  // Theorem 4.2: psi(V) * V constant <=> properties 2 and 3 hold with
  // equality, i.e. the averaging adversary exactly breaks even.
  PRC_CHECK(product_max - product_min <= 1e-6 * product_max)
      << pricing.name() << " is not in the psi(V) = c/V family: "
      << "psi(V)*V spans [" << product_min << ", " << product_max << "]";
}

InverseVariancePricing::InverseVariancePricing(
    VarianceModel model, query::AccuracySpec reference_spec, double base_price,
    double exponent)
    : model_(model),
      reference_variance_(model.contract_variance(reference_spec)),
      base_price_(base_price),
      exponent_(exponent) {
  PRC_CHECK(std::isfinite(base_price) && base_price > 0.0)
      << "base price must be positive, got " << base_price;
  PRC_CHECK(std::isfinite(exponent) && exponent > 0.0)
      << "exponent must be positive, got " << exponent;
  // Only q == 1 claims membership in the arbitrage-avoiding family; the
  // other exponents exist to exercise the failure modes and are exempt.
  if (exponent_ == 1.0) validate_arbitrage_conditions(model_, *this);
}

void InverseVariancePricing::evaluate(
    std::span<const query::AccuracySpec> specs,
    std::span<double> prices) const {
  // glibc's pow(x, 1.0) is exactly x, so the theorem family (q = 1) skips
  // the call; a pricing test pins the equality bit for bit.
  const bool unit_exponent = exponent_ == 1.0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const double ratio =
        reference_variance_ / model_.contract_variance(specs[i]);
    prices[i] = base_price_ *
                (unit_exponent ? ratio : std::pow(ratio, exponent_));
  }
}

std::string InverseVariancePricing::name() const {
  std::ostringstream out;
  out << "inverse-variance(q=" << exponent_ << ')';
  return out.str();
}

LinearDiscountPricing::LinearDiscountPricing(double base, double accuracy_rate,
                                             double confidence_rate)
    : base_(base),
      accuracy_rate_(accuracy_rate),
      confidence_rate_(confidence_rate) {
  PRC_CHECK(base > 0.0 && accuracy_rate >= 0.0 && confidence_rate >= 0.0)
      << "linear pricing needs base > 0, rates >= 0";
}

void LinearDiscountPricing::evaluate(
    std::span<const query::AccuracySpec> specs,
    std::span<double> prices) const {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].validate();
    prices[i] = base_ + accuracy_rate_ * (1.0 - specs[i].alpha) +
                confidence_rate_ * specs[i].delta;
  }
}

std::string LinearDiscountPricing::name() const { return "linear-discount"; }

MenuFit fit_theorem_pricing(
    const VarianceModel& model,
    const std::vector<std::pair<query::AccuracySpec, double>>& menu) {
  PRC_CHECK(!menu.empty()) << "empty price menu";
  MenuFit fit;
  fit.scale = std::numeric_limits<double>::infinity();
  for (const auto& [spec, price] : menu) {
    PRC_CHECK(std::isfinite(price) && price > 0.0)
        << "menu prices must be positive, got " << price << " at "
        << spec.to_string();
    fit.scale = std::min(fit.scale, price * model.contract_variance(spec));
  }
  for (const auto& [spec, price] : menu) {
    const double fitted = fit.scale / model.contract_variance(spec);
    fit.max_relative_concession = std::max(
        fit.max_relative_concession, (price - fitted) / price);
  }
  PRC_CHECK(std::isfinite(fit.scale) && fit.scale > 0.0)
      << "fitted menu scale must be positive and finite, got " << fit.scale;
  // Materializing the fitted function runs validate_arbitrage_conditions in
  // its constructor, so every repaired menu re-proves Theorem 4.2 before
  // the fit is handed back.
  (void)FittedTheoremPricing(model, fit.scale);
  return fit;
}

FittedTheoremPricing::FittedTheoremPricing(VarianceModel model, double scale)
    : model_(model), scale_(scale) {
  PRC_CHECK(std::isfinite(scale) && scale > 0.0)
      << "scale must be positive, got " << scale;
  // Every fitted menu re-proves its own arbitrage-freeness on construction.
  validate_arbitrage_conditions(model_, *this);
}

void FittedTheoremPricing::evaluate(
    std::span<const query::AccuracySpec> specs,
    std::span<double> prices) const {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    prices[i] = scale_ / model_.contract_variance(specs[i]);
  }
}

std::string FittedTheoremPricing::name() const {
  return "fitted-theorem(c/V)";
}

}  // namespace prc::pricing
