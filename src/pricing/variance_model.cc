#include "pricing/variance_model.h"

#include <cmath>

#include "common/check.h"

namespace prc::pricing {
namespace {

// The two factors of V(alpha, delta) = (alpha n)^2 (1 - delta): every
// contract variance the model reports is their product, in this order.
double squared_scale(units::Alpha alpha, std::size_t n) {
  const double scaled = alpha * static_cast<double>(n);
  return scaled * scaled;
}

double confidence_slack(units::Delta delta) { return 1.0 - delta; }

}  // namespace

VarianceModel::VarianceModel(std::size_t total_count, std::size_t node_count)
    : total_count_(total_count), node_count_(node_count) {
  PRC_CHECK(total_count > 0 && node_count > 0)
      << "variance model needs n > 0 and k > 0, got n=" << total_count
      << " k=" << node_count;
}

double VarianceModel::contract_variance(
    const query::AccuracySpec& spec) const {
  spec.validate();
  const double variance =
      squared_scale(spec.alpha, total_count_) * confidence_slack(spec.delta);
  // V(alpha, delta) = (alpha n)^2 (1 - delta) is strictly positive on the
  // valid spec domain; a zero or infinite variance would poison every
  // psi(V) = c/V price downstream.
  PRC_DCHECK(std::isfinite(variance) && variance > 0.0)
      << "contract variance must be positive and finite, got " << variance
      << " for " << spec.to_string();
  return variance;
}

double VarianceModel::alpha_factor(units::Alpha alpha) const {
  query::AccuracySpec::validate_alpha(alpha);
  return squared_scale(alpha, total_count_);
}

double VarianceModel::delta_factor(units::Delta delta) const {
  query::AccuracySpec::validate_delta(delta);
  return confidence_slack(delta);
}

units::Alpha VarianceModel::alpha_for_variance(double variance,
                                               units::Delta delta) const {
  PRC_CHECK(std::isfinite(variance) && variance > 0.0)
      << "variance must be positive, got " << variance;
  PRC_CHECK(delta >= 0.0 && delta < 1.0)
      << "delta must be in [0, 1), got " << delta;
  return std::sqrt(variance / (1.0 - delta)) /
         static_cast<double>(total_count_);
}

double VarianceModel::plan_variance(const dp::PerturbationPlan& plan) const {
  return plan.total_variance(node_count_);
}

}  // namespace prc::pricing
