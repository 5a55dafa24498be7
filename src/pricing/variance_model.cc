#include "pricing/variance_model.h"

#include <cmath>

#include "common/check.h"

namespace prc::pricing {

VarianceModel::VarianceModel(std::size_t total_count, std::size_t node_count)
    : total_count_(total_count), node_count_(node_count) {
  PRC_CHECK(total_count > 0 && node_count > 0)
      << "variance model needs n > 0 and k > 0, got n=" << total_count
      << " k=" << node_count;
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
