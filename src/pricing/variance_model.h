// The variance function V(alpha, delta) that prices are keyed on.
//
// Lemma 4.1 shows an arbitrage-avoiding price must be a function of the
// answer's variance alone.  The canonical contract variance used here is the
// Chebyshev-matching level
//     V(alpha, delta) = (alpha n)^2 (1 - delta),
// i.e. the largest variance at which Chebyshev still certifies
// Pr[|X - E X| <= alpha n] >= delta.  It is the natural "variance sold" for a
// contract: strictly increasing in alpha, strictly decreasing in delta —
// exactly the monotonicity Theorem 4.2 manipulates.  The model can also
// evaluate the *realized* variance of a concrete PerturbationPlan (sampling
// bound + Laplace variance) for the empirical pricing benches.
#pragma once

#include <cmath>
#include <cstddef>

#include "common/check.h"
#include "dp/optimizer.h"
#include "query/range_query.h"

namespace prc::pricing {

class VarianceModel {
 public:
  /// `total_count` is |D| = n; `node_count` is k (used for plan variance).
  VarianceModel(std::size_t total_count, std::size_t node_count);

  std::size_t total_count() const noexcept { return total_count_; }
  std::size_t node_count() const noexcept { return node_count_; }

  /// Canonical contract variance (alpha n)^2 (1 - delta).  Inline: every
  /// quote of a variance-keyed price computes it.
  double contract_variance(const query::AccuracySpec& spec) const {
    spec.validate();
    const double variance =
        squared_scale(spec.alpha) * confidence_slack(spec.delta);
    // V(alpha, delta) is strictly positive on the valid spec domain; a zero
    // or infinite variance would poison every psi(V) = c/V price downstream.
    PRC_DCHECK(std::isfinite(variance) && variance > 0.0)
        << "contract variance must be positive and finite, got " << variance
        << " for " << spec.to_string();
    return variance;
  }

  /// The two factors of contract_variance, for callers that lay out an
  /// (alpha, delta) lattice: a row's (alpha n)^2 and a column's (1 - delta).
  /// alpha_factor(a) * delta_factor(d) == contract_variance({a, d}) bit for
  /// bit.  Each validates its argument as AccuracySpec::validate does.
  double alpha_factor(units::Alpha alpha) const {
    query::AccuracySpec::validate_alpha(alpha);
    return squared_scale(alpha);
  }
  double delta_factor(units::Delta delta) const {
    query::AccuracySpec::validate_delta(delta);
    return confidence_slack(delta);
  }

  /// Inverse along the alpha axis: the alpha for which contract_variance
  /// equals `variance` at confidence `delta`.
  units::Alpha alpha_for_variance(double variance, units::Delta delta) const;

  /// Realized variance of a concrete plan: 8k/p^2 + 2 (sens/eps)^2.
  double plan_variance(const dp::PerturbationPlan& plan) const;

 private:
  // The two factors of V(alpha, delta) = (alpha n)^2 (1 - delta): every
  // contract variance the model reports is their product, in this order.
  double squared_scale(units::Alpha alpha) const {
    const double scaled = alpha * static_cast<double>(total_count_);
    return scaled * scaled;
  }
  static double confidence_slack(units::Delta delta) { return 1.0 - delta; }

  std::size_t total_count_;
  std::size_t node_count_;
};

}  // namespace prc::pricing
