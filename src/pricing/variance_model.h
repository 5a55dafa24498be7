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

#include <cstddef>

#include "dp/optimizer.h"
#include "query/range_query.h"

namespace prc::pricing {

class VarianceModel {
 public:
  /// `total_count` is |D| = n; `node_count` is k (used for plan variance).
  VarianceModel(std::size_t total_count, std::size_t node_count);

  std::size_t total_count() const noexcept { return total_count_; }
  std::size_t node_count() const noexcept { return node_count_; }

  /// Canonical contract variance (alpha n)^2 (1 - delta).
  double contract_variance(const query::AccuracySpec& spec) const;

  /// The two factors of contract_variance, for callers that lay out an
  /// (alpha, delta) lattice: a row's (alpha n)^2 and a column's (1 - delta).
  /// alpha_factor(a) * delta_factor(d) == contract_variance({a, d}) bit for
  /// bit.  Each validates its argument as AccuracySpec::validate does.
  double alpha_factor(units::Alpha alpha) const;
  double delta_factor(units::Delta delta) const;

  /// Inverse along the alpha axis: the alpha for which contract_variance
  /// equals `variance` at confidence `delta`.
  units::Alpha alpha_for_variance(double variance, units::Delta delta) const;

  /// Realized variance of a concrete plan: 8k/p^2 + 2 (sens/eps)^2.
  double plan_variance(const dp::PerturbationPlan& plan) const;

 private:
  std::size_t total_count_;
  std::size_t node_count_;
};

}  // namespace prc::pricing
