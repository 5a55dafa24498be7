// Arbitrage analysis: numeric verification of Theorem 4.2 and a concrete
// averaging-attack search (the Example 4.1 adversary).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/units.h"
#include "pricing/pricing.h"
#include "query/range_query.h"

namespace prc::pricing {

/// One detected violation of a Theorem 4.2 property.
struct PropertyViolation {
  int property = 0;  // 1, 2 or 3 as numbered in the theorem
  query::AccuracySpec from;
  query::AccuracySpec to;
  double lhs = 0.0;
  double rhs = 0.0;
  std::string to_string() const;
};

/// Result of checking a pricing function over a grid.
struct CheckReport {
  bool arbitrage_avoiding = true;
  std::size_t checks_performed = 0;
  std::vector<PropertyViolation> violations;  // capped, first few only
};

/// Numerically checks the three Theorem 4.2 properties over a dense
/// (alpha, delta) grid:
///   1. equal contract variance  => equal price,
///   2. raising delta:  relative price increase >= relative variance drop,
///   3. raising alpha:  relative price drop <= relative variance increase.
class ArbitrageChecker {
 public:
  struct Grid {
    units::Alpha alpha_min = 0.02, alpha_max = 0.8;
    units::Delta delta_min = 0.05, delta_max = 0.95;
    std::size_t alpha_steps = 24, delta_steps = 24;
  };

  explicit ArbitrageChecker(VarianceModel model);
  ArbitrageChecker(VarianceModel model, Grid grid);

  CheckReport check(const PricingFunction& pricing,
                    std::size_t max_violations = 8) const;

 private:
  VarianceModel model_;
  Grid grid_;
};

/// The Example 4.1 adversary: wants the answer quality of `target` but shops
/// for m >= 2 weaker queries (alpha_i > alpha, delta_i < delta) whose average
/// achieves combined variance (1/m^2) sum V_i <= V(target) at lower total
/// price.
struct AttackResult {
  bool profitable = false;
  double honest_price = 0.0;
  double best_attack_cost = 0.0;  // = honest_price when no attack found
  std::size_t copies = 0;         // m of the best attack (0 when none)
  query::AccuracySpec weaker_spec;  // the contract bought m times
  double combined_variance = 0.0;
  /// Savings ratio: 1 - best_attack_cost / honest_price (0 when no attack).
  double savings() const;
};

class AttackSimulator {
 public:
  struct SearchSpace {
    /// Largest accepted max_copies.  Every copy count fits the search's
    /// 16-bit per-cell copy counts, and its per-m tables stay a few hundred
    /// KiB.
    static constexpr std::size_t kMaxCopiesLimit = std::size_t{1} << 15;

    std::size_t max_copies = 24;  // in [2, kMaxCopiesLimit]
    std::size_t alpha_steps = 40;
    std::size_t delta_steps = 20;
    units::Alpha alpha_max = 0.95;
  };

  explicit AttackSimulator(VarianceModel model);
  AttackSimulator(VarianceModel model, SearchSpace space);

  /// Searches symmetric attacks (m identical weaker queries); symmetric
  /// attacks are optimal for variance-keyed price families because the
  /// constraint sum V_i <= m^2 V and the cost sum psi(V_i) are both
  /// Schur-convex in the V_i.  Asymmetric spot checks are in the tests.
  ///
  /// Cost: arithmetic per admissible cell.  A cell's variance is one
  /// multiply of its row's (alpha n)^2 by its column's (1 - delta) (A + D
  /// validations, not A·D); each row's inadmissible prefix is skipped and
  /// the search stops at the first wholly inadmissible row; each admissible
  /// cell gets its smallest admissible copy count from one division and two
  /// budget comparisons, with no data-dependent branch, and a counting
  /// sort writes the cells straight into quoting order.  Then one
  /// price_all() batch (one virtual call) quotes each admissible cell once
  /// (a scan over every m was O(M·A·D)), with the quote telemetry flushed
  /// once.  The honest quote is one more price() call, made first.  Every
  /// quote is checked positive and finite by price()/price_all();
  /// prc::ContractViolation otherwise.  About 8–10 µs for the default
  /// 40 × 20 lattice on a shared 4-vCPU host (BM_BestAttack).
  AttackResult best_attack(const PricingFunction& pricing,
                           const query::AccuracySpec& target) const;

 private:
  VarianceModel model_;
  SearchSpace space_;
};

}  // namespace prc::pricing
