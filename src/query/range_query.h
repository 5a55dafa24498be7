// Range-counting query types and the customer accuracy contract.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "common/units.h"

namespace prc::query {

/// A closed range [l, u] over the value domain (paper Def. 2.1).
struct RangeQuery {
  double lower = 0.0;
  double upper = 0.0;

  /// Throws std::invalid_argument unless lower <= upper and both are finite.
  void validate() const;

  double width() const noexcept { return upper - lower; }
  bool contains(double x) const noexcept { return lower <= x && x <= upper; }

  std::string to_string() const;
};

/// The (alpha, delta) accuracy contract of Def. 2.2: the returned count must
/// satisfy Pr[|estimate - truth| <= alpha * |D|] >= delta.
struct AccuracySpec {
  units::Alpha alpha = 0.1;
  units::Delta delta = 0.9;

  /// Throws std::invalid_argument unless alpha in (0, 1] and delta in (0, 1).
  /// delta = 1 is rejected because Chebyshev-based guarantees can never reach
  /// probability exactly 1 with finite samples; delta = 0 is rejected because
  /// the contract would be vacuous (any answer satisfies it) and the
  /// optimizer's minimum budget degenerates to 0.
  void validate() const {
    validate_alpha(alpha);
    validate_delta(delta);
  }
  /// The two halves of validate(), for callers that check a lattice's
  /// alphas and deltas once each instead of once per cell.  Inline, so a
  /// batch of quotes validates each spec without a call; only a failure
  /// leaves the caller.
  static void validate_alpha(units::Alpha alpha) {
    if (!(alpha > 0.0 && alpha <= 1.0)) [[unlikely]] reject_alpha(alpha);
  }
  static void validate_delta(units::Delta delta) {
    if (!(delta > 0.0 && delta < 1.0)) [[unlikely]] reject_delta(delta);
  }

  /// True if an answer meeting `other` also meets this spec (other is at
  /// least as strict: alpha' <= alpha and delta' >= delta).
  bool is_implied_by(const AccuracySpec& other) const noexcept;

  std::string to_string() const;

 private:
  // The out-of-line failure paths: each throws prc::ContractViolation
  // naming the value that the inline test rejected.
  static void reject_alpha(units::Alpha alpha);
  static void reject_delta(units::Delta delta);
};

/// Exact count of values in [l, u] over an unsorted multiset (O(n) scan);
/// prefer data::Column::exact_range_count when a sorted copy exists.
std::size_t exact_range_count(std::span<const double> values,
                              const RangeQuery& range);

}  // namespace prc::query
