#include "query/range_query.h"

#include <cmath>
#include <sstream>

#include "common/check.h"

namespace prc::query {

void RangeQuery::validate() const {
  PRC_CHECK_FINITE(lower);
  PRC_CHECK_FINITE(upper);
  PRC_CHECK(lower <= upper) << "range [" << lower << ", " << upper
                            << "] requires lower <= upper";
}

std::string RangeQuery::to_string() const {
  std::ostringstream out;
  out << '[' << lower << ", " << upper << ']';
  return out.str();
}

void AccuracySpec::reject_alpha(units::Alpha alpha) {
  PRC_CHECK(std::isfinite(alpha) && alpha > 0.0 && alpha <= 1.0)
      << "alpha must be in (0, 1], got " << alpha;
}

void AccuracySpec::reject_delta(units::Delta delta) {
  PRC_CHECK(std::isfinite(delta) && delta > 0.0 && delta < 1.0)
      << "delta must be in (0, 1), got " << delta;
}

bool AccuracySpec::is_implied_by(const AccuracySpec& other) const noexcept {
  return other.alpha <= alpha && other.delta >= delta;
}

std::string AccuracySpec::to_string() const {
  std::ostringstream out;
  out << "(alpha=" << alpha << ", delta=" << delta << ')';
  return out.str();
}

std::size_t exact_range_count(std::span<const double> values,
                              const RangeQuery& range) {
  std::size_t count = 0;
  for (double v : values) {
    if (range.contains(v)) ++count;
  }
  return count;
}

}  // namespace prc::query
