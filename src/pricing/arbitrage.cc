#include "pricing/arbitrage.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"
#include "common/telemetry.h"
#include "common/trace.h"

namespace prc::pricing {
namespace {

constexpr double kRelTolerance = 1e-9;

bool approximately_equal(double a, double b) {
  const double scale = std::max({std::abs(a), std::abs(b), 1.0});
  return std::abs(a - b) <= 1e-6 * scale;
}

}  // namespace

std::string PropertyViolation::to_string() const {
  std::ostringstream out;
  out << "property " << property << " violated: " << from.to_string() << " -> "
      << to.to_string() << " lhs=" << lhs << " rhs=" << rhs;
  return out.str();
}

ArbitrageChecker::ArbitrageChecker(VarianceModel model)
    : ArbitrageChecker(model, Grid{}) {}

ArbitrageChecker::ArbitrageChecker(VarianceModel model, Grid grid)
    : model_(model), grid_(grid) {
  PRC_CHECK(grid_.alpha_steps >= 2 && grid_.delta_steps >= 2)
      << "checker grid needs >= 2 steps per axis, got alpha_steps="
      << grid_.alpha_steps << " delta_steps=" << grid_.delta_steps;
  PRC_CHECK(grid_.alpha_min > 0.0 && grid_.alpha_min < grid_.alpha_max &&
            grid_.alpha_max <= 1.0)
      << "checker grid needs 0 < alpha_min < alpha_max <= 1";
  PRC_CHECK(grid_.delta_min >= 0.0 && grid_.delta_min < grid_.delta_max &&
            grid_.delta_max < 1.0)
      << "checker grid needs 0 <= delta_min < delta_max < 1";
}

CheckReport ArbitrageChecker::check(const PricingFunction& pricing,
                                    std::size_t max_violations) const {
  static telemetry::Counter& arbitrage_checks =
      telemetry::counter("pricing.arbitrage_checks");
  static telemetry::Counter& grid_checks =
      telemetry::counter("pricing.arbitrage_grid_checks");
  static telemetry::Counter& violations_counter =
      telemetry::counter("pricing.arbitrage_violations");
  PRC_TRACE_SPAN("pricing.arbitrage_check");
  arbitrage_checks.increment();
  CheckReport report;
  const auto record = [&](PropertyViolation violation) {
    report.arbitrage_avoiding = false;
    if (report.violations.size() < max_violations) {
      report.violations.push_back(std::move(violation));
    }
  };

  std::vector<double> alphas(grid_.alpha_steps);
  std::vector<double> deltas(grid_.delta_steps);
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    alphas[i] = grid_.alpha_min + (grid_.alpha_max - grid_.alpha_min) *
                                      static_cast<double>(i) /
                                      static_cast<double>(alphas.size() - 1);
  }
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    deltas[i] = grid_.delta_min + (grid_.delta_max - grid_.delta_min) *
                                      static_cast<double>(i) /
                                      static_cast<double>(deltas.size() - 1);
  }

  // Every property below prices and re-prices the same grid cells; quote
  // each cell ONCE up front, in one row-major batch, and index into the
  // vectors.  Pricing functions are pure in (alpha, delta), so the
  // precomputed doubles are the exact values the per-cell calls produced.
  const auto cell = [this](std::size_t i, std::size_t j) {
    return i * grid_.delta_steps + j;
  };
  std::vector<query::AccuracySpec> grid_specs;
  grid_specs.reserve(alphas.size() * deltas.size());
  std::vector<double> variance_grid;
  variance_grid.reserve(alphas.size() * deltas.size());
  for (const double alpha : alphas) {
    for (const double delta : deltas) {
      grid_specs.push_back({alpha, delta});
      variance_grid.push_back(model_.contract_variance(grid_specs.back()));
    }
  }
  const std::vector<double> price_grid = pricing.price_all(grid_specs);

  // Property 1: contracts with identical variance must have identical price.
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    for (std::size_t j = 0; j < deltas.size(); ++j) {
      const query::AccuracySpec spec{alphas[i], deltas[j]};
      const double v = variance_grid[cell(i, j)];
      const double price_a = price_grid[cell(i, j)];
      for (double other_delta : deltas) {
        // Exact copies from the same grid vector, so identity compare
        // is the intended duplicate filter.
        if (other_delta == deltas[j]) continue;  // lint:allow float-eq
        const double other_alpha = model_.alpha_for_variance(v, other_delta);
        if (!(other_alpha > 0.0) || other_alpha > 1.0) continue;
        // `other` sits off the grid (its alpha solves the iso-variance
        // equation), so it is the one contract this loop still prices
        // directly.
        const query::AccuracySpec other{other_alpha, other_delta};
        const double price_b = pricing.price(other);
        ++report.checks_performed;
        if (!approximately_equal(price_a, price_b)) {
          record({1, spec, other, price_a, price_b});
        }
      }
    }
  }

  // Property 2: raising delta — relative price increase must cover the
  // relative variance decrease.
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    for (std::size_t j = 0; j + 1 < deltas.size(); ++j) {
      const query::AccuracySpec lo{alphas[i], deltas[j]};
      const query::AccuracySpec hi{alphas[i], deltas[j + 1]};
      const double pi_lo = price_grid[cell(i, j)];
      const double pi_hi = price_grid[cell(i, j + 1)];
      const double v_lo = variance_grid[cell(i, j)];
      const double v_hi = variance_grid[cell(i, j + 1)];
      const double lhs = (pi_hi - pi_lo) / pi_hi;
      const double rhs = (v_lo - v_hi) / v_lo;
      ++report.checks_performed;
      if (lhs < rhs - kRelTolerance) record({2, lo, hi, lhs, rhs});
    }
  }

  // Property 3: raising alpha — relative price drop must not exceed the
  // relative variance increase.
  for (std::size_t j = 0; j < deltas.size(); ++j) {
    for (std::size_t i = 0; i + 1 < alphas.size(); ++i) {
      const query::AccuracySpec lo{alphas[i], deltas[j]};
      const query::AccuracySpec hi{alphas[i + 1], deltas[j]};
      const double pi_lo = price_grid[cell(i, j)];
      const double pi_hi = price_grid[cell(i + 1, j)];
      const double v_lo = variance_grid[cell(i, j)];
      const double v_hi = variance_grid[cell(i + 1, j)];
      const double lhs = (pi_lo - pi_hi) / pi_lo;
      const double rhs = (v_hi - v_lo) / v_hi;
      ++report.checks_performed;
      if (lhs > rhs + kRelTolerance) record({3, lo, hi, lhs, rhs});
    }
  }
  grid_checks.increment(report.checks_performed);
  if (!report.arbitrage_avoiding) {
    violations_counter.increment(report.violations.size());
  }
  return report;
}

double AttackResult::savings() const {
  if (!profitable || honest_price <= 0.0) return 0.0;
  return 1.0 - best_attack_cost / honest_price;
}

AttackSimulator::AttackSimulator(VarianceModel model)
    : AttackSimulator(model, SearchSpace{}) {}

AttackSimulator::AttackSimulator(VarianceModel model, SearchSpace space)
    : model_(model), space_(space) {
  PRC_CHECK(space_.max_copies >= 2 && space_.alpha_steps >= 2 &&
            space_.delta_steps >= 1)
      << "attack search space too small";
  PRC_CHECK(space_.alpha_max > 0.0 && space_.alpha_max <= 1.0)
      << "alpha_max must be in (0, 1], got " << space_.alpha_max;
}

AttackResult AttackSimulator::best_attack(
    const PricingFunction& pricing, const query::AccuracySpec& target) const {
  static telemetry::Counter& quote_cache_hits =
      telemetry::counter("pricing.attack_quote_cache_hits");
  target.validate();
  // The single pass below is exact only for positive quotes; price() and
  // price_all() reject any other quote, naming the pricing function.
  AttackResult result;
  result.honest_price = pricing.price(target);
  result.best_attack_cost = result.honest_price;
  const double target_variance = model_.contract_variance(target);

  // A quote pi > 0 makes the cost m * pi strictly increasing in m, so a
  // cell can only win at m_min, the smallest copy count whose variance
  // budget admits it; every larger m re-quotes it at a higher cost.  Lay
  // the (alpha_w, delta_w) lattice out once, give each cell its m_min, and
  // counting-sort the admissible cells by (m_min, lattice index): that is
  // the order in which a scan over m = 2..max_copies first touches each
  // cell, so pricing them in one batch in that order with the same strict
  // `<` makes the same price() calls and keeps the same winner and
  // tie-breaks.
  //
  // A cell's variance is its row's (alpha_w n)^2 times its column's
  // (1 - delta_w), the factors contract_variance multiplies, so each
  // alpha_w and delta_w is validated once rather than once per cell.
  std::vector<double> deltas;
  std::vector<double> delta_factors;
  deltas.reserve(space_.delta_steps);
  delta_factors.reserve(space_.delta_steps);
  for (std::size_t di = 1; di <= space_.delta_steps; ++di) {
    const double delta_w = target.delta * static_cast<double>(di) /
                           static_cast<double>(space_.delta_steps + 1);
    if (!(delta_w > 0.0) || !(delta_w < target.delta)) continue;
    deltas.push_back(delta_w);
    delta_factors.push_back(model_.delta_factor(delta_w));
  }
  struct Cell {
    query::AccuracySpec spec;
    double variance = 0.0;
    std::size_t copies = 0;  // m_min
  };
  const std::size_t max_copies = space_.max_copies;
  std::vector<Cell> cells;
  cells.reserve(space_.alpha_steps * deltas.size());
  // first[m] counts, then indexes, the cells whose m_min is m.
  std::vector<std::size_t> first(max_copies + 2, 0);
  std::size_t revisits = 0;
  // A cell is admissible at m when V_w <= budget[m] = m * V(target).
  std::vector<double> budget(max_copies + 1);
  for (std::size_t m = 0; m <= max_copies; ++m) {
    budget[m] = static_cast<double>(m) * target_variance;
  }
  for (std::size_t ai = 1; ai <= space_.alpha_steps; ++ai) {
    const double alpha_w =
        target.alpha + (space_.alpha_max - target.alpha) *
                           static_cast<double>(ai) /
                           static_cast<double>(space_.alpha_steps);
    if (!(alpha_w > target.alpha) || alpha_w > 1.0) continue;
    const double alpha_factor = model_.alpha_factor(alpha_w);
    // Along a row delta_w rises, so V_w never rises and neither does m_min:
    // walk it down from the previous cell's with the exact budget
    // comparison.  Starting above max_copies skips the row's leading cells,
    // whose average is too noisy at every m.
    std::size_t m = max_copies + 1;
    for (std::size_t j = 0; j < deltas.size(); ++j) {
      const double variance = alpha_factor * delta_factors[j];
      while (m > 2 && !(variance > budget[m - 1])) --m;
      if (m > max_copies) continue;
      cells.push_back({{alpha_w, deltas[j]}, variance, m});
      ++first[m + 1];
      revisits += max_copies - m;
    }
  }
  for (std::size_t m = 3; m <= max_copies + 1; ++m) first[m] += first[m - 1];
  std::vector<const Cell*> order(cells.size());
  for (const Cell& c : cells) order[first[c.copies]++] = &c;
  std::vector<query::AccuracySpec> specs;
  specs.reserve(order.size());
  for (const Cell* c : order) specs.push_back(c->spec);
  const std::vector<double> quotes = pricing.price_all(specs);

  for (std::size_t i = 0; i < order.size(); ++i) {
    const Cell& c = *order[i];
    const double cost = static_cast<double>(c.copies) * quotes[i];
    if (cost < result.best_attack_cost) {
      result.best_attack_cost = cost;
      result.copies = c.copies;
      result.weaker_spec = c.spec;
      result.combined_variance = c.variance / static_cast<double>(c.copies);
    }
  }
  // The counter reports the (cell, m) pairs past each cell's m_min: the
  // re-quotes a scan over every m would have made, which this pass skips.
  quote_cache_hits.increment(revisits);
  result.profitable =
      result.best_attack_cost < result.honest_price * (1.0 - 1e-9);
  if (!result.profitable) {
    result.best_attack_cost = result.honest_price;
    result.copies = 0;
    result.combined_variance = target_variance;
  }
  return result;
}

}  // namespace prc::pricing
