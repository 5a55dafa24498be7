#include "pricing/arbitrage.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
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
  PRC_CHECK(space_.max_copies <= SearchSpace::kMaxCopiesLimit)
      << "max_copies must be at most " << SearchSpace::kMaxCopiesLimit
      << ", got " << space_.max_copies;
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
  // `<` makes the same quotes and keeps the same winner and tie-breaks.
  //
  // A cell's variance is its row's (alpha_w n)^2 times its column's
  // (1 - delta_w), the factors contract_variance multiplies, so each
  // alpha_w and delta_w is validated once rather than once per cell.
  struct Line {
    double value;   // alpha_w of a row, delta_w of a column
    double factor;  // its factor of the cell variance
  };
  std::vector<Line> columns;
  columns.reserve(space_.delta_steps);
  for (std::size_t di = 1; di <= space_.delta_steps; ++di) {
    const double delta_w = target.delta * static_cast<double>(di) /
                           static_cast<double>(space_.delta_steps + 1);
    if (!(delta_w > 0.0) || !(delta_w < target.delta)) continue;
    columns.push_back({delta_w, model_.delta_factor(delta_w)});
  }
  std::vector<Line> rows;
  rows.reserve(space_.alpha_steps);
  for (std::size_t ai = 1; ai <= space_.alpha_steps; ++ai) {
    const double alpha_w =
        target.alpha + (space_.alpha_max - target.alpha) *
                           static_cast<double>(ai) /
                           static_cast<double>(space_.alpha_steps);
    if (!(alpha_w > target.alpha) || alpha_w > 1.0) continue;
    rows.push_back({alpha_w, model_.alpha_factor(alpha_w)});
  }

  // A cell is admissible at m when V_w <= budget[m] = m * V(target).
  // budget is non-decreasing in m, so whether a cell is admissible at all
  // is one comparison with budget[max_copies], and its m_min is the one
  // m >= 2 with V_w > budget[m - 1] (or m = 2) and V_w <= budget[m].
  const std::size_t max_copies = space_.max_copies;
  std::vector<double> budget(max_copies + 2);
  for (std::size_t m = 1; m <= max_copies + 1; ++m) {
    budget[m] = static_cast<double>(m) * target_variance;
  }
  const double widest = budget[max_copies];
  const double ratio_cap = static_cast<double>(max_copies + 1);
  // v / V(target) is taken as v times a reciprocal.  A target variance below
  // 2^-500 is first scaled by 2^600, and v with it (exact: a power of two;
  // an admissible v is at most max_copies times the target's), so that the
  // reciprocal cannot overflow.
  const double scale = target_variance < 0x1p-500 ? 0x1p600 : 1.0;
  const double inverse = 1.0 / (target_variance * scale);
  // m_min of an admissible cell with variance v.  c = ceil(v / V(target))
  // differs from it by at most one copy: the estimated ratio carries two
  // roundings (reciprocal and product) and each budget product one, each
  // relative <= 2^-53, and c stays far below 2^50 (kMaxCopiesLimit bounds
  // it).  So two exact comparisons pick m_min from {c - 1, c, c + 1}
  // without a branch.  The ratio is clamped to [2, max_copies + 1] first,
  // which keeps the reads inside budget and sends 0 * inf (an underflowed
  // variance) to 2; the ceiling of the clamped ratio is its truncation plus
  // one unless it is already whole.
  const auto copies_of = [&](double v) {
    const double ratio =
        std::min(std::max(2.0, (v * scale) * inverse), ratio_cap);
    const auto whole = static_cast<std::int64_t>(ratio);
    const auto c = static_cast<std::size_t>(
        whole + static_cast<std::int64_t>(static_cast<double>(whole) < ratio));
    const std::size_t m = c - 1 + static_cast<std::size_t>(v > budget[c - 1]) +
                          static_cast<std::size_t>(v > budget[c]);
    return std::max<std::size_t>(m, 2);
  };

  // Pass 1: give every admissible cell its m_min and its rank among the
  // earlier cells (in lattice order) with the same m_min.  Along a row
  // delta_w rises, so V_w never rises and the row's inadmissible cells (too
  // noisy at every m) are a prefix.  Down a column alpha_w rises, so V_w
  // never falls: each row's prefix is at least the previous row's, and once
  // a whole row is inadmissible so is every later one.
  struct Placed {
    std::uint16_t copies;  // m_min
    std::size_t rank;
  };
  std::vector<Placed> placed;
  placed.reserve(rows.size() * columns.size());
  std::vector<std::size_t> row_begin;
  row_begin.reserve(rows.size());
  // first[m] counts, then indexes, the cells whose m_min is m.
  std::vector<std::size_t> first(max_copies + 1, 0);
  std::size_t begin = 0;
  for (const Line& row : rows) {
    while (begin < columns.size() &&
           row.factor * columns[begin].factor > widest) {
      ++begin;
    }
    if (begin == columns.size()) break;
    row_begin.push_back(begin);
    for (std::size_t j = begin; j < columns.size(); ++j) {
      const double variance = row.factor * columns[j].factor;
      const std::size_t m = copies_of(variance);
      PRC_DCHECK(m <= max_copies && !(variance > budget[m]) &&
                 (m == 2 || variance > budget[m - 1]))
          << "m_min " << m << " misplaced at " << row.value << ", "
          << columns[j].value;
      placed.push_back({static_cast<std::uint16_t>(m), first[m]++});
    }
  }
  const std::size_t admissible = placed.size();
  // revisits: the (cell, m) pairs past each cell's m_min, the re-quotes a
  // scan over every m would have made and this pass skips.
  std::size_t revisits = 0;
  std::size_t start = 0;
  for (std::size_t m = 2; m <= max_copies; ++m) {
    const std::size_t count = first[m];
    revisits += count * (max_copies - m);
    first[m] = start;
    start += count;
  }

  // Pass 2: write the admissible cells straight into (m_min, lattice
  // index) order, then quote them in one batch.
  std::vector<query::AccuracySpec> specs(admissible);
  std::vector<std::uint16_t> copies(admissible);
  std::size_t cell = 0;
  for (std::size_t r = 0; r < row_begin.size(); ++r) {
    for (std::size_t j = row_begin[r]; j < columns.size(); ++j) {
      const Placed& p = placed[cell++];
      const std::size_t at = first[p.copies] + p.rank;
      specs[at] = {rows[r].value, columns[j].value};
      copies[at] = p.copies;
    }
  }
  const std::vector<double> quotes = pricing.price_all(specs);

  std::size_t winner = admissible;
  for (std::size_t i = 0; i < admissible; ++i) {
    const double cost = static_cast<double>(copies[i]) * quotes[i];
    if (cost < result.best_attack_cost) {
      result.best_attack_cost = cost;
      winner = i;
    }
  }
  if (winner < admissible) {
    result.copies = copies[winner];
    result.weaker_spec = specs[winner];
    result.combined_variance = model_.contract_variance(specs[winner]) /
                               static_cast<double>(copies[winner]);
  }
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
