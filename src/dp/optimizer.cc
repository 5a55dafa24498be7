#include "dp/optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "dp/amplification.h"
#include "dp/plan_cache.h"
#include "estimator/accuracy.h"
#include "estimator/rank_counting.h"

namespace prc::dp {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();
// Root-finder stopping width, as a fraction of the feasible interval
// (alpha - alpha_lo): the refined alpha' lands within ~1e-10 of the
// continuous optimum, far below any grid the paper contemplates.
constexpr double kRefineTolerance = 1e-10;
// Hard cap on the root-finder's steps.  Brent's method falls back to
// bisection whenever interpolation stalls, so reaching the stopping width
// takes at most ~log2(1 / kRefineTolerance) = 34 bisections plus the
// interpolation steps between them; 128 is unreachable in practice.
constexpr std::uint64_t kMaxRootIterations = 128;

/// The constraint system of problem (3) at one candidate alpha': the
/// minimal Laplace budget epsilon that keeps the noise-phase tail bound,
/// or +inf when the candidate is infeasible (delta' <= delta near alpha_lo,
/// or no positive finite budget exists).  epsilon' = ln(1 + p(e^eps - 1))
/// is strictly increasing in eps at fixed p, so comparing candidates by
/// eps orders them exactly as epsilon' would — amplification is applied
/// once, to the winner, never per candidate.
struct SplitObjective {
  const query::AccuracySpec& spec;
  double p;
  std::size_t node_count;
  std::size_t total_count;
  double sensitivity;

  double epsilon_at(units::Alpha alpha_prime, units::Delta* delta_prime_out)
      const {
    const double delta_prime =
        estimator::achieved_delta(p, alpha_prime, node_count, total_count);
    if (!(delta_prime > spec.delta)) return kInfinity;  // fp guard at alpha_lo
    const double headroom =
        (spec.alpha - alpha_prime) * static_cast<double>(total_count);
    const double epsilon =
        sensitivity / headroom *
        std::log(delta_prime / (delta_prime - spec.delta));
    if (!std::isfinite(epsilon) || !(epsilon > 0.0)) return kInfinity;
    if (delta_prime_out != nullptr) *delta_prime_out = delta_prime;
    return epsilon;
  }
};

/// The stationarity condition of the objective above.  With
/// L(a) = ln(delta' / (delta' - delta)) and delta' = 1 - c / a^2,
/// c = 8k / (p n)^2, the objective's slope is
///
///   d eps / d a = sens / (n (alpha - a)^2) * g(a),
///   g(a) = L(a) + (alpha - a) L'(a),
///   L'(a) = -2 c delta / (a^3 delta' (delta' - delta)),
///
/// so the optimal alpha' is the root of g.  g -> -inf as a -> alpha_lo+
/// and g(alpha) = L(alpha) > 0, while g' = (alpha - a) L'' > 0 in between,
/// so the whole feasible interval brackets exactly one root.  The
/// sensitivity only scales the slope and does not enter g.
struct StationarityCondition {
  units::Alpha alpha;
  units::Delta delta;
  double c;

  /// g(a), or -inf where rounding near alpha_lo leaves delta' - delta <= 0
  /// (a NaN or inf there lies on the negative side of the root).
  double at(double a) const {
    const double a2 = a * a;
    const double delta_prime = 1.0 - c / a2;
    const double gap = delta_prime - delta;
    const double g = std::log(delta_prime / gap) -
                     (alpha - a) * 2.0 * c * delta /
                         (a2 * a * delta_prime * gap);
    return std::isfinite(g) ? g : -kInfinity;
  }
};

/// Brent's zero-finder on g over (alpha_lo, alpha): inverse-quadratic or
/// secant steps through finite points, with a bisection safeguard, until
/// the bracket is narrower than `tolerance`.  alpha_lo itself is never
/// evaluated (g is -inf there).  Returns the root estimate and adds one
/// to *steps per evaluation of g after g(alpha).  When rounding leaves
/// g(alpha) <= 0 it returns alpha, whose epsilon is +inf.
double stationary_alpha(const StationarityCondition& g, units::Alpha alpha_lo,
                        double tolerance, std::uint64_t* steps) {
  // b is the current estimate, c the contrapoint that keeps the root
  // between them, a the previous estimate.
  double b = g.alpha;
  double fb = g.at(b);
  if (!(fb > 0.0)) return b;
  double a = alpha_lo;
  double fa = -kInfinity;
  double c = a;
  double fc = fa;
  double d = b - a;
  double e = d;
  for (std::uint64_t step = 0; step < kMaxRootIterations; ++step) {
    if ((fb > 0.0 && fc > 0.0) || (fb < 0.0 && fc < 0.0)) {
      c = a;
      fc = fa;
      d = b - a;
      e = d;
    }
    if (std::fabs(fc) < std::fabs(fb)) {
      a = b;
      b = c;
      c = a;
      fa = fb;
      fb = fc;
      fc = fa;
    }
    const double tol =
        2.0 * std::numeric_limits<double>::epsilon() * std::fabs(b) +
        0.5 * tolerance;
    const double half = 0.5 * (c - b);
    if (std::fabs(half) <= tol || fb == 0.0) break;
    bool interpolated = false;
    if (std::fabs(e) >= tol && std::isfinite(fa) &&
        std::fabs(fa) > std::fabs(fb)) {
      const double s = fb / fa;
      double num = 0.0;
      double den = 0.0;
      if (a == c) {
        num = 2.0 * half * s;  // secant through a and b
        den = 1.0 - s;
      } else {  // inverse quadratic through a, b and c
        const double q = fa / fc;
        const double r = fb / fc;
        num = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0));
        den = (q - 1.0) * (r - 1.0) * (s - 1.0);
      }
      if (num > 0.0) den = -den;
      num = std::fabs(num);
      // Accept the interpolated step only if it stays well inside the
      // bracket and shrinks faster than the step before last.
      if (2.0 * num <
          std::min(3.0 * half * den - std::fabs(tol * den),
                   std::fabs(e * den))) {
        e = d;
        d = num / den;
        interpolated = true;
      }
    }
    if (!interpolated) {
      d = half;
      e = d;
    }
    a = b;
    fa = fb;
    b += std::fabs(d) > tol ? d : std::copysign(tol, half);
    fb = g.at(b);
    ++*steps;
  }
  return b;
}

}  // namespace

double PerturbationPlan::total_variance(std::size_t node_count) const {
  const double sampling_var =
      estimator::rank_counting_variance_bound(node_count,
                                              sampling_probability);
  const double noise_var = 2.0 * laplace_scale * laplace_scale;
  return sampling_var + noise_var;
}

std::string PerturbationPlan::to_string() const {
  std::ostringstream out;
  out << "plan{alpha'=" << alpha_prime << ", delta'=" << delta_prime
      << ", eps=" << epsilon << ", eps'=" << epsilon_amplified
      << ", scale=" << laplace_scale << ", p=" << sampling_probability << '}';
  return out.str();
}

PerturbationOptimizer::PerturbationOptimizer(OptimizerConfig config)
    : config_(config),
      plan_cache_(std::make_unique<PlanCache>(config.plan_cache_capacity)) {
  PRC_CHECK(config_.grid_points >= 2) << "optimizer needs >= 2 grid points";
}

PerturbationOptimizer::~PerturbationOptimizer() = default;
PerturbationOptimizer::PerturbationOptimizer(PerturbationOptimizer&&) noexcept =
    default;
PerturbationOptimizer& PerturbationOptimizer::operator=(
    PerturbationOptimizer&&) noexcept = default;

std::optional<PerturbationPlan> PerturbationOptimizer::optimize(
    const query::AccuracySpec& spec, units::Probability p,
    std::size_t node_count, std::size_t total_count,
    std::size_t max_node_count) const {
  static telemetry::Counter& optimize_calls =
      telemetry::counter("dp.optimize_calls");
  static telemetry::Counter& optimize_infeasible =
      telemetry::counter("dp.optimize_infeasible");
  static telemetry::Histogram& optimize_duration =
      telemetry::histogram("dp.optimize_duration_us");
  spec.validate();
  PRC_CHECK_PROB(p);
  PRC_CHECK(node_count > 0 && total_count > 0)
      << "need node_count > 0 and total_count > 0";
  PRC_TRACE_SPAN("dp.optimize");
  telemetry::ScopedTimer optimize_timer(optimize_duration);
  optimize_calls.increment();

  const auto key = PlanCacheKey::make(spec.alpha, spec.delta, p, node_count,
                                      total_count, max_node_count,
                                      config_.sensitivity_policy);
  if (auto cached = plan_cache_->lookup(key)) {
    // Bit-identical replay of the original search's verdict: no grid
    // evaluations, no amplification call.
    return *cached;
  }

  const double sensitivity =
      sensitivity_for(config_.sensitivity_policy, p, max_node_count);
  // alpha' must exceed this for the sampling phase to reach delta' > delta
  // at the cached p; it must stay below alpha to leave room for noise.
  const double alpha_lo =
      estimator::min_feasible_alpha(p, spec.delta, node_count, total_count);
  if (!(alpha_lo < spec.alpha)) {
    optimize_infeasible.increment();
    plan_cache_->put(key, std::nullopt);
    return std::nullopt;
  }

  std::optional<PerturbationPlan> best =
      search(spec, p, node_count, total_count, sensitivity, alpha_lo);
  if (best) {
    // The plan the market layer audits must sit strictly inside the
    // theorem's feasible region: the split leaves room for both phases
    // and sub-sampling amplification only ever shrinks the budget.
    PRC_DCHECK(best->alpha_prime > alpha_lo && best->alpha_prime < spec.alpha)
        << "alpha' must lie in (alpha_lo, alpha): " << best->to_string();
    PRC_DCHECK(best->delta_prime > spec.delta)
        << "delta' must exceed delta: " << best->to_string();
    PRC_DCHECK(best->epsilon_amplified <= best->epsilon * (1.0 + 1e-12))
        << "amplified budget must not exceed the base budget: "
        << best->to_string();
    PRC_DCHECK(std::isfinite(best->laplace_scale) && best->laplace_scale > 0.0)
        << "plan needs a positive finite noise scale: " << best->to_string();
  } else {
    optimize_infeasible.increment();
  }
  plan_cache_->put(key, best);
  return best;
}

std::optional<PerturbationPlan> PerturbationOptimizer::search(
    const query::AccuracySpec& spec, units::Probability p,
    std::size_t node_count, std::size_t total_count, double sensitivity,
    units::Alpha alpha_lo) const {
  static telemetry::Counter& grid_evaluations =
      telemetry::counter("dp.grid_evaluations");
  static telemetry::Counter& refine_iterations =
      telemetry::counter("dp.refine_iterations");
  const SplitObjective objective{spec, p, node_count, total_count,
                                 sensitivity};
  const double width = spec.alpha - alpha_lo;

  double best_alpha = 0.0;
  double best_epsilon = kInfinity;

  if (config_.search_strategy == SearchStrategy::kExhaustiveGrid) {
    const std::size_t grid = config_.grid_points;
    // The grid's points plus the winner's re-evaluation below.
    grid_evaluations.increment(grid + 1);
    for (std::size_t i = 1; i <= grid; ++i) {
      // Open interval (alpha_lo, alpha): both endpoints are degenerate
      // (delta' == delta at alpha_lo; zero noise headroom at alpha).
      const double alpha_prime =
          alpha_lo +
          width * static_cast<double>(i) / static_cast<double>(grid + 1);
      // On an interval a few ulps wide the step rounds away and the point
      // lands on an endpoint, where epsilon_at can still be finite.
      if (!(alpha_prime > alpha_lo && alpha_prime < spec.alpha)) continue;
      const double epsilon = objective.epsilon_at(alpha_prime, nullptr);
      if (epsilon < best_epsilon) {
        best_epsilon = epsilon;
        best_alpha = alpha_prime;
      }
    }
    if (!std::isfinite(best_epsilon)) return std::nullopt;
  } else {
    const double pn = p.value() * static_cast<double>(total_count);
    const StationarityCondition condition{
        spec.alpha, spec.delta,
        8.0 * static_cast<double>(node_count) / (pn * pn)};
    std::uint64_t steps = 0;
    best_alpha = stationary_alpha(condition, alpha_lo,
                                  width * kRefineTolerance, &steps);
    refine_iterations.increment(steps);
    // g(alpha), each step's g, and the epsilon of the root below.
    grid_evaluations.increment(steps + 2);
  }

  units::Delta delta_prime = 0.0;
  const double epsilon = objective.epsilon_at(best_alpha, &delta_prime);
  // The root's epsilon is the feasibility verdict: it is +inf only when
  // rounding leaves no alpha' with delta' > delta and room for noise.
  if (!std::isfinite(epsilon)) return std::nullopt;
  // Exact == on purpose: the objective is a pure function, so re-evaluating
  // the grid's winning alpha' must reproduce the identical double
  // (bit-for-bit determinism is what the plan cache and parallel market
  // rely on).
  PRC_DCHECK(config_.search_strategy != SearchStrategy::kExhaustiveGrid ||
             epsilon == best_epsilon)  // lint:allow float-eq
      << "re-evaluating the winning alpha' must reproduce its objective";
  // The single amplification evaluation of the whole search (monotonicity
  // of eps' in eps made per-candidate calls redundant).
  const units::EffectiveEpsilon eps_amp = amplified_epsilon(epsilon, p);
  PerturbationPlan plan;
  plan.alpha = spec.alpha;
  plan.delta = spec.delta;
  plan.alpha_prime = best_alpha;
  plan.delta_prime = delta_prime;
  plan.epsilon = epsilon;
  plan.epsilon_amplified = eps_amp;
  plan.sensitivity = sensitivity;
  plan.laplace_scale = sensitivity / epsilon;
  plan.sampling_probability = p;
  return plan;
}

units::Probability PerturbationOptimizer::minimum_feasible_probability(
    const query::AccuracySpec& spec, std::size_t node_count,
    std::size_t total_count, double headroom) const {
  PRC_CHECK(std::isfinite(headroom) && headroom >= 1.0)
      << "headroom must be >= 1, got " << headroom;
  const double required = estimator::required_sampling_probability(
      spec, node_count, total_count);
  return std::min(1.0, required * headroom);
}

}  // namespace prc::dp
