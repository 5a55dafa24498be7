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
// 1/phi = (sqrt(5) - 1) / 2, spelled as a literal so every build computes
// the exact same bracket sequence (bit-identical plans are a cache and
// determinism invariant, not just a nicety).
constexpr double kInvGolden = 0.6180339887498949;
// Coarse-bracket resolution of the coarse-to-fine search.  The bracket only
// needs to isolate the unimodal minimum, not approximate it.
constexpr std::size_t kCoarsePoints = 16;
// Golden-section stopping width, as a fraction of the feasible interval
// (alpha - alpha_lo): the refined alpha' lands within ~1e-10 of the
// continuous optimum, far below any grid the paper contemplates.
constexpr double kRefineTolerance = 1e-10;
// Hard cap on the refinement loop.  Each iteration shrinks the bracket by
// the golden ratio, so 128 is unreachable in practice.
constexpr std::uint64_t kMaxRefineIterations = 128;

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
    grid_evaluations.increment(grid);
    for (std::size_t i = 1; i <= grid; ++i) {
      // Open interval (alpha_lo, alpha): both endpoints are degenerate
      // (delta' == delta at alpha_lo; zero noise headroom at alpha).
      const double alpha_prime =
          alpha_lo +
          width * static_cast<double>(i) / static_cast<double>(grid + 1);
      const double epsilon = objective.epsilon_at(alpha_prime, nullptr);
      if (epsilon < best_epsilon) {
        best_epsilon = epsilon;
        best_alpha = alpha_prime;
      }
    }
  } else {
    // Coarse bracket: locate which sub-interval holds the minimum of the
    // unimodal objective (it diverges at both ends, so the best coarse
    // point's neighbors always bracket the true optimum).
    const std::size_t coarse = kCoarsePoints;
    grid_evaluations.increment(coarse);
    std::size_t best_index = 0;
    for (std::size_t i = 1; i <= coarse; ++i) {
      const double alpha_prime =
          alpha_lo +
          width * static_cast<double>(i) / static_cast<double>(coarse + 1);
      const double epsilon = objective.epsilon_at(alpha_prime, nullptr);
      if (epsilon < best_epsilon) {
        best_epsilon = epsilon;
        best_alpha = alpha_prime;
        best_index = i;
      }
    }
    if (best_index > 0) {
      // Golden-section refinement inside [best-1, best+1] (clamped to the
      // open interval's ends, which the section never evaluates).
      const auto coarse_alpha = [&](std::size_t i) {
        return alpha_lo +
               width * static_cast<double>(i) / static_cast<double>(coarse + 1);
      };
      double lo =
          best_index == 1 ? alpha_lo.value() : coarse_alpha(best_index - 1);
      double hi = best_index == coarse ? spec.alpha.value()
                                       : coarse_alpha(best_index + 1);
      const double tolerance = width * kRefineTolerance;
      double probe_lo = hi - kInvGolden * (hi - lo);
      double probe_hi = lo + kInvGolden * (hi - lo);
      double eps_lo = objective.epsilon_at(probe_lo, nullptr);
      double eps_hi = objective.epsilon_at(probe_hi, nullptr);
      std::uint64_t iterations = 2;
      while (hi - lo > tolerance && iterations < kMaxRefineIterations) {
        if (eps_lo < eps_hi) {
          hi = probe_hi;
          probe_hi = probe_lo;
          eps_hi = eps_lo;
          probe_lo = hi - kInvGolden * (hi - lo);
          eps_lo = objective.epsilon_at(probe_lo, nullptr);
        } else {
          lo = probe_lo;
          probe_lo = probe_hi;
          eps_lo = eps_hi;
          probe_hi = lo + kInvGolden * (hi - lo);
          eps_hi = objective.epsilon_at(probe_hi, nullptr);
        }
        ++iterations;
      }
      refine_iterations.increment(iterations);
      if (eps_lo < best_epsilon) {
        best_epsilon = eps_lo;
        best_alpha = probe_lo;
      }
      if (eps_hi < best_epsilon) {
        best_epsilon = eps_hi;
        best_alpha = probe_hi;
      }
    }
  }

  if (!std::isfinite(best_epsilon)) return std::nullopt;
  units::Delta delta_prime = 0.0;
  const double epsilon = objective.epsilon_at(best_alpha, &delta_prime);
  // Exact == on purpose: the objective is a pure function, so re-evaluating
  // the winning alpha' must reproduce the identical double (bit-for-bit
  // determinism is what the plan cache and parallel market rely on).
  PRC_DCHECK(epsilon == best_epsilon)  // lint:allow float-eq
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
