// The perturbation optimizer (paper §III-B, problem (3)).
//
// Given the customer contract (alpha, delta), the cached sampling
// probability p, node count k and data count n, pick the intermediate
// accuracy split (alpha', delta') and Laplace budget epsilon that minimize
// the *amplified* budget epsilon' = ln(1 + p(e^epsilon - 1)), subject to the
// composed answer still meeting (alpha, delta):
//
//   delta' = 1 - 8k / (p alpha' n)^2          (samples reused at fixed p)
//   delta' >  delta,  alpha' < alpha
//   Pr[|Lap| <= (alpha - alpha') n] >= delta / delta'
//     => epsilon >= (sens / ((alpha - alpha') n)) * ln(delta' / (delta' - delta))
//
// The paper prescribes a discretized search ("we can approximate it to a
// discrete domain with arbitrarily small intervals"), but the structure of
// the objective makes any scan unnecessary:
//
//   * epsilon' is strictly increasing in epsilon at fixed p, so minimizing
//     epsilon(alpha') directly minimizes epsilon' — the amplification map
//     needs to be evaluated ONCE, for the winner, not per candidate;
//   * epsilon(alpha') diverges at both ends of the feasible interval
//     (delta' -> delta at alpha_lo, noise headroom -> 0 at alpha), and its
//     slope has the sign of a closed-form g(alpha') that rises from -inf at
//     alpha_lo to ln(delta'/(delta' - delta)) > 0 at alpha.  The optimum is
//     the one root of g, so Brent's zero-finder over the whole interval
//     converges to it in about a dozen evaluations of g, and epsilon is
//     evaluated once, at the root.
//
// The default strategy is that root-find; kExhaustiveGrid keeps the
// original fixed uniform grid as a reference implementation for the
// property tests.  Results are additionally memoized in a PlanCache (see
// plan_cache.h) because a market re-plans the same few contracts constantly.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "dp/laplace_mechanism.h"
#include "query/range_query.h"

namespace prc::dp {

class PlanCache;

/// The optimizer's output: a concrete two-phase plan.
struct PerturbationPlan {
  units::Alpha alpha = 0.0;        ///< customer error bound
  units::Delta delta = 0.0;        ///< customer confidence
  units::Alpha alpha_prime = 0.0;  ///< sampling-phase error bound
  units::Delta delta_prime = 0.0;  ///< sampling-phase confidence
  units::Epsilon epsilon = 0.0;    ///< Laplace budget before amplification
  /// Effective budget ln(1 + p(e^eps - 1)) — what the ledger composes.
  units::EffectiveEpsilon epsilon_amplified = 0.0;
  double sensitivity = 0.0;   ///< Delta gamma_hat used for the noise scale
  double laplace_scale = 0.0; ///< sensitivity / epsilon
  units::Probability sampling_probability = 0.0;

  /// Total variance of the released answer under this plan: the sampling
  /// variance bound 8k/p^2 plus the Laplace noise variance 2 (sens/eps)^2.
  double total_variance(std::size_t node_count) const;

  std::string to_string() const;
};

/// How optimize() searches the continuous alpha' domain.
enum class SearchStrategy {
  /// Brent's zero-finder on the objective's stationarity condition over
  /// the whole feasible interval, down to 1e-10 of its width, then one
  /// evaluation of epsilon at the root.
  kStationarityRoot,
  /// The original fixed uniform grid of grid_points candidates.  Kept as
  /// the reference implementation the property tests compare against.
  kExhaustiveGrid,
};

struct OptimizerConfig {
  /// Number of alpha' grid points searched in (alpha_lo, alpha) by the
  /// kExhaustiveGrid strategy.
  std::size_t grid_points = 512;
  /// Sensitivity policy for Delta gamma_hat (paper default: expected, 1/p).
  SensitivityPolicy sensitivity_policy = SensitivityPolicy::kExpected;
  SearchStrategy search_strategy = SearchStrategy::kStationarityRoot;
  /// Entries held by the memoized plan cache; 0 disables caching (used by
  /// property tests that want every call to exercise the raw search).
  std::size_t plan_cache_capacity = 1024;
};

class PerturbationOptimizer {
 public:
  explicit PerturbationOptimizer(OptimizerConfig config = {});
  ~PerturbationOptimizer();

  // The plan cache is identity-bearing state (shared across the threads
  // that hold this optimizer), so the optimizer is move-only.
  PerturbationOptimizer(PerturbationOptimizer&&) noexcept;
  PerturbationOptimizer& operator=(PerturbationOptimizer&&) noexcept;

  /// Finds the minimum-epsilon' plan, or nullopt when no alpha' split is
  /// feasible at this sampling probability (the caller must raise p first).
  /// `max_node_count` is only consulted by the worst-case sensitivity
  /// policy.  Requires p in (0, 1], node_count > 0, total_count > 0.
  ///
  /// Memoized: a repeated argument tuple is served from the plan cache
  /// bit-identically (same bytes the original search computed), without
  /// re-running the search or the amplification map.  Thread-safe.
  std::optional<PerturbationPlan> optimize(const query::AccuracySpec& spec,
                                           units::Probability p,
                                           std::size_t node_count,
                                           std::size_t total_count,
                                           std::size_t max_node_count = 0) const;

  /// The smallest sampling probability at which optimize() can succeed for
  /// `spec` — i.e. some alpha' < alpha achieves delta' > delta with room for
  /// noise.  Used by the broker to decide how far to top up the samples.
  /// A small headroom factor (> 1) leaves slack for the noise phase.
  units::Probability minimum_feasible_probability(
      const query::AccuracySpec& spec, std::size_t node_count,
      std::size_t total_count, double headroom = 2.0) const;

 private:
  std::optional<PerturbationPlan> search(const query::AccuracySpec& spec,
                                         units::Probability p,
                                         std::size_t node_count,
                                         std::size_t total_count,
                                         double sensitivity,
                                         units::Alpha alpha_lo) const;

  OptimizerConfig config_;
  std::unique_ptr<PlanCache> plan_cache_;
};

}  // namespace prc::dp
