// Memoized perturbation plans: a thread-safe LRU cache in front of the
// root-finding (alpha', delta') search.
//
// A market serves the same handful of contracts over and over (honest
// consumers re-buy their favourite spec, attackers buy m copies of one
// weakened spec), so the optimizer's inputs repeat almost every call.  The
// plan is a pure function of (alpha, delta, p, node_count, total_count,
// max_node_count, sensitivity_policy) — nothing else feeds the search — so
// the full argument tuple is the cache key and no invalidation is ever
// needed: a changed input is simply a different key.
//
// Determinism contract: a hit returns the exact struct the miss computed
// (bit-for-bit; doubles are keyed by their bit patterns, not by value, so
// -0.0 vs 0.0 or NaN payloads cannot alias).  Because the cached value is
// itself a deterministic function of the key, concurrent miss/miss races on
// the same key store identical bytes, keeping the parallel market
// bit-identical to the serial one at any thread count.
//
// Infeasible verdicts (nullopt) are cached too: re-asking "can p support
// this contract?" is exactly as repetitive as re-planning a feasible one.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/lru_memo.h"
#include "dp/laplace_mechanism.h"
#include "dp/optimizer.h"

namespace prc::dp {

/// Everything PerturbationOptimizer::optimize depends on, keyed by the bit
/// patterns of the doubles so equality is exact (no epsilon-comparison
/// ambiguity in what "the same spec" means).
struct PlanCacheKey {
  std::uint64_t alpha_bits = 0;
  std::uint64_t delta_bits = 0;
  std::uint64_t probability_bits = 0;
  std::uint64_t node_count = 0;
  std::uint64_t total_count = 0;
  std::uint64_t max_node_count = 0;
  SensitivityPolicy sensitivity_policy = SensitivityPolicy::kExpected;

  static PlanCacheKey make(units::Alpha alpha, units::Delta delta,
                           units::Probability p, std::size_t node_count,
                           std::size_t total_count, std::size_t max_node_count,
                           SensitivityPolicy policy) {
    PlanCacheKey key;
    key.alpha_bits = std::bit_cast<std::uint64_t>(alpha.value());
    key.delta_bits = std::bit_cast<std::uint64_t>(delta.value());
    key.probability_bits = std::bit_cast<std::uint64_t>(p.value());
    key.node_count = node_count;
    key.total_count = total_count;
    key.max_node_count = max_node_count;
    key.sensitivity_policy = policy;
    return key;
  }

  bool operator==(const PlanCacheKey& other) const = default;
};

struct PlanCacheKeyHash {
  std::size_t operator()(const PlanCacheKey& key) const noexcept {
    return hash_words(std::array<std::uint64_t, 7>{
        key.alpha_bits, key.delta_bits, key.probability_bits, key.node_count,
        key.total_count, key.max_node_count,
        static_cast<std::uint64_t>(key.sensitivity_policy)});
  }
};

/// Bounded LRU map from optimizer inputs to the optimizer's full result
/// (including "infeasible").  Thread-safe; counts
/// `dp.plan_cache_{hits,misses,evictions}`.
class PlanCache {
 public:
  /// `capacity` == 0 disables the cache (every lookup misses, puts are
  /// dropped) — used by property tests that want the raw search.
  explicit PlanCache(std::size_t capacity) : memo_(capacity) {}

  /// The cached optimizer verdict for `key`, refreshing its recency, or
  /// nullopt when the key has never been planned (note the two-level
  /// optional: the outer one is hit/miss, the inner one is the verdict).
  std::optional<std::optional<PerturbationPlan>> lookup(
      const PlanCacheKey& key) const;

  /// Stores a verdict, evicting the least recently used entry when full.
  /// Racing puts for the same key keep the first value — by the
  /// determinism contract both racers hold identical bytes, so which one
  /// wins is unobservable.
  void put(const PlanCacheKey& key,
           const std::optional<PerturbationPlan>& plan);

  std::size_t capacity() const noexcept { return memo_.capacity(); }
  std::size_t size() const { return memo_.size(); }

 private:
  LruMemo<PlanCacheKey, std::optional<PerturbationPlan>, PlanCacheKeyHash>
      memo_;
};

}  // namespace prc::dp
