// Memoized price quotes: a thread-safe LRU in front of one PricingFunction.
//
// Theorem-4.2-family prices are pure functions of the contract (alpha,
// delta) — nothing time-varying feeds psi(V) — so a broker that keeps
// quoting the same few contracts (honest repeat buyers; an attacker buying
// m copies of one weakened spec) can answer from a hash lookup.  Keys are
// the bit patterns of the two doubles, so "the same contract" means exactly
// the same bytes and a hit returns exactly the double the miss computed —
// receipts and revenue totals cannot drift between cached and direct
// pricing, at any thread count.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/lru_memo.h"
#include "pricing/pricing.h"
#include "query/range_query.h"

namespace prc::pricing {

/// Bounded LRU memo over `pricing.price(spec)`.  The wrapped function must
/// outlive the cache.  All methods are thread-safe; counts
/// `pricing.quote_cache_{hits,misses}`.
class QuoteCache {
 public:
  /// `capacity` == 0 disables memoization (every call prices directly).
  QuoteCache(const PricingFunction& pricing, std::size_t capacity)
      : pricing_(pricing), memo_(capacity) {}

  /// The price of `spec`, served from the memo when this exact contract
  /// (bit pattern) was quoted before.
  double price(const query::AccuracySpec& spec) const;

  const PricingFunction& pricing() const noexcept { return pricing_; }
  std::size_t capacity() const noexcept { return memo_.capacity(); }
  std::size_t size() const { return memo_.size(); }

 private:
  /// (alpha bits, delta bits).
  using Key = std::array<std::uint64_t, 2>;
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept {
      return hash_words(key);
    }
  };

  const PricingFunction& pricing_;
  LruMemo<Key, double, KeyHash> memo_;
};

}  // namespace prc::pricing
