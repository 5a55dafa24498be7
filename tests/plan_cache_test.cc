// Plan-cache contract: hits replay the miss's plan bit-for-bit, perform no
// search work (no grid evaluations, no amplification calls), infeasible
// verdicts are cached like feasible ones, eviction is least-recently-used,
// and the cache stays coherent under concurrent hit/miss traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "common/lru_memo.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "dp/optimizer.h"
#include "dp/plan_cache.h"
#include "query/range_query.h"

namespace prc::dp {
namespace {

constexpr std::size_t kNodes = 8;
constexpr std::size_t kTotal = 17568;

std::uint64_t bits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

// Exact, bit-level equality: the determinism contract is "the same bytes
// the miss computed", not "approximately the same plan".
void expect_bit_identical(const PerturbationPlan& a, const PerturbationPlan& b) {
  EXPECT_EQ(bits(a.alpha), bits(b.alpha));
  EXPECT_EQ(bits(a.delta), bits(b.delta));
  EXPECT_EQ(bits(a.alpha_prime), bits(b.alpha_prime));
  EXPECT_EQ(bits(a.delta_prime), bits(b.delta_prime));
  EXPECT_EQ(bits(a.epsilon), bits(b.epsilon));
  EXPECT_EQ(bits(a.epsilon_amplified), bits(b.epsilon_amplified));
  EXPECT_EQ(bits(a.sensitivity), bits(b.sensitivity));
  EXPECT_EQ(bits(a.laplace_scale), bits(b.laplace_scale));
  EXPECT_EQ(bits(a.sampling_probability), bits(b.sampling_probability));
}

PlanCacheKey key_for(double alpha, double delta, double p) {
  return PlanCacheKey::make(alpha, delta, p, kNodes, kTotal, 0,
                            SensitivityPolicy::kExpected);
}

std::optional<PerturbationPlan> plan_for(double alpha, double delta, double p) {
  OptimizerConfig config;
  config.plan_cache_capacity = 0;
  return PerturbationOptimizer(config).optimize({alpha, delta}, p, kNodes,
                                                kTotal);
}

TEST(PlanCacheTest, HitIsBitIdenticalAndSkipsAllSearchWork) {
  const PerturbationOptimizer optimizer;  // default config: cache enabled
  const query::AccuracySpec spec{0.05, 0.8};
  const double p = 0.3;

  auto& hits = telemetry::counter("dp.plan_cache_hits");
  auto& misses = telemetry::counter("dp.plan_cache_misses");
  auto& grid = telemetry::counter("dp.grid_evaluations");
  auto& amplification = telemetry::counter("dp.amplification_calls");

  const auto hits0 = hits.value();
  const auto misses0 = misses.value();
  const auto first = optimizer.optimize(spec, p, kNodes, kTotal);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(misses.value(), misses0 + 1);
  EXPECT_EQ(hits.value(), hits0);

  const auto grid1 = grid.value();
  const auto amp1 = amplification.value();
  const auto second = optimizer.optimize(spec, p, kNodes, kTotal);
  ASSERT_TRUE(second.has_value());
  // The hit performs zero grid evaluations and zero amplification calls.
  EXPECT_EQ(grid.value(), grid1);
  EXPECT_EQ(amplification.value(), amp1);
  EXPECT_EQ(hits.value(), hits0 + 1);
  EXPECT_EQ(misses.value(), misses0 + 1);
  expect_bit_identical(*first, *second);
}

TEST(PlanCacheTest, DistinctArgumentsAreDistinctKeys) {
  const PerturbationOptimizer optimizer;
  auto& misses = telemetry::counter("dp.plan_cache_misses");
  const auto misses0 = misses.value();
  (void)optimizer.optimize({0.05, 0.8}, 0.3, kNodes, kTotal);
  (void)optimizer.optimize({0.05, 0.8}, 0.31, kNodes, kTotal);
  (void)optimizer.optimize({0.05, 0.81}, 0.3, kNodes, kTotal);
  (void)optimizer.optimize({0.05, 0.8}, 0.3, kNodes, kTotal + 1);
  EXPECT_EQ(misses.value(), misses0 + 4);
}

TEST(PlanCacheTest, InfeasibleVerdictIsCachedWithoutRecounting) {
  const PerturbationOptimizer optimizer;
  // p far below the Theorem 3.3 threshold: no feasible split exists.
  const query::AccuracySpec spec{0.01, 0.9};
  const double p = 0.001;

  auto& infeasible = telemetry::counter("dp.optimize_infeasible");
  auto& hits = telemetry::counter("dp.plan_cache_hits");

  const auto infeasible0 = infeasible.value();
  EXPECT_FALSE(optimizer.optimize(spec, p, kNodes, kTotal).has_value());
  EXPECT_EQ(infeasible.value(), infeasible0 + 1);

  // The replayed verdict is the cached one: infeasible is not re-counted.
  const auto hits1 = hits.value();
  EXPECT_FALSE(optimizer.optimize(spec, p, kNodes, kTotal).has_value());
  EXPECT_EQ(hits.value(), hits1 + 1);
  EXPECT_EQ(infeasible.value(), infeasible0 + 1);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsed) {
  PlanCache cache(2);
  auto& evictions = telemetry::counter("dp.plan_cache_evictions");
  const auto evictions0 = evictions.value();

  const auto k1 = key_for(0.05, 0.8, 0.3);
  const auto k2 = key_for(0.06, 0.8, 0.3);
  const auto k3 = key_for(0.07, 0.8, 0.3);
  cache.put(k1, plan_for(0.05, 0.8, 0.3));
  cache.put(k2, plan_for(0.06, 0.8, 0.3));
  EXPECT_EQ(cache.size(), 2u);

  // Touch k1 so k2 becomes the LRU entry, then insert k3.
  EXPECT_TRUE(cache.lookup(k1).has_value());
  cache.put(k3, plan_for(0.07, 0.8, 0.3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(evictions.value(), evictions0 + 1);

  EXPECT_TRUE(cache.lookup(k1).has_value());
  EXPECT_FALSE(cache.lookup(k2).has_value());
  EXPECT_TRUE(cache.lookup(k3).has_value());
}

TEST(PlanCacheTest, RacingPutKeepsTheIncumbent) {
  PlanCache cache(4);
  const auto k1 = key_for(0.05, 0.8, 0.3);
  const auto plan = plan_for(0.05, 0.8, 0.3);
  ASSERT_TRUE(plan.has_value());
  cache.put(k1, plan);
  // A second put for the same key (the losing racer) must not duplicate
  // the entry or replace the incumbent's bytes.
  cache.put(k1, plan);
  EXPECT_EQ(cache.size(), 1u);
  const auto cached = cache.lookup(k1);
  ASSERT_TRUE(cached.has_value());
  ASSERT_TRUE(cached->has_value());
  expect_bit_identical(**cached, *plan);
}

TEST(PlanCacheTest, CapacityZeroDisablesCaching) {
  PlanCache cache(0);
  const auto k1 = key_for(0.05, 0.8, 0.3);
  cache.put(k1, plan_for(0.05, 0.8, 0.3));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(k1).has_value());

  OptimizerConfig config;
  config.plan_cache_capacity = 0;
  const PerturbationOptimizer optimizer(config);
  auto& misses = telemetry::counter("dp.plan_cache_misses");
  const auto misses0 = misses.value();
  (void)optimizer.optimize({0.05, 0.8}, 0.3, kNodes, kTotal);
  (void)optimizer.optimize({0.05, 0.8}, 0.3, kNodes, kTotal);
  EXPECT_EQ(misses.value(), misses0 + 2);
}

// Run under TSan in CI: many threads hammer one shared optimizer with a
// small set of specs (guaranteed hit/miss races on every key) and each
// must observe exactly the plan the serial reference computes.
TEST(PlanCacheTest, ConcurrentHitsAndMissesStayBitIdentical) {
  const PerturbationOptimizer shared;
  const std::vector<query::AccuracySpec> specs{
      {0.05, 0.8}, {0.06, 0.7}, {0.08, 0.9}, {0.1, 0.5}};
  const double p = 0.3;

  std::vector<std::optional<PerturbationPlan>> reference;
  for (const auto& spec : specs) {
    reference.push_back(plan_for(spec.alpha, spec.delta, p));
    ASSERT_TRUE(reference.back().has_value());
  }

  constexpr int kThreads = 8;
  constexpr int kIterations = 200;
  std::vector<std::thread> workers;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const auto& spec = specs[(t + i) % specs.size()];
        const auto plan = shared.optimize(spec, p, kNodes, kTotal);
        const auto& want = reference[(t + i) % specs.size()];
        // Bit-pattern equality IS the property under test: a cached plan
        // must replay the exact bytes the serial reference computed.
        if (!plan.has_value() ||
            bits(plan->epsilon_amplified) !=  // lint:allow float-eq
                bits(want->epsilon_amplified) ||
            bits(plan->alpha_prime) !=  // lint:allow float-eq
                bits(want->alpha_prime) ||
            bits(plan->laplace_scale) != bits(want->laplace_scale)) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

// --- the LRU memo under the caches -------------------------------------------

// Puts every key in one bucket chain, so nothing can depend on the hash.
struct CollidingHash {
  std::size_t operator()(const PlanCacheKey&) const noexcept { return 7; }
};

TEST(LruMemoTest, EvictionOrderAndHitsDoNotDependOnTheHash) {
  // Plan-cache-shaped keys: a pool of 40 (alpha, delta, p) bit patterns
  // with the session constants, plus near-twins that differ in one low or
  // high bit, so a scripted mix of lookups and puts at capacity 16 hits,
  // misses and evicts often.  A plain recency list is the reference model.
  std::vector<PlanCacheKey> pool;
  Rng rng(2024);
  for (int i = 0; i < 40; ++i) {
    const PlanCacheKey key =
        key_for(rng.uniform(0.01, 0.5), rng.uniform(0.05, 0.95),
                rng.uniform(0.05, 1.0));
    pool.push_back(key);
    PlanCacheKey twin = key;
    std::uint64_t& word = i % 3 == 0   ? twin.alpha_bits
                          : i % 3 == 1 ? twin.delta_bits
                                       : twin.probability_bits;
    word ^= std::uint64_t{1} << (i % 2 == 0 ? 0 : 62);
    pool.push_back(twin);
  }
  constexpr std::size_t kCapacity = 16;
  const LruMemo<PlanCacheKey, int, PlanCacheKeyHash> mixed(kCapacity);
  const LruMemo<PlanCacheKey, int, CollidingHash> colliding(kCapacity);
  std::vector<std::size_t> recency;  // front = most recent pool index
  std::size_t hits = 0;
  std::size_t evictions = 0;
  for (int step = 0; step < 4000; ++step) {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
    const auto at = std::find(recency.begin(), recency.end(), i);
    const bool cached = at != recency.end();
    const std::optional<int> got = mixed.lookup(pool[i]);
    ASSERT_EQ(got.has_value(), cached) << "step " << step;
    ASSERT_EQ(colliding.lookup(pool[i]), got) << "step " << step;
    if (cached) {
      ASSERT_EQ(*got, static_cast<int>(i));
      recency.erase(at);
      recency.insert(recency.begin(), i);
      ++hits;
      continue;
    }
    const bool evicted = recency.size() == kCapacity;
    ASSERT_EQ(mixed.put(pool[i], static_cast<int>(i)), evicted);
    ASSERT_EQ(colliding.put(pool[i], static_cast<int>(i)), evicted);
    if (evicted) {
      recency.pop_back();
      ++evictions;
    }
    recency.insert(recency.begin(), i);
  }
  EXPECT_GT(hits, 500u);
  EXPECT_GT(evictions, 500u);
  // Every key the model holds is still a hit; the rest were evicted.
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const bool cached =
        std::find(recency.begin(), recency.end(), i) != recency.end();
    EXPECT_EQ(mixed.lookup(pool[i]).has_value(), cached) << "key " << i;
  }
}

TEST(LruMemoTest, ReplaceOverwritesTheIncumbentAndRefreshesIt) {
  const LruMemo<PlanCacheKey, int, PlanCacheKeyHash> memo(2);
  const PlanCacheKey a = key_for(0.1, 0.5, 0.2);
  const PlanCacheKey b = key_for(0.1, 0.5, 0.3);
  const PlanCacheKey c = key_for(0.1, 0.5, 0.4);
  EXPECT_FALSE(memo.put(a, 1));
  EXPECT_FALSE(memo.put(b, 2));
  // put keeps the incumbent; replace takes the new value and makes `a` the
  // most recent, so the next insert evicts `b`.
  EXPECT_FALSE(memo.put(a, 10));
  EXPECT_EQ(memo.lookup(b), 2);
  EXPECT_EQ(memo.lookup(a), 1);
  EXPECT_FALSE(memo.replace(b, 20));
  EXPECT_FALSE(memo.replace(a, 30));
  EXPECT_TRUE(memo.replace(c, 40));
  EXPECT_EQ(memo.lookup(a), 30);
  EXPECT_EQ(memo.lookup(b), std::nullopt);
  EXPECT_EQ(memo.lookup(c), 40);
  EXPECT_EQ(memo.size(), 2u);
}

TEST(LruMemoTest, HashWordsSeparatesSingleBitFlips) {
  // Each of the 448 one-bit neighbours of a plan-cache-shaped key hashes
  // apart from the key and from each other, in the low bits a bucket index
  // uses too.
  using Words = std::array<std::uint64_t, 7>;
  const Words key{bits(0.05), bits(0.8), bits(0.3), kNodes, kTotal, 0, 0};
  std::set<std::size_t> hashes{hash_words(key)};
  std::set<std::size_t> low_bits{hash_words(key) & 0xffffU};
  for (std::size_t word = 0; word < key.size(); ++word) {
    for (int bit = 0; bit < 64; ++bit) {
      Words flipped = key;
      flipped[word] ^= std::uint64_t{1} << bit;
      hashes.insert(hash_words(flipped));
      low_bits.insert(hash_words(flipped) & 0xffffU);
    }
  }
  EXPECT_EQ(hashes.size(), 1u + 7u * 64u);
  EXPECT_GT(low_bits.size(), 440u);
}

}  // namespace
}  // namespace prc::dp
