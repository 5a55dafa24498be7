#include "dp/plan_cache.h"

#include "common/telemetry.h"

namespace prc::dp {

std::optional<std::optional<PerturbationPlan>> PlanCache::lookup(
    const PlanCacheKey& key) const {
  static telemetry::Counter& hits = telemetry::counter("dp.plan_cache_hits");
  static telemetry::Counter& misses =
      telemetry::counter("dp.plan_cache_misses");
  auto cached = memo_.lookup(key);
  (cached ? hits : misses).increment();
  return cached;
}

void PlanCache::put(const PlanCacheKey& key,
                    const std::optional<PerturbationPlan>& plan) {
  static telemetry::Counter& evictions =
      telemetry::counter("dp.plan_cache_evictions");
  if (memo_.put(key, plan)) evictions.increment();
}

}  // namespace prc::dp
