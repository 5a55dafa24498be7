#include "pricing/quote_cache.h"

#include <bit>

#include "common/telemetry.h"

namespace prc::pricing {

double QuoteCache::price(const query::AccuracySpec& spec) const {
  static telemetry::Counter& hits =
      telemetry::counter("pricing.quote_cache_hits");
  static telemetry::Counter& misses =
      telemetry::counter("pricing.quote_cache_misses");
  const Key key{std::bit_cast<std::uint64_t>(spec.alpha.value()),
                std::bit_cast<std::uint64_t>(spec.delta.value())};
  if (const auto cached = memo_.lookup(key)) {
    hits.increment();
    return *cached;
  }
  // Price OUTSIDE the lock: the underlying function is pure and
  // thread-safe, and holding a mutex across it would serialize the
  // concurrent-consumer quote path this cache exists to speed up.  Two
  // racing misses compute the identical double; whichever insert loses
  // simply keeps the incumbent.
  misses.increment();
  const double price = pricing_.price(spec);
  memo_.put(key, price);
  return price;
}

}  // namespace prc::pricing
