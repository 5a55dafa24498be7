// Metrics registry: counters/gauges/histograms, quantile accuracy against
// an exact sort, snapshot JSON round-trip, reset-in-place reference
// stability, and registry thread-safety (run under TSan by CI).

#include "common/telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace prc::telemetry {
namespace {

TEST(CounterTest, IncrementsMonotonically) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.increment();
  counter.increment(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  gauge.set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.add(1.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 4.0);
  gauge.reset();
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

TEST(HistogramTest, RejectsBadBounds) {
  EXPECT_THROW(Histogram(std::vector<double>{}), std::exception);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::exception);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::exception);
}

TEST(HistogramTest, TracksCountSumMinMax) {
  Histogram hist({1.0, 10.0, 100.0});
  hist.record(0.5);
  hist.record(5.0);
  hist.record(500.0);  // overflow bucket
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.sum, 505.5);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 500.0);
  ASSERT_EQ(snap.bucket_counts.size(), snap.bounds.size() + 1);
  EXPECT_EQ(snap.bucket_counts.back(), 1u);  // the 500.0 overflow
  EXPECT_DOUBLE_EQ(snap.mean(), 505.5 / 3.0);
}

TEST(HistogramTest, QuantilesTrackExactSort) {
  // Bucketed quantiles are estimates; with the default 1-2-5 bounds the
  // interpolated p50/p95/p99 must land within one bucket width of the
  // exact order statistics.
  Histogram hist(default_bounds());
  Rng rng(7);
  std::vector<double> values;
  values.reserve(5000);
  for (int i = 0; i < 5000; ++i) {
    const double v = std::exp(rng.uniform() * 8.0);  // spans many buckets
    values.push_back(v);
    hist.record(v);
  }
  std::sort(values.begin(), values.end());
  const auto exact = [&](double q) {
    return values[static_cast<std::size_t>(
        q * static_cast<double>(values.size() - 1))];
  };
  const auto snap = hist.snapshot();
  for (const auto& [estimate, q] :
       {std::pair{snap.p50, 0.50}, {snap.p95, 0.95}, {snap.p99, 0.99}}) {
    const double truth = exact(q);
    // 1-2-5 spacing: neighboring bounds are within a factor 2.5.
    EXPECT_GE(estimate, truth / 2.5) << "q=" << q;
    EXPECT_LE(estimate, truth * 2.5) << "q=" << q;
  }
  // Quantiles are clamped to the observed range.
  EXPECT_GE(snap.p50, snap.min);
  EXPECT_LE(snap.p99, snap.max);
}

TEST(HistogramTest, SingleValueQuantilesAreExact) {
  Histogram hist({1.0, 10.0});
  hist.record(3.0);
  const auto snap = hist.snapshot();
  EXPECT_DOUBLE_EQ(snap.p50, 3.0);
  EXPECT_DOUBLE_EQ(snap.p99, 3.0);
}

TEST(HistogramTest, RecordAllMatchesRecord) {
  Rng rng(19);
  std::vector<double> values;
  for (int i = 0; i < 3000; ++i) {
    values.push_back(std::exp(rng.uniform() * 30.0 - 12.0));
  }
  Histogram one_by_one(default_bounds());
  Histogram batched(default_bounds());
  for (const double v : values) one_by_one.record(v);
  // Uneven batches, an empty one among them.
  const std::span<const double> all(values);
  batched.record_all(all.first(1));
  batched.record_all(all.subspan(1, 0));
  batched.record_all(all.subspan(1, 999));
  batched.record_all(all.subspan(1000));
  const auto want = one_by_one.snapshot();
  const auto got = batched.snapshot();
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.sum, want.sum);
  EXPECT_EQ(got.min, want.min);
  EXPECT_EQ(got.max, want.max);
  EXPECT_EQ(got.p50, want.p50);
  EXPECT_EQ(got.p95, want.p95);
  EXPECT_EQ(got.p99, want.p99);
  EXPECT_EQ(got.bucket_counts, want.bucket_counts);
}

TEST(HistogramTest, RecordAllRejectsANonFiniteBatch) {
  Histogram hist({1.0, 10.0});
  hist.record(2.0);
  for (const double bad : {std::nan(""), std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    const std::vector<double> batch{3.0, bad, 4.0};
    EXPECT_THROW(hist.record_all(batch), std::invalid_argument);
  }
  // A rejected batch records none of its values, the finite ones included.
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum, 2.0);
  EXPECT_EQ(snap.max, 2.0);
}

// A value's bucket must be the first bound >= it, exactly as
// std::lower_bound finds it, for any strictly increasing bounds.
TEST(HistogramTest, BucketIsTheLowerBoundOfTheValue) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double huge = std::numeric_limits<double>::max();
  const std::vector<std::vector<double>> bound_sets{
      default_bounds(),
      // Irregular: negatives, both zeros' neighbours, subnormals, several
      // bounds in one binade, gaps of hundreds of binades, the extremes.
      {-huge, -1e300, -3.5, -3.0, -2.5, -1e-300, -tiny, 0.0, tiny, 1e-310,
       1e-300, 1.0, 1.1, 1.2, 1.9, 2.0, 1e10, huge},
      {5.0},
      {-8.0, -7.0},
      {-0.0, 1.0},
      {0.25, 0.3, 0.375, 0.5, 1.0, 1e200, kInf},
  };
  Rng rng(31);
  for (const std::vector<double>& bounds : bound_sets) {
    std::vector<double> values{0.0,  -0.0, -1.0,  -1e-300, tiny,
                               -tiny, 1e-310, huge, -huge};
    for (const double bound : bounds) {
      if (!std::isfinite(bound)) continue;
      values.push_back(bound);
      values.push_back(std::nextafter(bound, -kInf));
      values.push_back(std::nextafter(bound, kInf));
    }
    for (int i = 0; i < 200; ++i) {
      const double magnitude = std::exp(rng.uniform(-40.0, 40.0));
      values.push_back(rng.bernoulli(0.3) ? -magnitude : magnitude);
    }
    std::erase_if(values, [](double v) { return !std::isfinite(v); });

    std::vector<std::uint64_t> want(bounds.size() + 1, 0);
    Histogram one_by_one(bounds);
    for (const double value : values) {
      const auto at = static_cast<std::size_t>(
          std::lower_bound(bounds.begin(), bounds.end(), value) -
          bounds.begin());
      ++want[at];
      Histogram single(bounds);
      single.record(value);
      std::vector<std::uint64_t> only(bounds.size() + 1, 0);
      only[at] = 1;
      ASSERT_EQ(single.snapshot().bucket_counts, only)
          << "value " << value << " over " << bounds.size() << " bounds";
      one_by_one.record(value);
    }
    Histogram batched(bounds);
    batched.record_all(values);
    EXPECT_EQ(one_by_one.snapshot().bucket_counts, want);
    EXPECT_EQ(batched.snapshot().bucket_counts, want);
  }
}

// Run repeatedly under TSan by CI: batches and single records from several
// threads, as MarketSimulation's parallel attack searches and the rest of
// the pricing layer do.  Integer values sum exactly in any order.
TEST(HistogramTest, RecordAllRacesRecord) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 300;
  Histogram hist(default_bounds());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      std::vector<double> batch;
      for (int i = 1; i <= 7; ++i) batch.push_back(t * 100 + i);
      for (int round = 0; round < kRounds; ++round) {
        hist.record_all(batch);
        hist.record(static_cast<double>(t + 1));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  double want_sum = 0.0;
  for (int t = 0; t < kThreads; ++t) {
    double per_round = t + 1;
    for (int i = 1; i <= 7; ++i) per_round += t * 100 + i;
    want_sum += per_round * kRounds;
  }
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads * kRounds * 8));
  EXPECT_EQ(snap.sum, want_sum);
  EXPECT_EQ(snap.min, 1.0);
  EXPECT_EQ(snap.max, static_cast<double>((kThreads - 1) * 100 + 7));
}

TEST(RegistryTest, ReferencesStableAcrossResetAndRehash) {
  Telemetry registry;
  Counter& counter = registry.counter("stable.counter");
  Gauge& gauge = registry.gauge("stable.gauge");
  counter.increment(5);
  gauge.set(1.25);
  // Force rehashing by registering many more metrics.
  for (int i = 0; i < 200; ++i) {
    registry.counter("filler." + std::to_string(i)).increment();
  }
  EXPECT_EQ(counter.value(), 5u);
  EXPECT_EQ(&registry.counter("stable.counter"), &counter);
  registry.reset();
  // reset() zeroes in place: the old references still work.
  EXPECT_EQ(counter.value(), 0u);
  counter.increment();
  EXPECT_EQ(registry.counter("stable.counter").value(), 1u);
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

TEST(RegistryTest, SnapshotSortsNamesAndCountsMetrics) {
  Telemetry registry;
  registry.counter("b.two").increment(2);
  registry.counter("a.one").increment(1);
  registry.gauge("c.three").set(3.0);
  registry.histogram("d.four").record(4.0);
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a.one");
  EXPECT_EQ(snap.counters[1].first, "b.two");
  EXPECT_EQ(snap.metric_count(), 4u);
  EXPECT_TRUE(snap.has_prefix("a."));
  EXPECT_TRUE(snap.has_prefix("d."));
  EXPECT_FALSE(snap.has_prefix("zzz."));
}

TEST(RegistryTest, ConcurrentAccessIsSafe) {
  // 4 threads hammer one shared counter/gauge/histogram plus per-thread
  // metrics (exercising concurrent creation).  Run under TSan in CI.
  Telemetry registry;
  constexpr int kThreads = 4;
  constexpr int kIterations = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < kIterations; ++i) {
        registry.counter("shared.counter").increment();
        registry.gauge("shared.gauge").set(static_cast<double>(i));
        registry.histogram("shared.hist").record(static_cast<double>(i));
        registry.counter("thread." + std::to_string(t)).increment();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(registry.counter("shared.counter").value(),
            static_cast<std::uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(registry.histogram("shared.hist").snapshot().count,
            static_cast<std::uint64_t>(kThreads) * kIterations);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(registry.counter("thread." + std::to_string(t)).value(),
              static_cast<std::uint64_t>(kIterations));
  }
}

TEST(SnapshotTest, JsonRoundTripPreservesEverything) {
  Telemetry registry;
  registry.counter("iot.rounds").increment(3);
  registry.gauge("dp.epsilon_spent_total").set(0.12345678901234567);
  auto& hist = registry.histogram("market.sale_price");
  hist.record(10.0);
  hist.record(99.5);
  hist.record(1e6);

  const auto snap = registry.snapshot();
  const auto parsed = TelemetrySnapshot::from_json(snap.to_json());

  ASSERT_EQ(parsed.counters.size(), snap.counters.size());
  EXPECT_EQ(parsed.counters[0].first, "iot.rounds");
  EXPECT_EQ(parsed.counters[0].second, 3u);
  ASSERT_EQ(parsed.gauges.size(), 1u);
  // max_digits10 serialization: doubles survive bit-exactly.
  EXPECT_EQ(parsed.gauges[0].second, snap.gauges[0].second);
  ASSERT_EQ(parsed.histograms.size(), 1u);
  const auto& h0 = parsed.histograms[0];
  const auto& h1 = snap.histograms[0];
  EXPECT_EQ(h0.name, h1.name);
  EXPECT_EQ(h0.count, h1.count);
  EXPECT_EQ(h0.sum, h1.sum);
  EXPECT_EQ(h0.min, h1.min);
  EXPECT_EQ(h0.max, h1.max);
  EXPECT_EQ(h0.p50, h1.p50);
  EXPECT_EQ(h0.bounds, h1.bounds);
  EXPECT_EQ(h0.bucket_counts, h1.bucket_counts);
}

TEST(SnapshotTest, JsonEscapesControlCharactersAndRoundTrips) {
  Telemetry registry;
  const std::string name = "odd\x01\"name\n";
  registry.counter(name).increment();
  const std::string json = registry.snapshot().to_json();
  EXPECT_NE(json.find("\"odd\\u0001\\\"name\\n\": 1"), std::string::npos)
      << json;
  EXPECT_EQ(json.find('\x01'), std::string::npos) << json;
  const auto parsed = TelemetrySnapshot::from_json(json);
  ASSERT_EQ(parsed.counters.size(), 1u);
  EXPECT_EQ(parsed.counters[0].first, name);
}

TEST(SnapshotTest, FromJsonRejectsMalformedInput) {
  EXPECT_THROW(TelemetrySnapshot::from_json(""), std::invalid_argument);
  EXPECT_THROW(TelemetrySnapshot::from_json("not json"),
               std::invalid_argument);
  EXPECT_THROW(TelemetrySnapshot::from_json("{\"counters\": ["),
               std::invalid_argument);

  // Counts that no std::uint64_t can hold are rejected, not cast.
  const auto with_counter = [](const std::string& value) {
    return "{\"counters\": {\"a.count\": " + value +
           "}, \"gauges\": {}, \"histograms\": {}}";
  };
  EXPECT_NO_THROW(TelemetrySnapshot::from_json(with_counter("7")));
  for (const char* bad : {"-1", "2.5", "inf", "nan", "1e300"}) {
    EXPECT_THROW(TelemetrySnapshot::from_json(with_counter(bad)),
                 std::invalid_argument)
        << bad;
  }

  Telemetry registry;
  registry.histogram("c.hist").record(2.0);
  const std::string good = registry.snapshot().to_json();
  EXPECT_NO_THROW(TelemetrySnapshot::from_json(good));
  const auto replaced = [&good](const std::string& from,
                                const std::string& to) {
    std::string text = good;
    text.replace(text.find(from), from.size(), to);
    return text;
  };
  EXPECT_THROW(TelemetrySnapshot::from_json(
                   replaced("\"count\": 1", "\"count\": -1")),
               std::invalid_argument);
  EXPECT_THROW(TelemetrySnapshot::from_json(
                   replaced("\"count\": 1", "\"count\": 1.5")),
               std::invalid_argument);
  EXPECT_THROW(TelemetrySnapshot::from_json(
                   replaced("\"bucket_counts\": [0", "\"bucket_counts\": [-3")),
               std::invalid_argument);
  EXPECT_THROW(TelemetrySnapshot::from_json(
                   replaced("\"p95\": ", "\"p97\": ")),
               std::invalid_argument);
  EXPECT_THROW(TelemetrySnapshot::from_json(
                   replaced("\"count\": 1, ", "")),
               std::invalid_argument);
  EXPECT_THROW(TelemetrySnapshot::from_json(good + "}"),
               std::invalid_argument);
  EXPECT_THROW(TelemetrySnapshot::from_json(good + "trailing"),
               std::invalid_argument);
}

TEST(SnapshotTest, CsvHasOneRowPerScalar) {
  Telemetry registry;
  registry.counter("a.count").increment();
  registry.gauge("b.gauge").set(1.0);
  registry.histogram("c.hist").record(2.0);
  const std::string csv = registry.snapshot().to_csv();
  EXPECT_NE(csv.find("kind,name,field,value"), std::string::npos);
  EXPECT_NE(csv.find("counter,a.count,value,1"), std::string::npos);
  EXPECT_NE(csv.find("gauge,b.gauge,value,1"), std::string::npos);
  EXPECT_NE(csv.find("histogram,c.hist,count,1"), std::string::npos);
  EXPECT_NE(csv.find("histogram,c.hist,p99,"), std::string::npos);
}

TEST(ScopedTimerTest, RecordsElapsedMicroseconds) {
  Telemetry registry;
  auto& hist = registry.histogram("timer.us");
  { ScopedTimer timer(hist); }
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_GE(snap.min, 0.0);
  EXPECT_LT(snap.max, 1e6);  // an empty scope takes far less than a second
}

TEST(DefaultBoundsTest, StrictlyIncreasingAndWide) {
  const auto& bounds = default_bounds();
  ASSERT_GE(bounds.size(), 2u);
  EXPECT_LE(bounds.front(), 1e-6);
  EXPECT_GE(bounds.back(), 1e9);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

}  // namespace
}  // namespace prc::telemetry
