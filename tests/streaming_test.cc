// Continuous data collection: appends, delta resyncs and the full-resync
// fallback, and estimator correctness over a stream of arrivals.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>

#include "common/rng.h"
#include "common/statistics.h"
#include "estimator/rank_counting.h"
#include "iot/network.h"
#include "query/range_query.h"
#include "sampling/local_sampler.h"

namespace prc {
namespace {

TEST(LocalSamplerAppendTest, GrowsDataAndKeepsRanksSorted) {
  sampling::LocalSampler sampler({2.0, 6.0, 10.0});
  Rng rng(1);
  sampler.raise_probability(1.0, rng);
  sampler.append({4.0, 8.0}, rng);
  EXPECT_EQ(sampler.data_count(), 5u);
  const auto set = sampler.current_sample();
  ASSERT_EQ(set.size(), 5u);  // p = 1: newcomers all sampled
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(set.samples()[i].rank, i + 1);
  }
  EXPECT_EQ(set.samples()[1].value, 4.0);  // rank 2 after re-sort
}

TEST(LocalSamplerAppendTest, EmptyAppendIsNoOp) {
  sampling::LocalSampler sampler({1.0});
  Rng rng(2);
  sampler.raise_probability(0.5, rng);
  const auto count = sampler.sample_count();
  sampler.append({}, rng);
  EXPECT_EQ(sampler.data_count(), 1u);
  EXPECT_EQ(sampler.sample_count(), count);
}

// Reference for append(): the stable sort of (old data, batch) with each
// newcomer's flag drawn in arrival order from a copy of the same stream.
// Checks the merged order and flags, the delta's arrival gaps, and that the
// sampler consumed exactly one Bernoulli(p) call per newcomer.
void expect_append_matches_stable_sort(std::vector<double> initial,
                                       double p,
                                       const std::vector<double>& batch) {
  sampling::LocalSampler sampler(initial);
  Rng rng(17);
  sampler.raise_probability(p, rng);
  sampler.mark_reported();

  std::sort(initial.begin(), initial.end());
  std::vector<std::pair<double, bool>> reference;  // (value, selected)
  for (const double v : initial) reference.emplace_back(v, false);
  const auto before = sampler.current_sample();
  for (const auto& s : before.samples()) reference[s.rank - 1].second = true;
  const std::size_t old_count = reference.size();
  Rng expected_rng = rng;
  for (const double v : batch) {
    reference.emplace_back(v, expected_rng.bernoulli(p));
  }
  std::vector<std::size_t> order(reference.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
    return reference[a].first < reference[b].first;
  });

  sampler.append(batch, rng);
  EXPECT_EQ(rng(), expected_rng());  // same number of draws

  std::vector<sampling::RankedValue> expected_sample;
  std::vector<sampling::RankedValue> expected_added;
  std::vector<std::uint64_t> expected_gaps;
  std::uint64_t held = 0;
  for (std::size_t r = 0; r < order.size(); ++r) {
    const auto& [value, selected] = reference[order[r]];
    const bool newcomer = order[r] >= old_count;
    if (newcomer) expected_gaps.push_back(held);
    if (!selected) continue;
    expected_sample.push_back({value, r + 1});
    if (newcomer) {
      expected_added.push_back({value, r + 1});
    } else {
      ++held;
    }
  }
  EXPECT_EQ(sampler.data_count(), reference.size());
  EXPECT_EQ(sampler.sample_count(), expected_sample.size());
  EXPECT_EQ(sampler.current_sample().samples(), expected_sample);
  const auto delta = sampler.delta();
  EXPECT_EQ(delta.base_samples, held);
  EXPECT_EQ(delta.arrival_gaps, expected_gaps);
  EXPECT_EQ(delta.added, expected_added);
}

TEST(LocalSamplerAppendTest, MergeMatchesStableSortOfOldThenBatch) {
  std::vector<double> initial;
  for (int v = 0; v < 60; ++v) initial.push_back(static_cast<double>(v % 20));
  // 100 equal newcomers onto a value the data already holds three times.
  expect_append_matches_stable_sort(initial, 0.5,
                                    std::vector<double>(100, 7.0));
  // Mixed batch: ties with old values, ties within the batch, both ends.
  expect_append_matches_stable_sort(
      initial, 0.3, {19.0, -1.0, 7.0, 3.5, 7.0, 25.0, 0.0, 19.0, -1.0});
  expect_append_matches_stable_sort(initial, 0.5, {});
  // p = 0 and p = 1 draw nothing from the stream.
  expect_append_matches_stable_sort(initial, 0.0, {5.0, 5.0, 30.0});
  expect_append_matches_stable_sort(initial, 1.0, {5.0, 5.0, -3.0});
}

TEST(LocalSamplerAppendTest, NewcomersSampledAtCurrentProbability) {
  sampling::LocalSampler sampler(std::vector<double>(1000, 1.0));
  Rng rng(3);
  sampler.raise_probability(0.3, rng);
  const std::size_t before = sampler.sample_count();
  std::vector<double> fresh(20000, 2.0);
  sampler.append(fresh, rng);
  const double newcomer_rate =
      static_cast<double>(sampler.sample_count() - before) / 20000.0;
  EXPECT_NEAR(newcomer_rate, 0.3, 0.015);
}

TEST(LocalSamplerAppendTest, AppendThenTopUpKeepsMarginalInclusion) {
  // append at p=0.2 then raise to 0.5: every element (old or new) must end
  // up included with probability 0.5.
  const std::size_t n = 20000;
  std::vector<double> base(n, 1.0);
  sampling::LocalSampler sampler(base);
  Rng rng(4);
  sampler.raise_probability(0.2, rng);
  sampler.append(std::vector<double>(n, 2.0), rng);
  sampler.raise_probability(0.5, rng);
  EXPECT_NEAR(static_cast<double>(sampler.sample_count()) /
                  static_cast<double>(2 * n),
              0.5, 0.01);
}

// Byte-at-a-time reference for LocalSampler::delta() over readings with
// distinct values: walks the sorted readings once, as the sampler did
// before it read its state a word at a time.
sampling::SampleDelta reference_delta(const std::set<double>& readings,
                                      const std::set<double>& arrived,
                                      const std::set<double>& held_at_mark,
                                      const std::set<double>& selected) {
  sampling::SampleDelta delta;
  delta.base_samples = held_at_mark.size();
  std::uint64_t held = 0;
  std::uint64_t rank = 0;
  for (const double v : readings) {
    ++rank;
    if (arrived.count(v)) delta.arrival_gaps.push_back(held);
    if (!selected.count(v)) continue;
    if (held_at_mark.count(v)) {
      ++held;
    } else {
      delta.added.push_back({v, rank});
    }
  }
  return delta;
}

std::set<double> sampled_values(const sampling::LocalSampler& sampler) {
  std::set<double> values;
  const sampling::RankSampleSet sample = sampler.current_sample();
  for (const auto& s : sample.samples()) {
    values.insert(s.value);
  }
  return values;
}

void expect_delta_eq(const sampling::SampleDelta& actual,
                     const sampling::SampleDelta& expected,
                     const std::string& where) {
  EXPECT_EQ(actual.base_samples, expected.base_samples) << where;
  EXPECT_EQ(actual.arrival_gaps, expected.arrival_gaps) << where;
  EXPECT_EQ(actual.added, expected.added) << where;
}

// delta() reads the node's state eight readings at a time and visits only
// the words with a change.  Every data size from 1 to 70 puts changes at
// both ends of a word (positions 0, 7, 8, 15) and in the last, partial
// word (n - 1): arrivals at those positions, a top-up alone over all n
// readings, arrivals and a top-up together, and then a second delta after
// mark_reported().
TEST(LocalSamplerDeltaTest, WordScanMatchesByteWalk) {
  constexpr std::size_t kEdges[] = {0, 7, 8, 15};
  // Runs in which a top-up selected the reading at 0, 7, 8, 15 and n - 1.
  std::vector<std::size_t> topped_up_edges(5, 0);
  for (std::size_t n = 1; n <= 70; ++n) {
    // The final readings are 0, 1, ..., n - 1.  With arrivals, those at
    // the edge positions arrive after the mark, largest first.
    std::set<double> readings;
    for (std::size_t v = 0; v < n; ++v) readings.insert(static_cast<double>(v));
    std::set<double> edges = {static_cast<double>(n - 1)};
    for (const std::size_t pos : kEdges) {
      if (pos < n) edges.insert(static_cast<double>(pos));
    }
    const std::vector<double> arrivals(edges.rbegin(), edges.rend());
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      for (const double top_up : {0.0, 0.8, 1.0}) {
        for (const bool arrive : {true, false}) {
          const std::string where = "n=" + std::to_string(n) +
                                    " seed=" + std::to_string(seed) +
                                    " top_up=" + std::to_string(top_up) +
                                    " arrive=" + std::to_string(arrive);
          std::vector<double> initial;
          for (const double v : readings) {
            if (!arrive || !edges.count(v)) initial.push_back(v);
          }
          sampling::LocalSampler sampler(initial);
          Rng rng(seed);
          sampler.raise_probability(0.5, rng);
          sampler.mark_reported();
          const std::set<double> held_at_mark = sampled_values(sampler);
          std::set<double> arrived;
          if (arrive) {
            sampler.append(arrivals, rng);
            arrived = edges;
          }
          sampler.raise_probability(top_up, rng);
          const std::set<double> selected = sampled_values(sampler);
          expect_delta_eq(
              sampler.delta(),
              reference_delta(readings, arrived, held_at_mark, selected),
              where);
          if (!arrive) {
            for (std::size_t e = 0; e < 5; ++e) {
              const double v = static_cast<double>(e < 4 ? kEdges[e] : n - 1);
              if (selected.count(v) && !held_at_mark.count(v)) {
                ++topped_up_edges[e];
              }
            }
          }

          // A fresh mark: nothing changed, then readings arrive at both
          // ends and in between (distinct values off the integers) and a
          // top-up to certainty selects every reading left.
          sampler.mark_reported();
          expect_delta_eq(sampler.delta(),
                          reference_delta(readings, {}, selected, selected),
                          where + " marked");
          const std::vector<double> later = {
              static_cast<double>(n) + 0.125, -0.5, 7.5,
              static_cast<double>(n) / 2.0 + 0.25};
          sampler.append(later, rng);
          sampler.raise_probability(1.0, rng);
          std::set<double> later_readings = readings;
          later_readings.insert(later.begin(), later.end());
          expect_delta_eq(
              sampler.delta(),
              reference_delta(later_readings,
                              std::set<double>(later.begin(), later.end()),
                              selected, sampled_values(sampler)),
              where + " after mark");
        }
      }
    }
  }
  for (std::size_t e = 0; e < 5; ++e) {
    EXPECT_GT(topped_up_edges[e], 0u) << "edge " << e;
  }
}

TEST(SensorNodeStreamingTest, DirtyFlagLifecycle) {
  iot::SensorNode node(0, {1.0, 2.0}, Rng(5));
  node.handle(iot::SampleRequest{0, 1.0});
  node.acknowledge();
  EXPECT_FALSE(node.has_unreported_changes());
  // An append is a delta, not a reason for a full resync.
  node.append_data({3.0});
  EXPECT_FALSE(node.dirty());
  EXPECT_TRUE(node.has_unreported_changes());
  const auto delta = node.report();
  EXPECT_EQ(delta.arrival_gaps, std::vector<std::uint32_t>{2});
  EXPECT_EQ(delta.base_samples, 2u);
  // A lost report forces the fallback until the station accepts one.
  node.invalidate_cached_sample();
  EXPECT_TRUE(node.dirty());
  const auto full = node.report();
  EXPECT_FALSE(full.has_arrivals());
  EXPECT_EQ(full.data_count, 3u);
  EXPECT_EQ(full.new_samples, node.current_sample().samples());
  node.acknowledge();
  EXPECT_FALSE(node.dirty());
  EXPECT_FALSE(node.has_unreported_changes());
}

TEST(FlatNetworkStreamingTest, AppendUpdatesTotalsAfterRefresh) {
  iot::FlatNetwork network({{1.0, 2.0, 3.0}, {4.0, 5.0}});
  network.ensure_sampling_probability(0.5);
  EXPECT_EQ(network.base_station().view()->total_data_count, 5u);
  network.append_data(0, {10.0, 11.0});
  EXPECT_EQ(network.total_data_count(), 7u);
  // The station is stale until refresh.
  EXPECT_EQ(network.base_station().view()->total_data_count, 5u);
  EXPECT_EQ(network.refresh_samples(), 1u);
  EXPECT_EQ(network.base_station().view()->total_data_count, 7u);
  // Nothing dirty left.
  EXPECT_EQ(network.refresh_samples(), 0u);
}

TEST(FlatNetworkStreamingTest, RefreshChargesOnlyTheDelta) {
  iot::FlatNetwork network({std::vector<double>(2000, 1.0)});
  network.ensure_sampling_probability(0.5);
  // Consecutive deltas chain: each names the base the previous one left.
  for (std::uint32_t batch = 0; batch < 3; ++batch) {
    const auto bytes_before = network.stats().uplink_bytes;
    network.append_data(0, std::vector<double>(100, 2.0 + batch));
    iot::SensorNode probe = network.node(0);  // report() may mark it dirty
    const auto delta = probe.report();
    ASSERT_EQ(delta.arrival_gaps.size(), 100u);
    EXPECT_EQ(delta.base_sequence, batch);
    EXPECT_EQ(delta.base_samples,
              network.base_station().cached_sample_count());
    const std::size_t frames =
        std::max<std::size_t>(1, (delta.new_samples.size() + 63) / 64);
    EXPECT_EQ(network.refresh_samples(), 1u);
    // The arrivals section plus ~50 new samples, not the >1000-sample
    // resend.
    EXPECT_EQ(network.stats().uplink_bytes - bytes_before,
              delta.wire_size() + (frames - 1) * iot::kMessageHeaderBytes);
    EXPECT_LT(network.stats().uplink_bytes - bytes_before, 900u * 16u);
    EXPECT_FALSE(network.node(0).has_unreported_changes());
    EXPECT_EQ(network.base_station().node_views()[0].samples->samples(),
              network.node(0).current_sample().samples());
  }
}

TEST(FlatNetworkStreamingTest, OfflineNodeDefersResync) {
  iot::FlatNetwork network({{1.0, 2.0}, {3.0, 4.0}});
  network.ensure_sampling_probability(0.5);
  network.append_data(1, {5.0});
  network.set_node_online(1, false);
  EXPECT_EQ(network.refresh_samples(), 0u);  // deferred
  network.set_node_online(1, true);
  EXPECT_EQ(network.refresh_samples(), 1u);
  EXPECT_EQ(network.base_station().view()->total_data_count, 5u);
}

TEST(FlatNetworkStreamingTest, EstimatesStayUnbiasedAcrossArrivals) {
  // Stream batches into the network and check the estimator tracks the
  // growing truth: mean estimate over trials stays within CI of the truth.
  const double p = 0.25;
  const query::RangeQuery range{100.5, 700.5};
  RunningStats final_estimates;
  const int trials = 600;
  for (int t = 0; t < trials; ++t) {
    std::vector<std::vector<double>> initial(2);
    for (int v = 0; v < 400; ++v) {
      initial[v % 2].push_back(static_cast<double>(v));
    }
    iot::NetworkConfig config;
    config.seed = static_cast<std::uint64_t>(t) * 7 + 1;
    iot::FlatNetwork network(std::move(initial), config);
    network.ensure_sampling_probability(p);
    // Two arrival batches extend the domain to 0..799.
    std::vector<double> batch1, batch2;
    for (int v = 400; v < 600; ++v) batch1.push_back(static_cast<double>(v));
    for (int v = 600; v < 800; ++v) batch2.push_back(static_cast<double>(v));
    network.append_data(0, batch1);
    network.refresh_samples();
    network.append_data(1, batch2);
    network.refresh_samples();
    final_estimates.add(network.rank_counting_estimate(range));
  }
  const double truth = 600.0;  // values 101..700
  const double var_bound = 8.0 * 2.0 / (p * p);
  EXPECT_NEAR(final_estimates.mean(), truth,
              5.0 * std::sqrt(var_bound / trials));
  EXPECT_LE(final_estimates.variance(), var_bound * 1.1);
}

TEST(FlatNetworkStreamingTest, AppendToUnknownNodeThrows) {
  iot::FlatNetwork network(std::vector<std::vector<double>>{{1.0}});
  EXPECT_THROW(network.append_data(5, {2.0}), std::out_of_range);
}

}  // namespace
}  // namespace prc
