#include "iot/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "common/trace.h"
#include "estimator/rank_counting.h"
#include "query/range_query.h"

namespace prc::iot {
namespace {

std::vector<std::vector<double>> grid_node_data(std::size_t nodes,
                                                std::size_t per_node) {
  std::vector<std::vector<double>> data(nodes);
  double v = 0.0;
  for (std::size_t i = 0; i < nodes; ++i) {
    for (std::size_t j = 0; j < per_node; ++j) data[i].push_back(v += 1.0);
  }
  return data;
}

TEST(SensorNodeTest, RejectsMisroutedRequests) {
  SensorNode node(3, {1.0, 2.0}, Rng(1));
  EXPECT_THROW(node.handle(SampleRequest{4, 0.5}), std::invalid_argument);
}

TEST(SensorNodeTest, OfflineNodeReportsNothing) {
  SensorNode node(0, {1.0, 2.0, 3.0}, Rng(2));
  node.set_online(false);
  const auto report = node.handle(SampleRequest{0, 1.0});
  EXPECT_TRUE(report.new_samples.empty());
  EXPECT_EQ(report.data_count, 3u);
  node.set_online(true);
  const auto report2 = node.handle(SampleRequest{0, 1.0});
  EXPECT_EQ(report2.new_samples.size(), 3u);
}

TEST(BaseStationTest, RequiresAtLeastOneNode) {
  EXPECT_THROW(BaseStation(0), std::invalid_argument);
}

TEST(BaseStationTest, IngestTracksCounts) {
  BaseStation station(2);
  SampleReport report;
  report.node_id = 1;
  report.data_count = 50;
  report.new_samples = {{3.0, 3}, {7.0, 7}};
  station.ingest(report);
  EXPECT_EQ(station.view()->total_data_count, 50u);
  EXPECT_EQ(station.cached_sample_count(), 2u);
  EXPECT_THROW(station.ingest(SampleReport{5, 1, {}}), std::out_of_range);
}

TEST(BaseStationTest, IngestShiftsRanksByArrivalsAndRejectsMismatchedBase) {
  // Node data 1..10, samples at ranks 2, 5, 9; then 0.5, 4.5 and 11 arrive
  // (4.5 sampled), landing before sample 0, before sample 1 and after all.
  BaseStation station(1);
  ASSERT_TRUE(station.ingest(SampleReport{0, 10, {{2.0, 2}, {5.0, 5}, {9.0, 9}}}));
  const auto cached = [&] { return station.node_views()[0].samples->samples(); };
  const auto before = cached();
  SampleReport delta;
  delta.node_id = 0;
  delta.data_count = 13;
  delta.new_samples = {{4.5, 6}};
  delta.base_sequence = 0;
  delta.base_samples = 3;
  delta.arrival_gaps = {0, 1, 3};

  SampleReport wrong_sequence = delta;
  wrong_sequence.base_sequence = 1;
  SampleReport wrong_count = delta;
  wrong_count.base_samples = 2;
  for (const auto& stale : {wrong_sequence, wrong_count}) {
    EXPECT_FALSE(station.ingest(stale));
    EXPECT_EQ(cached(), before);  // cache untouched
    EXPECT_EQ(station.view()->total_data_count, 10u);
  }

  ASSERT_TRUE(station.ingest(delta));
  const std::vector<sampling::RankedValue> expected = {
      {2.0, 3}, {4.5, 6}, {5.0, 7}, {9.0, 11}};
  EXPECT_EQ(cached(), expected);
  EXPECT_EQ(station.view()->total_data_count, 13u);
  // The base moved on: replaying the same delta is rejected.
  delta.base_samples = 4;
  EXPECT_FALSE(station.ingest(delta));
  EXPECT_EQ(cached(), expected);
  // Malformed gaps are a contract violation, not a silent mismatch.
  SampleReport unsorted = delta;
  unsorted.base_sequence = 1;
  unsorted.arrival_gaps = {2, 1};
  EXPECT_THROW(station.ingest(unsorted), std::invalid_argument);
}

TEST(BaseStationTest, RoundCommitRules) {
  BaseStation station(1);
  EXPECT_THROW(station.commit_round(0.0), std::invalid_argument);
  station.commit_round(0.5);
  EXPECT_THROW(station.commit_round(0.3), std::invalid_argument);
  station.commit_round(0.7);
  EXPECT_DOUBLE_EQ(station.view()->coverage.target_p, 0.7);
}

TEST(BaseStationTest, EstimateRequiresCommittedRound) {
  BaseStation station(1);
  const auto view = station.view();
  EXPECT_THROW(view->rank_counting_estimate({0.0, 1.0}), std::logic_error);
  EXPECT_THROW(view->basic_counting_estimate({0.0, 1.0}), std::logic_error);
}

TEST(BaseStationTest, NoopRoundReportMatchesPerNodeStanding) {
  BaseStation station(3);
  station.ingest(SampleReport{0, 10, {{1.0, 1}}});
  station.ingest(SampleReport{1, 20, {{2.0, 2}}});
  station.commit_round(0.2, {true, true, false});
  station.commit_round(0.5, {true, false, false});

  const auto view = station.view();
  EXPECT_EQ(view->noop_round_report(0.6), std::nullopt);
  const auto report = view->noop_round_report(0.4);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->target_p, 0.4);
  ASSERT_EQ(report->outcomes.size(), 3u);
  EXPECT_EQ(report->outcomes[0], NodeOutcome::kDelivered);  // p_0 = 0.5
  EXPECT_EQ(report->outcomes[1], NodeOutcome::kStale);      // p_1 = 0.2
  EXPECT_EQ(report->outcomes[2], NodeOutcome::kOffline);    // never reported
  EXPECT_EQ(report->new_samples, 0u);
  EXPECT_EQ(report->retries, 0u);
  EXPECT_EQ(report->coverage, view->coverage.coverage);
  EXPECT_EQ(report->min_probability, view->coverage.min_probability);
  EXPECT_EQ(view->probabilities, (std::vector<double>{0.5, 0.2, 0.0}));
  EXPECT_EQ(view->reported, (std::vector<bool>{true, true, false}));
  EXPECT_EQ(view->coverage.stale_nodes, 1u);
}

TEST(BaseStationTest, MaxNodeDataCount) {
  BaseStation station(3);
  EXPECT_EQ(station.view()->max_data_count, 0u);
  station.ingest(SampleReport{0, 10, {}});
  station.ingest(SampleReport{2, 35, {}});
  station.ingest(SampleReport{1, 20, {}});
  const auto view = station.view();
  EXPECT_EQ(view->max_data_count, 35u);
  EXPECT_EQ(view->total_data_count, 65u);
  EXPECT_EQ(view->node_count(), 3u);
}

// Node 0's full report in the two-node station the view tests use.
SampleReport snapshot_node0() {
  return SampleReport{0, 100, {{10.0, 10}, {50.0, 50}, {90.0, 90}}};
}

BaseStation snapshot_station() {
  BaseStation station(2);
  station.ingest(snapshot_node0());
  station.ingest(SampleReport{1, 40, {{5.0, 4}, {30.0, 20}}});
  station.commit_round(0.2);
  return station;
}

TEST(BaseStationTest, SnapshotIgnoresLaterMutations) {
  BaseStation station = snapshot_station();
  const std::vector<query::RangeQuery> ranges{{20.0, 60.0}, {0.0, 100.0}};
  const auto view = station.view();
  std::vector<double> before;
  for (const auto& range : ranges) {
    before.push_back(view->rank_counting_estimate(range));
  }

  // Merge into node 0, resync node 1, raise the round target: every kind of
  // write the cache takes.
  station.ingest(SampleReport{0, 100, {{15.0, 15}, {70.0, 70}}});
  station.replace(SampleReport{1, 45, {{25.0, 15}}});
  station.commit_round(0.5);
  // The new view takes over both ranges' entries in the station's table.
  for (std::size_t r = 0; r < ranges.size(); ++r) {
    ASSERT_NE(station.view()->rank_counting_estimate(ranges[r]), before[r]);
  }

  for (std::size_t r = 0; r < ranges.size(); ++r) {
    EXPECT_EQ(view->rank_counting_estimate(ranges[r]), before[r]);
  }
  EXPECT_EQ(view->nodes[0].data_count, 100u);
  EXPECT_EQ(view->nodes[1].data_count, 40u);
  EXPECT_EQ(view->nodes[0].samples->size(), 3u);
  EXPECT_EQ(view->probabilities, (std::vector<double>{0.2, 0.2}));
  EXPECT_EQ(view->coverage.target_p, 0.2);
  EXPECT_EQ(view->total_data_count, 140u);
  EXPECT_EQ(view->cached_samples, 5u);
}

TEST(BaseStationTest, ViewIsRebuiltOnlyAfterAChange) {
  BaseStation station = snapshot_station();
  auto view = station.view();
  EXPECT_EQ(station.view(), view);
  EXPECT_EQ(station.view(), view);

  // A delta whose base does not match is rejected and changes nothing.
  SampleReport stale{0, 101, {}};
  stale.base_sequence = 7;
  stale.base_samples = 3;
  stale.arrival_gaps = {0};
  ASSERT_FALSE(station.ingest(stale));
  EXPECT_EQ(station.view(), view);

  const auto changed = [&] {
    const auto next = station.view();
    const bool rebuilt = next != view;
    view = next;
    return rebuilt && station.view() == next;
  };
  ASSERT_TRUE(station.ingest(SampleReport{0, 100, {{15.0, 15}}}));
  EXPECT_TRUE(changed());
  station.replace(SampleReport{1, 45, {{25.0, 15}}});
  EXPECT_TRUE(changed());
  station.commit_round(0.5);
  EXPECT_TRUE(changed());
  station.commit_round(0.5, {true, false});
  EXPECT_TRUE(changed());
}

TEST(BaseStationTest, ConcurrentIngestAndEstimate) {
  // A writer flips node 0 between its base cache A (replace) and A plus a
  // delta (ingest), committing the (unchanged) round target after each; a
  // reader estimates from a fresh view throughout, and from one view it
  // took before the writer started.  Every estimate must be the estimate of
  // one of the two published states, never a mix.
  const query::RangeQuery range{20.0, 60.0};
  const SampleReport delta{0, 100, {{15.0, 15}, {70.0, 70}}};
  BaseStation station = snapshot_station();
  const auto held = station.view();
  const double estimate_a = held->rank_counting_estimate(range);
  station.ingest(delta);
  const double estimate_b = station.view()->rank_counting_estimate(range);
  ASSERT_NE(estimate_a, estimate_b);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < 2000; ++i) {
      station.replace(snapshot_node0());
      station.commit_round(0.2);
      station.ingest(delta);
      station.commit_round(0.2);
    }
    done.store(true);
  });
  std::size_t estimates = 0;
  std::size_t mismatches = 0;
  while (!done.load() || estimates == 0) {
    const double estimate = station.view()->rank_counting_estimate(range);
    if (estimate != estimate_a && estimate != estimate_b) ++mismatches;
    if (held->rank_counting_estimate(range) != estimate_a) ++mismatches;
    ++estimates;
  }
  writer.join();
  EXPECT_EQ(mismatches, 0u) << "over " << estimates << " estimates";
  EXPECT_EQ(station.view()->rank_counting_estimate(range), estimate_b);
}

// Four nodes of 500 records (node i holds i * 500 + 1 .. i * 500 + 500, the
// value equal to its rank plus the offset) sampled at p = 0.2; then a
// degraded top-up to 0.5 that only nodes 0 and 1 deliver, so the pᵢ are
// {0.5, 0.5, 0.2, 0.2}.
BaseStation heterogeneous_station() {
  constexpr std::size_t kNodes = 4;
  constexpr std::size_t kPerNode = 500;
  BaseStation station(kNodes);
  Rng rng(2024);
  std::vector<SampleReport> top_ups;
  for (std::size_t i = 0; i < kNodes; ++i) {
    SampleReport first{static_cast<int>(i), kPerNode, {}};
    SampleReport top_up{static_cast<int>(i), kPerNode, {}};
    for (std::size_t rank = 1; rank <= kPerNode; ++rank) {
      const double value = static_cast<double>(i * kPerNode + rank);
      const double u = rng.uniform();
      if (u < 0.2) first.new_samples.push_back({value, rank});
      if (u >= 0.2 && u < 0.5) top_up.new_samples.push_back({value, rank});
    }
    station.ingest(first);
    top_ups.push_back(std::move(top_up));
  }
  station.commit_round(0.2);
  station.ingest(top_ups[0]);
  station.ingest(top_ups[1]);
  station.commit_round(0.5, {true, true, false, false});
  return station;
}

// The estimator over the view's samples, computed afresh (no table).
double direct_estimate(const StationView& view,
                       const query::RangeQuery& range) {
  return estimator::rank_counting_estimate(view.nodes, view.probabilities,
                                           range);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(BaseStationTest, MemoizedEstimateIsBitIdenticalToTheEstimator) {
  const BaseStation station = heterogeneous_station();
  const auto view = station.view();
  ASSERT_EQ(view->probabilities, (std::vector<double>{0.5, 0.5, 0.2, 0.2}));

  // 1 000 seeded ranges drawn from 100 distinct ones, so most are repeats
  // the station's table serves.
  Rng rng(7);
  std::vector<query::RangeQuery> distinct;
  for (int i = 0; i < 100; ++i) {
    const double a = rng.uniform(-100.0, 2100.0);
    const double b = rng.uniform(-100.0, 2100.0);
    distinct.push_back({std::min(a, b), std::max(a, b)});
  }
  for (int i = 0; i < 1000; ++i) {
    const auto& range = distinct[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(distinct.size()) - 1))];
    ASSERT_EQ(bits(view->rank_counting_estimate(range)),
              bits(direct_estimate(*view, range)))
        << "range [" << range.lower << ", " << range.upper << "]";
  }

  // Bounds one ulp apart around sampled values: the table must tell them
  // apart in either bound.
  const double lo = view->nodes[0].samples->samples().front().value;
  const double hi = view->nodes[3].samples->samples().back().value;
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<query::RangeQuery> near{
      {lo, hi},
      {lo, std::nextafter(hi, -inf)},
      {std::nextafter(lo, -inf), hi},
      {std::nextafter(lo, inf), std::nextafter(hi, inf)}};
  ASSERT_NE(direct_estimate(*view, near[0]), direct_estimate(*view, near[1]));
  ASSERT_NE(direct_estimate(*view, near[0]), direct_estimate(*view, near[2]));
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& range : near) {
      EXPECT_EQ(bits(view->rank_counting_estimate(range)),
                bits(direct_estimate(*view, range)));
    }
  }

  // 0.0 and -0.0 are distinct keys with the same estimate.
  for (const query::RangeQuery range :
       {query::RangeQuery{0.0, 700.0}, query::RangeQuery{-0.0, 700.0},
        query::RangeQuery{-10.0, 0.0}, query::RangeQuery{-10.0, -0.0}}) {
    EXPECT_EQ(bits(view->rank_counting_estimate(range)),
              bits(direct_estimate(*view, range)));
  }
}

TEST(BaseStationTest, EveryChangePublishesAViewWithItsOwnEstimates) {
  BaseStation station = snapshot_station();
  const query::RangeQuery range{20.0, 60.0};
  auto old_view = station.view();
  double old_estimate = old_view->rank_counting_estimate(range);

  const auto expect_fresh = [&](const char* change) {
    const auto view = station.view();
    ASSERT_NE(view, old_view) << change;
    const double estimate = view->rank_counting_estimate(range);
    EXPECT_EQ(bits(estimate), bits(direct_estimate(*view, range))) << change;
    EXPECT_NE(estimate, old_estimate) << change;
    EXPECT_EQ(bits(old_view->rank_counting_estimate(range)),
              bits(old_estimate))
        << change;
    old_view = view;
    old_estimate = estimate;
  };
  ASSERT_TRUE(station.ingest(SampleReport{0, 100, {{15.0, 15}}}));
  expect_fresh("ingest");
  station.replace(SampleReport{1, 45, {{25.0, 15}, {45.0, 30}}});
  expect_fresh("replace");
  station.commit_round(0.5, {true, false});
  expect_fresh("commit_round");
}

TEST(BaseStationTest, EstimateMemoStaysWithinItsCapacity) {
  const BaseStation station = heterogeneous_station();
  const auto view = station.view();
  constexpr std::size_t kCapacity = StationView::kEstimateMemoCapacity;
  std::vector<query::RangeQuery> ranges;
  for (std::size_t i = 0; i < kCapacity + 50; ++i) {
    ranges.push_back({static_cast<double>(i), static_cast<double>(i) + 900.0});
  }
  for (const auto& range : ranges) {
    view->rank_counting_estimate(range);
    EXPECT_LE(view->memoized_estimates(), kCapacity);
  }
  EXPECT_EQ(view->memoized_estimates(), kCapacity);
  // Evicted ranges are computed again, still exactly.
  for (const auto& range : ranges) {
    ASSERT_EQ(bits(view->rank_counting_estimate(range)),
              bits(direct_estimate(*view, range)));
  }
  EXPECT_EQ(view->memoized_estimates(), kCapacity);
}

TEST(BaseStationTest, MemoConcurrentIngestAndEstimate) {
  // Four readers hammer a handful of repeated ranges on one shared view,
  // racing each other's table misses and hits, while the station ingests
  // and commits behind them and asks its newer views for the first range,
  // which takes that range's table entry away from the readers' view.
  // Every estimate must be the direct one.
  BaseStation station = heterogeneous_station();
  const auto view = station.view();
  std::vector<query::RangeQuery> ranges;
  std::vector<double> expected;
  for (int i = 0; i < 8; ++i) {
    ranges.push_back({100.0 * i, 100.0 * i + 1200.0});
    expected.push_back(direct_estimate(*view, ranges.back()));
  }

  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < 4000; ++i) {
        const std::size_t r = static_cast<std::size_t>(i + t) % ranges.size();
        if (bits(view->rank_counting_estimate(ranges[r])) !=
            bits(expected[r])) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    station.replace(SampleReport{2, 500, {{1010.0, 10}, {1250.0, 250}}});
    station.commit_round(0.5, {false, false, true, false});
    station.view()->rank_counting_estimate(ranges[0]);
  }
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(view->memoized_estimates(), ranges.size());
}

// The iot.station_estimate spans recorded since the last call.
std::size_t station_estimate_spans() {
  auto& tracer = trace::Tracer::instance();
  std::size_t spans = 0;
  for (const auto& span : tracer.snapshot()) {
    if (span.name == "iot.station_estimate") ++spans;
  }
  EXPECT_EQ(tracer.dropped(), 0u);
  tracer.clear();
  return spans;
}

TEST(BaseStationTest, RepeatOnAViewIsATableHitAndOlderViewsStayExact) {
  BaseStation station = heterogeneous_station();
  const query::RangeQuery range{300.0, 1700.0};
  const auto old_view = station.view();
  station_estimate_spans();
  const double old_estimate = old_view->rank_counting_estimate(range);
  EXPECT_EQ(bits(old_estimate), bits(direct_estimate(*old_view, range)));
  EXPECT_EQ(station_estimate_spans(), 1u) << "first ask";
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(bits(old_view->rank_counting_estimate(range)),
              bits(old_estimate));
  }
  EXPECT_EQ(station_estimate_spans(), 0u) << "repeats on the same view";

  // One record arrives at node 2, above all its values and not sampled:
  // only node 2's n_i, and so its term, changes.
  SampleReport arrival{2, old_view->nodes[2].data_count + 1, {}};
  arrival.base_samples =
      static_cast<std::uint32_t>(old_view->nodes[2].samples->size());
  arrival.arrival_gaps = {arrival.base_samples};
  ASSERT_TRUE(station.ingest(arrival));
  const auto new_view = station.view();
  const double new_estimate = direct_estimate(*new_view, range);
  ASSERT_NE(new_estimate, old_estimate);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(bits(new_view->rank_counting_estimate(range)),
              bits(new_estimate))
        << "new view, round " << i;
    EXPECT_EQ(bits(old_view->rank_counting_estimate(range)),
              bits(old_estimate))
        << "old view, round " << i;
  }
}

// A station and the node data behind its cache, driven by seeded writes of
// every kind the station takes: ingest with arrivals, ingest of top-up
// samples, full replace, commit_round (partial, raising p or not) and a
// checkpoint round trip.  Which write comes next, on which node, comes from
// the op stream; the values come from the data stream.  Fleets that share
// an op seed bump the same node versions with different contents.
class RandomFleet {
 public:
  static constexpr double kDomain = 1000.0;

  RandomFleet(std::size_t k, std::uint64_t op_seed, std::uint64_t data_seed)
      : station(k), nodes_(k), ops_(op_seed), data_(data_seed) {
    for (std::size_t i = 0; i < k; ++i) {
      for (int j = 0; j < 40; ++j) {
        nodes_[i].data.push_back(data_.uniform(0.0, kDomain));
      }
      std::sort(nodes_[i].data.begin(), nodes_[i].data.end());
      resample(i);
    }
    station.commit_round(p_);
  }

  void reseed_data(std::uint64_t seed) { data_ = Rng(seed); }

  void step() {
    const auto k = static_cast<std::int64_t>(nodes_.size());
    const auto node = static_cast<std::size_t>(ops_.uniform_int(0, k - 1));
    switch (ops_.uniform_int(0, 9)) {
      case 0:
      case 1:
      case 2:
        arrive(node, static_cast<std::size_t>(ops_.uniform_int(1, 3)));
        break;
      case 3:
        top_up(node);
        break;
      case 4:
        resample(node);
        break;
      case 5:
      case 6: {
        std::vector<bool> refreshed(nodes_.size());
        for (std::size_t i = 0; i < refreshed.size(); ++i) {
          refreshed[i] = ops_.bernoulli(0.5);
        }
        p_ = std::min(1.0, p_ + ops_.uniform(0.0, 0.05));
        station.commit_round(p_, refreshed);
        break;
      }
      case 7:
        // Changes nothing: the next view keeps every version.
        station.commit_round(p_, std::vector<bool>(nodes_.size(), false));
        break;
      case 8:
        station = BaseStation::deserialize(station.serialize());
        for (auto& model : nodes_) model.sequence = 0;
        break;
      default:
        break;  // no write: the next view is the same one
    }
  }

  BaseStation station;

 private:
  struct NodeModel {
    std::vector<double> data;  // sorted; rank = index + 1
    std::vector<bool> sampled;
    std::uint32_t sequence = 0;
  };

  std::vector<sampling::RankedValue> cached(std::size_t node) const {
    std::vector<sampling::RankedValue> out;
    const auto& model = nodes_[node];
    for (std::size_t j = 0; j < model.data.size(); ++j) {
      if (model.sampled[j]) out.push_back({model.data[j], j + 1});
    }
    return out;
  }

  void resample(std::size_t node) {
    auto& model = nodes_[node];
    model.sampled.assign(model.data.size(), false);
    for (std::size_t j = 0; j < model.data.size(); ++j) {
      model.sampled[j] = data_.bernoulli(0.3);
    }
    station.replace(SampleReport{static_cast<int>(node), model.data.size(),
                                 cached(node)});
    model.sequence = 0;
  }

  void top_up(std::size_t node) {
    auto& model = nodes_[node];
    SampleReport report{static_cast<int>(node), model.data.size(), {}};
    for (std::size_t j = 0; j < model.data.size(); ++j) {
      if (!model.sampled[j] && data_.bernoulli(0.2)) {
        model.sampled[j] = true;
        report.new_samples.push_back({model.data[j], j + 1});
      }
    }
    ASSERT_TRUE(station.ingest(report));
  }

  void arrive(std::size_t node, std::size_t count) {
    auto& model = nodes_[node];
    const auto base = cached(node);
    SampleReport report{static_cast<int>(node), 0, {}};
    report.base_sequence = model.sequence;
    report.base_samples = static_cast<std::uint32_t>(base.size());
    std::vector<double> arrivals;
    for (std::size_t a = 0; a < count; ++a) {
      const double value = data_.uniform(0.0, kDomain);
      arrivals.push_back(value);
      // The arrival precedes every cached sample of a larger value.
      std::uint32_t gap = 0;
      while (gap < base.size() && base[gap].value < value) ++gap;
      report.arrival_gaps.push_back(gap);
      const auto at = std::lower_bound(model.data.begin(), model.data.end(),
                                       value) -
                      model.data.begin();
      model.data.insert(model.data.begin() + at, value);
      model.sampled.insert(model.sampled.begin() + at, false);
    }
    std::sort(report.arrival_gaps.begin(), report.arrival_gaps.end());
    for (const double value : arrivals) {
      if (!data_.bernoulli(0.3)) continue;
      const auto at = static_cast<std::size_t>(
          std::lower_bound(model.data.begin(), model.data.end(), value) -
          model.data.begin());
      model.sampled[at] = true;
      report.new_samples.push_back({value, at + 1});
    }
    report.data_count = model.data.size();
    ASSERT_TRUE(station.ingest(report));
    ++model.sequence;
  }

  std::vector<NodeModel> nodes_;
  Rng ops_;
  Rng data_;
  double p_ = 0.3;
};

TEST(BaseStationTest, EstimatesAfterEveryKindOfWriteMatchTheEstimatorBitwise) {
  // Twelve ranges, asked of every view: each view misses them once, and
  // the station's term table serves the nodes a write did not touch.
  std::vector<query::RangeQuery> ranges;
  Rng range_rng(99);
  for (int i = 0; i < 12; ++i) {
    const double a = range_rng.uniform(-50.0, RandomFleet::kDomain + 50.0);
    const double b = range_rng.uniform(-50.0, RandomFleet::kDomain + 50.0);
    ranges.push_back({std::min(a, b), std::max(a, b)});
  }
  const auto expect_exact = [&](const RandomFleet& fleet, const char* name,
                                int step) {
    const auto view = fleet.station.view();
    for (const auto& range : ranges) {
      ASSERT_EQ(bits(view->rank_counting_estimate(range)),
                bits(direct_estimate(*view, range)))
          << name << " step " << step << " range [" << range.lower << ", "
          << range.upper << "]";
    }
  };

  struct RestoreThreads {
    std::size_t count = parallel::thread_count();
    ~RestoreThreads() { parallel::set_thread_count(count); }
  } restore;
  // k = 300 spans two reduce chunks.
  for (const std::size_t k : {std::size_t{32}, std::size_t{300}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(testing::Message()
                   << "k = " << k << ", threads = " << threads);
      parallel::set_thread_count(threads);
      // `other` takes the same writes as `main` on other data, so its term
      // table holds entries at exactly main's versions.
      RandomFleet main(k, 11, 1);
      RandomFleet other(k, 11, 2);
      for (int step = 0; step < 40; ++step) {
        main.step();
        other.step();
        expect_exact(main, "main", step);
        expect_exact(other, "other", step);
      }
      // Both diverge from main with the same writes on other data: a table
      // shared with main, or `other`'s old table kept across the
      // assignment, would hand them main's (or old) terms at equal versions.
      RandomFleet copy(main);
      copy.reseed_data(3);
      other = main;
      other.reseed_data(4);
      for (int step = 0; step < 40; ++step) {
        main.step();
        copy.step();
        other.step();
        expect_exact(main, "main", 40 + step);
        expect_exact(copy, "copy", 40 + step);
        expect_exact(other, "assigned", 40 + step);
      }
    }
  }
}

TEST(FlatNetworkTest, ConstructionValidation) {
  EXPECT_THROW(FlatNetwork({}), std::invalid_argument);
  NetworkConfig bad;
  bad.frame_loss_probability = 1.0;
  EXPECT_THROW(FlatNetwork(grid_node_data(1, 5), bad), std::invalid_argument);
}

TEST(FlatNetworkTest, SamplingRoundPopulatesBaseStation) {
  FlatNetwork network(grid_node_data(4, 100));
  EXPECT_EQ(network.node_count(), 4u);
  EXPECT_EQ(network.total_data_count(), 400u);
  const std::size_t added = network.ensure_sampling_probability(0.25).new_samples;
  EXPECT_GT(added, 0u);
  EXPECT_EQ(network.base_station().cached_sample_count(), added);
  EXPECT_EQ(network.base_station().view()->total_data_count, 400u);
  EXPECT_DOUBLE_EQ(network.base_station().view()->coverage.target_p, 0.25);
}

TEST(FlatNetworkTest, RepeatRoundsAreIncremental) {
  FlatNetwork network(grid_node_data(2, 500));
  const std::size_t first = network.ensure_sampling_probability(0.1).new_samples;
  const std::size_t again = network.ensure_sampling_probability(0.1).new_samples;
  EXPECT_EQ(again, 0u);  // same p: nothing new
  const std::size_t second = network.ensure_sampling_probability(0.3).new_samples;
  EXPECT_GT(second, 0u);
  EXPECT_EQ(network.base_station().cached_sample_count(), first + second);
}

TEST(FlatNetworkTest, CommunicationAccounting) {
  FlatNetwork network(grid_node_data(3, 200));
  const auto& before = network.stats();
  EXPECT_EQ(before.total_bytes(), 0u);
  network.ensure_sampling_probability(0.5);
  const auto& stats = network.stats();
  // One downlink request per node.
  EXPECT_EQ(stats.downlink_messages, 3u);
  EXPECT_EQ(stats.downlink_bytes,
            3u * (kMessageHeaderBytes + sizeof(double)));
  EXPECT_GT(stats.uplink_bytes, 0u);
  EXPECT_EQ(stats.retransmissions, 0u);  // lossless by default
  EXPECT_EQ(stats.samples_transferred,
            network.base_station().cached_sample_count());
}

TEST(FlatNetworkTest, SampleVolumeTracksExpectation) {
  // E[samples] = n * p; check within 5 sigma of binomial.
  FlatNetwork network(grid_node_data(5, 2000));
  const double p = 0.2;
  network.ensure_sampling_probability(p);
  const double n = 10000.0;
  const double sigma = std::sqrt(n * p * (1 - p));
  EXPECT_NEAR(static_cast<double>(network.stats().samples_transferred),
              n * p, 5.0 * sigma);
}

TEST(FlatNetworkTest, SmallReportsPiggybackOnHeartbeats) {
  // Tiny probability -> each node ships <= 16 samples -> all piggybacked.
  FlatNetwork network(grid_node_data(4, 100));
  network.ensure_sampling_probability(0.02);
  EXPECT_EQ(network.stats().piggybacked_reports, 4u);
}

TEST(FlatNetworkTest, LossCostsRetransmissions) {
  NetworkConfig lossy;
  lossy.frame_loss_probability = 0.4;
  lossy.seed = 5;
  FlatNetwork network(grid_node_data(4, 500), lossy);
  NetworkConfig clean;
  clean.seed = 5;
  FlatNetwork reference(grid_node_data(4, 500), clean);
  network.ensure_sampling_probability(0.3);
  reference.ensure_sampling_probability(0.3);
  EXPECT_GT(network.stats().retransmissions, 0u);
  EXPECT_GT(network.stats().total_bytes(), reference.stats().total_bytes());
  // Protocol state is still consistent despite loss.
  EXPECT_EQ(network.base_station().view()->total_data_count, 2000u);
}

TEST(FlatNetworkTest, EstimatesMatchGroundTruthClosely) {
  FlatNetwork network(grid_node_data(4, 2500));
  network.ensure_sampling_probability(0.4);
  const query::RangeQuery range{1000.5, 9000.5};
  const double truth = 8000.0;
  const double est = network.rank_counting_estimate(range);
  // Chebyshev 99%: within 10 * sqrt(8k/p^2).
  const double bound = 10.0 * std::sqrt(8.0 * 4.0 / (0.4 * 0.4));
  EXPECT_NEAR(est, truth, bound);
  const double basic = network.basic_counting_estimate(range);
  EXPECT_NEAR(basic, truth, 10.0 * std::sqrt(truth * 0.6 / 0.4));
}

TEST(FlatNetworkTest, DropoutExcludesNodeButKeepsOthers) {
  FlatNetwork network(grid_node_data(3, 100));
  network.set_node_online(1, false);
  network.ensure_sampling_probability(0.5);
  // Node 1 never reported: its n_i is unknown to the station.
  EXPECT_EQ(network.base_station().view()->total_data_count, 200u);
  // Re-join and top up: the node catches up.
  network.set_node_online(1, true);
  network.ensure_sampling_probability(0.6);
  EXPECT_EQ(network.base_station().view()->total_data_count, 300u);
}

TEST(FlatNetworkTest, ByteAccurateModeMatchesModelSizes) {
  // The byte-accurate network encodes every uplink report for real; with a
  // clean channel its uplink byte count must equal the loss-free model's,
  // minus the piggyback discount (byte mode always frames).
  NetworkConfig byte_mode;
  byte_mode.byte_accurate = true;
  byte_mode.seed = 3;
  NetworkConfig model_mode;
  model_mode.seed = 3;
  FlatNetwork a(grid_node_data(4, 800), byte_mode);
  FlatNetwork b(grid_node_data(4, 800), model_mode);
  a.ensure_sampling_probability(0.3);
  b.ensure_sampling_probability(0.3);
  // Same samples collected (same seeds), same estimates.
  EXPECT_EQ(a.base_station().cached_sample_count(),
            b.base_station().cached_sample_count());
  const query::RangeQuery range{100.5, 2000.5};
  EXPECT_DOUBLE_EQ(a.rank_counting_estimate(range),
                   b.rank_counting_estimate(range));
  // ~240 samples/node -> no piggybacking either way: byte counts agree.
  EXPECT_EQ(a.stats().uplink_bytes, b.stats().uplink_bytes);
  EXPECT_EQ(a.stats().corrupted_frames, 0u);
}

TEST(FlatNetworkTest, CorruptionIsDetectedAndRetransmitted) {
  NetworkConfig noisy;
  noisy.byte_accurate = true;
  noisy.bit_corruption_probability = 0.4;
  noisy.seed = 7;
  FlatNetwork network(grid_node_data(4, 1000), noisy);
  network.ensure_sampling_probability(0.4);
  // CRC caught corrupted frames and every one was retransmitted.
  EXPECT_GT(network.stats().corrupted_frames, 0u);
  EXPECT_GE(network.stats().retransmissions,
            network.stats().corrupted_frames);
  // Protocol state is uncorrupted: totals exact, estimates sane.
  EXPECT_EQ(network.base_station().view()->total_data_count, 4000u);
  EXPECT_DOUBLE_EQ(network.rank_counting_estimate({-1.0, 1e9}), 4000.0);
}

TEST(FlatNetworkTest, ByteAccurateResyncSurvivesCorruption) {
  NetworkConfig noisy;
  noisy.byte_accurate = true;
  noisy.bit_corruption_probability = 0.3;
  noisy.seed = 9;
  FlatNetwork network(grid_node_data(2, 500), noisy);
  network.ensure_sampling_probability(0.5);
  network.append_data(0, std::vector<double>(100, 9999.0));
  EXPECT_EQ(network.refresh_samples(), 1u);
  EXPECT_EQ(network.base_station().view()->total_data_count, 1100u);
  EXPECT_DOUBLE_EQ(network.rank_counting_estimate({-1e9, 1e9}), 1100.0);
}

TEST(FlatNetworkTest, RejectsInvalidCorruptionProbability) {
  NetworkConfig bad;
  bad.bit_corruption_probability = 1.0;
  EXPECT_THROW(FlatNetwork(grid_node_data(1, 5), bad),
               std::invalid_argument);
}

TEST(FlatNetworkTest, RejectsInvalidProbability) {
  FlatNetwork network(grid_node_data(1, 10));
  EXPECT_THROW(network.ensure_sampling_probability(0.0),
               std::invalid_argument);
  EXPECT_THROW(network.ensure_sampling_probability(1.0001),
               std::invalid_argument);
}

}  // namespace
}  // namespace prc::iot
