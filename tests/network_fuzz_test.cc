// Model-based randomized test of the FlatNetwork protocol: a shadow model
// tracks what the base station should know after arbitrary interleavings of
// top-up rounds, appends, refreshes and dropouts, and a set of invariants
// is checked after every operation.  After every refresh and round, each
// node the station heard from must be cached exactly as the node's own
// current sample: applying deltas equals a full report, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "common/rng.h"
#include "estimator/accuracy.h"
#include "iot/network.h"
#include "iot/tree_network.h"
#include "query/range_query.h"

namespace prc {
namespace {

// The station's cached sample and n_i for `node` equal the node's own.
template <typename Network>
void expect_station_matches_node(const Network& network, std::size_t node) {
  const auto views = network.base_station().node_views();
  const auto truth = network.node(node).current_sample();
  ASSERT_EQ(views[node].samples->samples(), truth.samples()) << "node " << node;
  ASSERT_EQ(views[node].data_count, network.node(node).data_count())
      << "node " << node;
}

class NetworkFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetworkFuzz, InvariantsHoldUnderRandomOperations) {
  Rng fuzz_rng(GetParam());
  const std::size_t k = 1 + static_cast<std::size_t>(fuzz_rng.uniform_int(1, 5));

  // Shadow model state.
  std::vector<std::size_t> model_counts(k);
  std::vector<bool> model_dirty(k, false);
  std::vector<bool> model_online(k, true);
  std::vector<std::size_t> station_counts(k, 0);  // n_i the station knows
  double model_p = 0.0;

  std::vector<std::vector<double>> initial(k);
  for (std::size_t i = 0; i < k; ++i) {
    const auto count = static_cast<std::size_t>(fuzz_rng.uniform_int(5, 200));
    model_counts[i] = count;
    for (std::size_t j = 0; j < count; ++j) {
      initial[i].push_back(fuzz_rng.uniform(0.0, 1000.0));
    }
  }
  iot::NetworkConfig config;
  config.seed = GetParam() * 13 + 1;
  config.frame_loss_probability = fuzz_rng.bernoulli(0.5) ? 0.2 : 0.0;
  // Odd seeds push every report through the codec with bit flips.
  config.byte_accurate = GetParam() % 2 == 1;
  config.bit_corruption_probability = config.byte_accurate ? 0.2 : 0.0;
  iot::FlatNetwork network(initial, config);
  // Online nodes the station has heard from (a node offline through every
  // round and without arrivals has nothing to report).
  const auto expect_online_nodes_in_sync = [&] {
    for (std::size_t i = 0; i < k; ++i) {
      if (model_online[i] && network.base_station().view()->reported[i]) {
        expect_station_matches_node(network, i);
      }
    }
  };

  std::size_t last_bytes = 0;
  double last_p = 0.0;

  const auto check_invariants = [&] {
    // Probability and traffic are monotone.
    const double p = network.base_station().view()->coverage.target_p;
    ASSERT_GE(p, last_p);
    last_p = p;
    ASSERT_GE(network.stats().total_bytes(), last_bytes);
    last_bytes = network.stats().total_bytes();

    // The station's totals match the nodes it has heard from.
    std::size_t expected_station_total = 0;
    for (std::size_t i = 0; i < k; ++i) {
      expected_station_total += station_counts[i];
    }
    ASSERT_EQ(network.base_station().view()->total_data_count,
              expected_station_total);

    // Ground truth totals.
    std::size_t model_total = 0;
    for (auto c : model_counts) model_total += c;
    ASSERT_EQ(network.total_data_count(), model_total);

    // Sample cache never exceeds the data the station knows about.
    ASSERT_LE(network.base_station().cached_sample_count(),
              expected_station_total);

    // Full-domain queries are exact for the data the station knows about:
    // with no sampled predecessor/successor outside [-inf, +inf] the 4-case
    // estimator returns n_i for every node.
    if (p > 0.0) {
      const double estimate = network.rank_counting_estimate(
          query::RangeQuery{-1e18, 1e18});
      ASSERT_DOUBLE_EQ(estimate,
                       static_cast<double>(expected_station_total));
    }
  };

  const int operations = 120;
  for (int op = 0; op < operations; ++op) {
    switch (fuzz_rng.uniform_int(0, 4)) {
      case 0: {  // top-up round
        const double target =
            std::min(1.0, model_p + fuzz_rng.uniform(0.0, 0.3));
        if (target <= model_p) break;
        network.ensure_sampling_probability(target);
        model_p = target;
        // Every online node reports this round; dirty ones send a full
        // resync (new rank epoch), so their dirty flag clears too.
        for (std::size_t i = 0; i < k; ++i) {
          if (model_online[i]) {
            station_counts[i] = model_counts[i];
            model_dirty[i] = false;
          }
        }
        expect_online_nodes_in_sync();
        break;
      }
      case 1: {  // append data to a random node
        const auto node = static_cast<std::size_t>(
            fuzz_rng.uniform_int(0, static_cast<std::int64_t>(k) - 1));
        const auto extra =
            static_cast<std::size_t>(fuzz_rng.uniform_int(1, 50));
        std::vector<double> values;
        for (std::size_t j = 0; j < extra; ++j) {
          values.push_back(fuzz_rng.uniform(0.0, 1000.0));
        }
        network.append_data(node, values);
        model_counts[node] += extra;
        model_dirty[node] = true;
        break;
      }
      case 2: {  // refresh dirty nodes
        network.refresh_samples();
        for (std::size_t i = 0; i < k; ++i) {
          if (model_dirty[i] && model_online[i]) {
            model_dirty[i] = false;
            station_counts[i] = model_counts[i];
          }
        }
        expect_online_nodes_in_sync();
        break;
      }
      case 3: {  // toggle a node's connectivity
        const auto node = static_cast<std::size_t>(
            fuzz_rng.uniform_int(0, static_cast<std::int64_t>(k) - 1));
        model_online[node] = !model_online[node];
        network.set_node_online(node, model_online[node]);
        break;
      }
      case 4: {  // random range query (only checks it computes)
        if (model_p <= 0.0) break;
        double a = fuzz_rng.uniform(0.0, 1000.0);
        double b = fuzz_rng.uniform(0.0, 1000.0);
        if (a > b) std::swap(a, b);
        const double estimate =
            network.rank_counting_estimate(query::RangeQuery{a, b});
        ASSERT_TRUE(std::isfinite(estimate));
        break;
      }
    }
    check_invariants();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// Same shadow-model idea under an adversarial environment: random fault
// schedules (churn + bursty loss + duplication) and bounded retry budgets.
// The model no longer knows WHICH nodes a round reaches, so it reads the
// RoundReport outcomes — the exact contract the estimator and DP layers
// rely on — and checks that everything the report claims is consistent
// with the station's state.
class FaultFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultFuzz, DegradedRoundsKeepEveryInvariant) {
  Rng fuzz_rng(GetParam() * 7919 + 17);
  const std::size_t k = 2 + static_cast<std::size_t>(fuzz_rng.uniform_int(0, 4));

  std::vector<std::vector<double>> model_data(k);
  std::vector<std::size_t> station_counts(k, 0);
  std::vector<bool> model_dirty(k, false);
  for (std::size_t i = 0; i < k; ++i) {
    const auto count = static_cast<std::size_t>(fuzz_rng.uniform_int(20, 200));
    for (std::size_t j = 0; j < count; ++j) {
      model_data[i].push_back(fuzz_rng.uniform(0.0, 1000.0));
    }
  }

  iot::NetworkConfig config;
  config.seed = GetParam() * 101 + 3;
  config.frame_loss_probability = fuzz_rng.bernoulli(0.5) ? 0.2 : 0.0;
  const std::size_t budgets[] = {1, 3, 0};  // 0 = unbounded
  config.max_attempts =
      budgets[static_cast<std::size_t>(fuzz_rng.uniform_int(0, 2))];
  config.faults.seed = GetParam() * 53 + 29;
  config.faults.crash_probability = fuzz_rng.uniform(0.05, 0.3);
  config.faults.rejoin_probability = 0.5;
  config.faults.good_to_bad = fuzz_rng.uniform(0.05, 0.3);
  config.faults.bad_to_good = 0.3;
  config.faults.loss_bad = 0.6;
  config.faults.duplication_probability = fuzz_rng.bernoulli(0.5) ? 0.1 : 0.0;
  // Odd seeds run the codec with bit flips, so lost and corrupted delta
  // frames exercise the full-resync fallback byte for byte.
  config.byte_accurate = GetParam() % 2 == 1;
  config.bit_corruption_probability = config.byte_accurate ? 0.2 : 0.0;
  iot::FlatNetwork network(model_data, config);

  std::size_t last_bytes = 0;
  double last_p = 0.0;
  std::vector<double> last_probs(k, 0.0);

  const auto check_invariants = [&] {
    const auto& stats = network.stats();
    // The frame ledger balances: every attempted frame either delivered or
    // was dropped after exhausting its budget.
    ASSERT_EQ(stats.frames_attempted,
              stats.frames_delivered + stats.dropped_frames);
    if (config.max_attempts == 0) {
      ASSERT_EQ(stats.dropped_frames, 0u);
    }

    const double p = network.base_station().view()->coverage.target_p;
    ASSERT_GE(p, last_p);
    last_p = p;
    ASSERT_GE(stats.total_bytes(), last_bytes);
    last_bytes = stats.total_bytes();

    // Per-node effective probabilities only ever move up, and never past
    // the committed round target.
    for (std::size_t i = 0; i < k; ++i) {
      const double p_i = network.base_station().view()->probabilities[i];
      ASSERT_GE(p_i, last_probs[i]);
      ASSERT_LE(p_i, p);
      last_probs[i] = p_i;
    }

    std::size_t expected_station_total = 0;
    for (auto c : station_counts) expected_station_total += c;
    ASSERT_EQ(network.base_station().view()->total_data_count,
              expected_station_total);

    // Full-domain queries are exact regardless of degradation: the 4-case
    // estimator returns n_i for every known node and p never enters.
    if (p > 0.0) {
      const double estimate =
          network.rank_counting_estimate(query::RangeQuery{-1e18, 1e18});
      ASSERT_DOUBLE_EQ(estimate, static_cast<double>(expected_station_total));
    }
  };

  const int operations = 80;
  double model_p = 0.0;
  for (int op = 0; op < operations; ++op) {
    switch (fuzz_rng.uniform_int(0, 2)) {
      case 0: {  // top-up round; the report says who made it
        const double target =
            std::min(1.0, model_p + fuzz_rng.uniform(0.05, 0.3));
        if (target <= model_p) break;
        const auto report = network.ensure_sampling_probability(target);
        model_p = target;
        ASSERT_EQ(report.outcomes.size(), k);
        for (std::size_t i = 0; i < k; ++i) {
          if (report.outcomes[i] == iot::NodeOutcome::kDelivered) {
            station_counts[i] = model_data[i].size();
            model_dirty[i] = false;
            expect_station_matches_node(network, i);
          }
        }
        break;
      }
      case 1: {  // append data to a random node
        const auto node = static_cast<std::size_t>(
            fuzz_rng.uniform_int(0, static_cast<std::int64_t>(k) - 1));
        const auto extra =
            static_cast<std::size_t>(fuzz_rng.uniform_int(1, 40));
        std::vector<double> values;
        for (std::size_t j = 0; j < extra; ++j) {
          values.push_back(fuzz_rng.uniform(0.0, 1000.0));
        }
        network.append_data(node, values);
        for (const double v : values) model_data[node].push_back(v);
        model_dirty[node] = true;
        break;
      }
      case 2: {  // random range query against ground truth
        if (model_p <= 0.0) break;
        double a = fuzz_rng.uniform(0.0, 1000.0);
        double b = fuzz_rng.uniform(0.0, 1000.0);
        if (a > b) std::swap(a, b);
        const double estimate =
            network.rank_counting_estimate(query::RangeQuery{a, b});
        ASSERT_TRUE(std::isfinite(estimate));
        // When the cache is in sync with every node (everyone reported,
        // nothing dirty), the heterogeneous Chebyshev bound applies to the
        // true count.  99.9% per check is loose enough to be deterministic
        // in practice (the estimator is far inside the bound).
        const auto probs = network.base_station().node_probabilities();
        bool in_sync = true;
        for (std::size_t i = 0; i < k; ++i) {
          in_sync = in_sync && !model_dirty[i] && probs[i] > 0.0 &&
                    station_counts[i] == model_data[i].size();
        }
        if (in_sync) {
          std::size_t truth = 0;
          for (const auto& values : model_data) {
            for (const double v : values) {
              if (v >= a && v <= b) ++truth;
            }
          }
          const double bound =
              estimator::heterogeneous_error_bound(probs, 0.999);
          ASSERT_NEAR(estimate, static_cast<double>(truth), bound);
        }
        break;
      }
    }
    check_invariants();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// The tree topology's two round paths (fault-free convergecast and the
// degraded store-and-forward path) under random connectivity, loss, churn
// and retry budgets.  The tree has no append API, so its deltas are
// top-ups and its full resyncs follow drops.
class TreeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeFuzz, DeliveredNodesMatchTheirOwnSample) {
  Rng fuzz_rng(GetParam() * 4099 + 5);
  const std::size_t k = 2 + static_cast<std::size_t>(fuzz_rng.uniform_int(0, 8));
  std::vector<std::vector<double>> data(k);
  std::size_t total = 0;
  for (auto& values : data) {
    const auto count = static_cast<std::size_t>(fuzz_rng.uniform_int(20, 150));
    for (std::size_t j = 0; j < count; ++j) {
      values.push_back(fuzz_rng.uniform(0.0, 1000.0));
    }
    total += count;
  }
  iot::TreeConfig config;
  config.seed = GetParam() * 31 + 7;
  config.fanout = static_cast<std::size_t>(fuzz_rng.uniform_int(1, 3));
  config.frame_loss_probability = fuzz_rng.bernoulli(0.5) ? 0.3 : 0.0;
  config.max_attempts = fuzz_rng.bernoulli(0.5) ? 1 : 0;
  if (fuzz_rng.bernoulli(0.5)) {
    config.faults.seed = GetParam() * 17 + 3;
    config.faults.crash_probability = 0.2;
    config.faults.good_to_bad = 0.2;
  }
  iot::TreeNetwork network(data, config);
  std::vector<bool> online(k, true);
  std::vector<bool> reported(k, false);
  double p = 0.0;
  for (int op = 0; op < 60; ++op) {
    if (fuzz_rng.bernoulli(0.3)) {
      const auto node = static_cast<std::size_t>(
          fuzz_rng.uniform_int(0, static_cast<std::int64_t>(k) - 1));
      online[node] = !online[node];
      network.set_node_online(node, online[node]);
      continue;
    }
    p = std::min(1.0, p + fuzz_rng.uniform(0.02, 0.2));
    const auto report = network.ensure_sampling_probability(p);
    if (report.outcomes.empty()) continue;  // no-op round at p = 1
    std::size_t known = 0;
    for (std::size_t i = 0; i < k; ++i) {
      if (report.outcomes[i] == iot::NodeOutcome::kDelivered) {
        reported[i] = true;
        expect_station_matches_node(network, i);
      }
      if (reported[i]) known += data[i].size();
    }
    ASSERT_LE(known, total);
    ASSERT_DOUBLE_EQ(network.rank_counting_estimate({-1e18, 1e18}),
                     static_cast<double>(known));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// The privacy argument for deltas: the arrival gaps a node sends are
// exactly what the station could derive by differencing two consecutive
// full reports, so the delta reveals nothing more.  Values are distinct, so
// an old sample is identified in the second report by its value.
TEST(DeltaPrivacy, GapsEqualTheDifferenceOfTwoFullReports) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::vector<double> values;
    for (int j = 0; j < 300; ++j) values.push_back(rng.uniform(0.0, 1000.0));
    iot::SensorNode node(0, values, Rng(seed + 100));
    // p >= 0.2 keeps the old sample (>= ~60 of 300) outweighing up to 60
    // arrivals, so the node sends a delta rather than its full sample.
    node.handle(iot::SampleRequest{0, rng.uniform(0.2, 0.5)});
    node.acknowledge();
    const auto before = node.full_report();

    std::vector<double> batch;
    const auto arrivals = rng.uniform_int(1, 60);
    for (std::int64_t j = 0; j < arrivals; ++j) {
      batch.push_back(rng.uniform(-100.0, 1100.0));
    }
    node.append_data(batch);
    const auto delta = node.report();
    ASSERT_TRUE(delta.has_arrivals()) << "seed " << seed;
    const auto after = node.full_report();

    // Rank shift of each old sample = arrivals before it; the shifts'
    // increments count the arrivals in each gap.
    std::map<double, std::uint64_t> new_rank;
    for (const auto& s : after.new_samples) new_rank[s.value] = s.rank;
    std::vector<std::uint32_t> derived;
    std::uint64_t shift_so_far = 0;
    for (std::size_t j = 0; j < before.new_samples.size(); ++j) {
      const auto& old = before.new_samples[j];
      ASSERT_EQ(new_rank.count(old.value), 1u);
      const std::uint64_t shift = new_rank[old.value] - old.rank;
      derived.insert(derived.end(), shift - shift_so_far,
                     static_cast<std::uint32_t>(j));
      shift_so_far = shift;
      new_rank.erase(old.value);
    }
    derived.insert(derived.end(),
                   after.data_count - before.data_count - shift_so_far,
                   static_cast<std::uint32_t>(before.new_samples.size()));
    EXPECT_EQ(delta.arrival_gaps, derived) << "seed " << seed;
    EXPECT_EQ(delta.base_samples, before.new_samples.size());
    // The new samples are the second report's samples the first lacked.
    std::vector<sampling::RankedValue> fresh;
    for (const auto& [value, rank] : new_rank) fresh.push_back({value, rank});
    EXPECT_EQ(delta.new_samples, fresh) << "seed " << seed;
  }
}

}  // namespace
}  // namespace prc
