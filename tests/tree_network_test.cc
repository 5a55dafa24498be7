#include "iot/tree_network.h"

#include <gtest/gtest.h>

#include <cmath>

#include "dp/private_counting.h"
#include "iot/network.h"
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

TEST(TreeNetworkTest, ConstructionValidation) {
  EXPECT_THROW(TreeNetwork({}), std::invalid_argument);
  TreeConfig bad_fanout;
  bad_fanout.fanout = 0;
  EXPECT_THROW(TreeNetwork(grid_node_data(2, 5), bad_fanout),
               std::invalid_argument);
  TreeConfig bad_loss;
  bad_loss.frame_loss_probability = 1.0;
  EXPECT_THROW(TreeNetwork(grid_node_data(2, 5), bad_loss),
               std::invalid_argument);
}

TEST(TreeNetworkTest, DepthsFollowBalancedLayout) {
  // fanout 2, 6 nodes: slots 1..6; depths 1,1,2,2,2,2.
  TreeConfig config;
  config.fanout = 2;
  TreeNetwork network(grid_node_data(6, 10), config);
  EXPECT_EQ(network.depth(0), 1u);
  EXPECT_EQ(network.depth(1), 1u);
  EXPECT_EQ(network.depth(2), 2u);
  EXPECT_EQ(network.depth(5), 2u);
  EXPECT_EQ(network.height(), 2u);
  EXPECT_THROW(network.depth(6), std::out_of_range);
}

TEST(TreeNetworkTest, ChainTopologyHasLinearDepth) {
  TreeConfig config;
  config.fanout = 1;
  TreeNetwork network(grid_node_data(5, 10), config);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(network.depth(i), i + 1);
  }
}

TEST(TreeNetworkTest, EstimatesMatchGroundTruth) {
  TreeNetwork network(grid_node_data(8, 1000));
  network.ensure_sampling_probability(0.4);
  const query::RangeQuery range{1000.5, 7000.5};
  const double bound = 10.0 * std::sqrt(8.0 * 8.0) / 0.4;
  EXPECT_NEAR(network.rank_counting_estimate(range), 6000.0, bound);
  EXPECT_EQ(network.base_station().view()->total_data_count, 8000u);
}

TEST(TreeNetworkTest, TopologyDoesNotChangeSampling) {
  // Same seed, different fanout: identical samples reach the base station,
  // so the estimates coincide exactly — only the byte bill differs.
  TreeConfig wide;
  wide.fanout = 8;
  wide.seed = 99;
  TreeConfig deep;
  deep.fanout = 2;
  deep.seed = 99;
  TreeNetwork a(grid_node_data(8, 500), wide);
  TreeNetwork b(grid_node_data(8, 500), deep);
  a.ensure_sampling_probability(0.3);
  b.ensure_sampling_probability(0.3);
  const query::RangeQuery range{100.5, 3000.5};
  EXPECT_DOUBLE_EQ(a.rank_counting_estimate(range),
                   b.rank_counting_estimate(range));
  // The deeper tree relays over more links.
  EXPECT_GT(b.stats().uplink_bytes, a.stats().uplink_bytes);
}

TEST(TreeNetworkTest, AggregationSavesBytesOverStoreAndForward) {
  TreeConfig aggregated;
  aggregated.fanout = 2;
  aggregated.seed = 5;
  aggregated.aggregate_frames = true;
  TreeConfig naive;
  naive.fanout = 2;
  naive.seed = 5;
  naive.aggregate_frames = false;
  TreeNetwork a(grid_node_data(14, 800), aggregated);
  TreeNetwork b(grid_node_data(14, 800), naive);
  a.ensure_sampling_probability(0.2);
  b.ensure_sampling_probability(0.2);
  // Identical sample payloads, but the naive relay repeats headers per hop
  // and per origin.
  EXPECT_EQ(a.stats().samples_transferred, b.stats().samples_transferred);
  EXPECT_LT(a.stats().uplink_bytes, b.stats().uplink_bytes);
}

TEST(TreeNetworkTest, LevelStatsAccountEveryByte) {
  TreeConfig config;
  config.fanout = 2;
  TreeNetwork network(grid_node_data(10, 300), config);
  network.ensure_sampling_probability(0.25);
  std::size_t level_total = 0;
  for (const auto& level : network.level_stats()) level_total += level.bytes;
  EXPECT_EQ(level_total, network.stats().uplink_bytes);
  // Level 1 (links into the base station) carries the full convergecast, so
  // it must be the heaviest.
  const auto& levels = network.level_stats();
  for (std::size_t l = 2; l < levels.size(); ++l) {
    EXPECT_GE(levels[1].bytes, levels[l].bytes);
  }
}

TEST(TreeNetworkTest, LossIsChargedAndConsistent) {
  TreeConfig lossy;
  lossy.fanout = 2;
  lossy.frame_loss_probability = 0.3;
  lossy.seed = 11;
  TreeConfig clean = lossy;
  clean.frame_loss_probability = 0.0;
  TreeNetwork a(grid_node_data(24, 400), lossy);
  TreeNetwork b(grid_node_data(24, 400), clean);
  a.ensure_sampling_probability(0.3);
  b.ensure_sampling_probability(0.3);
  EXPECT_GT(a.stats().retransmissions, 0u);
  EXPECT_GT(a.stats().uplink_bytes, b.stats().uplink_bytes);
  EXPECT_EQ(a.base_station().view()->total_data_count, 9600u);
}

TEST(TreeNetworkTest, IncrementalRoundsAccumulate) {
  TreeNetwork network(grid_node_data(4, 500));
  const auto first = network.ensure_sampling_probability(0.1).new_samples;
  EXPECT_EQ(network.ensure_sampling_probability(0.1).new_samples, 0u);
  const auto second = network.ensure_sampling_probability(0.3).new_samples;
  EXPECT_GT(second, 0u);
  EXPECT_EQ(network.base_station().cached_sample_count(), first + second);
}

TEST(TreeNetworkTest, PrivateCountingRunsOverTrees) {
  // The DP pipeline is topology-independent through SamplingNetwork: the
  // same PrivateRangeCounter serves contracts over a tree.
  TreeConfig config;
  config.fanout = 3;
  TreeNetwork network(grid_node_data(9, 2000), config);
  dp::PrivateRangeCounter counter(network, {}, 77);
  const query::AccuracySpec spec{0.05, 0.8};
  const auto answer = counter.answer({2000.5, 16000.5}, spec);
  EXPECT_GT(answer.plan.epsilon_amplified, 0.0);
  // Single draw vs the 3x contract envelope.
  EXPECT_NEAR(answer.value, 14000.0, 3.0 * spec.alpha * 18000.0);
  // The top-up was routed through the tree (bytes were charged).
  EXPECT_GT(network.stats().uplink_bytes, 0u);
}

TEST(TreeNetworkTest, ContractHoldsOverTreesEmpirically) {
  const query::AccuracySpec spec{0.08, 0.7};
  const query::RangeQuery range{1000.5, 15000.5};
  const double truth = 14000.0;
  int within = 0;
  const int trials = 150;
  for (int t = 0; t < trials; ++t) {
    TreeConfig config;
    config.fanout = 2;
    config.seed = static_cast<std::uint64_t>(t) * 7 + 5;
    TreeNetwork network(grid_node_data(8, 2250), config);
    dp::PrivateRangeCounter counter(network, {},
                                    static_cast<std::uint64_t>(t) + 31);
    const auto answer = counter.answer(range, spec);
    if (std::abs(answer.value - truth) <= spec.alpha * 18000.0) ++within;
  }
  const double margin =
      3.0 * std::sqrt(spec.delta * (1 - spec.delta) / trials);
  EXPECT_GE(static_cast<double>(within) / trials, spec.delta - margin);
}

void expect_same_stats(const CommunicationStats& a,
                       const CommunicationStats& b) {
  EXPECT_EQ(a.downlink_messages, b.downlink_messages);
  EXPECT_EQ(a.downlink_bytes, b.downlink_bytes);
  EXPECT_EQ(a.uplink_messages, b.uplink_messages);
  EXPECT_EQ(a.uplink_bytes, b.uplink_bytes);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.corrupted_frames, b.corrupted_frames);
  EXPECT_EQ(a.samples_transferred, b.samples_transferred);
  EXPECT_EQ(a.piggybacked_reports, b.piggybacked_reports);
  EXPECT_EQ(a.frames_attempted, b.frames_attempted);
  EXPECT_EQ(a.frames_delivered, b.frames_delivered);
  EXPECT_EQ(a.dropped_frames, b.dropped_frames);
  EXPECT_EQ(a.duplicated_frames, b.duplicated_frames);
  EXPECT_EQ(a.backoff_slots, b.backoff_slots);
}

void expect_same_report(const RoundReport& a, const RoundReport& b) {
  EXPECT_EQ(a.target_p, b.target_p);
  EXPECT_EQ(a.new_samples, b.new_samples);
  EXPECT_EQ(a.outcomes, b.outcomes);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.dropped_frames, b.dropped_frames);
  EXPECT_EQ(a.severed_reports, b.severed_reports);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.min_probability, b.min_probability);
}

// Runs one round and checks that the report's retries are every
// retransmission the round charged, downlink included.
template <typename Network>
RoundReport round_with_retries_checked(Network& network, double p) {
  const std::size_t before = network.stats().retransmissions;
  const RoundReport report = network.ensure_sampling_probability(p);
  EXPECT_EQ(report.retries, network.stats().retransmissions - before)
      << "p=" << p;
  return report;
}

// Unbounded retransmission is a budget that never binds: a round with
// max_attempts 0 charges exactly what a round whose budget is too large to
// bind charges, backoff and per-level bytes included, and leaves the same
// cache behind.
TEST(TreeNetworkTest, UnboundedRoundMatchesBoundedRound) {
  TreeConfig unbounded;
  unbounded.fanout = 2;
  unbounded.seed = 3;
  unbounded.frame_loss_probability = 0.2;
  unbounded.aggregate_frames = false;
  TreeConfig bounded = unbounded;
  bounded.max_attempts = std::size_t{1} << 30;
  TreeNetwork a(grid_node_data(13, 400), unbounded);
  TreeNetwork b(grid_node_data(13, 400), bounded);
  const query::RangeQuery range{500.5, 3500.5};
  for (const double p : {0.05, 0.2, 0.6}) {
    expect_same_report(round_with_retries_checked(a, p),
                       round_with_retries_checked(b, p));
    expect_same_stats(a.stats(), b.stats());
    ASSERT_EQ(a.level_stats().size(), b.level_stats().size());
    for (std::size_t d = 0; d < a.level_stats().size(); ++d) {
      EXPECT_EQ(a.level_stats()[d].links_crossed,
                b.level_stats()[d].links_crossed);
      EXPECT_EQ(a.level_stats()[d].bytes, b.level_stats()[d].bytes);
    }
    EXPECT_EQ(a.base_station().cached_sample_count(),
              b.base_station().cached_sample_count());
    EXPECT_EQ(a.rank_counting_estimate(range), b.rank_counting_estimate(range));
  }
  EXPECT_GT(a.stats().retransmissions, 0u);

  // The same accounting holds for the coalesced convergecast and for the
  // flat network.
  TreeConfig aggregated = unbounded;
  aggregated.aggregate_frames = true;
  TreeNetwork tree(grid_node_data(13, 400), aggregated);
  NetworkConfig flat_config;
  flat_config.seed = 3;
  flat_config.frame_loss_probability = 0.2;
  FlatNetwork flat(grid_node_data(13, 400), flat_config);
  for (const double p : {0.05, 0.2, 0.6}) {
    round_with_retries_checked(tree, p);
    round_with_retries_checked(flat, p);
  }
  EXPECT_GT(tree.stats().backoff_slots, 0u);
}

TEST(TreeNetworkTest, RejectsInvalidProbability) {
  TreeNetwork network(grid_node_data(2, 10));
  EXPECT_THROW(network.ensure_sampling_probability(0.0),
               std::invalid_argument);
  EXPECT_THROW(network.ensure_sampling_probability(1.5),
               std::invalid_argument);
}

}  // namespace
}  // namespace prc::iot
