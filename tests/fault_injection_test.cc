// Fault-injection layer: bounded retries, partial rounds, per-node
// probabilities, and the coverage-aware DP/market behavior built on top.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "dp/amplification.h"
#include "dp/private_counting.h"
#include "estimator/accuracy.h"
#include "estimator/rank_counting.h"
#include "iot/faults.h"
#include "iot/network.h"
#include "iot/tree_network.h"
#include "market/broker.h"
#include "pricing/pricing.h"
#include "query/range_query.h"

namespace prc {
namespace {

std::vector<std::vector<double>> random_node_data(std::size_t nodes,
                                                  std::size_t per_node,
                                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> data(nodes);
  for (auto& values : data) {
    for (std::size_t j = 0; j < per_node; ++j) {
      values.push_back(rng.uniform(0.0, 1000.0));
    }
  }
  return data;
}

std::size_t true_count(const std::vector<std::vector<double>>& data,
                       const query::RangeQuery& range) {
  std::size_t count = 0;
  for (const auto& values : data) {
    for (const double v : values) {
      if (v >= range.lower && v <= range.upper) ++count;
    }
  }
  return count;
}

// ---------------------------------------------------------------- schedule

TEST(FaultConfigTest, ValidatesProbabilities) {
  iot::FaultConfig config;
  config.crash_probability = 1.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.crash_probability = 0.1;
  config.loss_bad = 1.0;  // a channel that never delivers would hang
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.loss_bad = 0.8;
  config.good_to_bad = 0.3;
  config.bad_to_good = 0.0;  // bursts must be able to end
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.bad_to_good = 0.2;
  EXPECT_NO_THROW(config.validate());
}

TEST(FaultScheduleTest, DisabledScheduleIsInert) {
  iot::FaultSchedule schedule;  // default: disabled
  EXPECT_FALSE(schedule.enabled());
  schedule.begin_round();
  EXPECT_EQ(schedule.rounds_elapsed(), 0u);
  EXPECT_FALSE(schedule.node_offline(0));
  EXPECT_FALSE(schedule.attempt_lost(0));
  EXPECT_FALSE(schedule.duplicate_frame(0));
}

TEST(FaultScheduleTest, SameSeedSameSchedule) {
  iot::FaultConfig config;
  config.crash_probability = 0.3;
  config.good_to_bad = 0.2;
  config.loss_bad = 0.6;
  config.duplication_probability = 0.1;
  iot::FaultSchedule a(config, 6);
  iot::FaultSchedule b(config, 6);
  for (int round = 0; round < 20; ++round) {
    a.begin_round();
    b.begin_round();
    for (std::size_t node = 0; node < 6; ++node) {
      ASSERT_EQ(a.node_offline(node), b.node_offline(node));
      ASSERT_EQ(a.attempt_lost(node), b.attempt_lost(node));
    }
    ASSERT_EQ(a.duplicate_frame(0), b.duplicate_frame(0));
  }
  EXPECT_EQ(a.offline_node_count(), b.offline_node_count());
}

TEST(FaultScheduleTest, ChurnCrashesAndRejoins) {
  iot::FaultConfig config;
  config.crash_probability = 0.5;
  config.rejoin_probability = 0.5;
  iot::FaultSchedule schedule(config, 20);
  std::size_t saw_offline = 0;
  std::size_t saw_rejoin = 0;
  std::vector<bool> was_offline(20, false);
  for (int round = 0; round < 40; ++round) {
    schedule.begin_round();
    for (std::size_t node = 0; node < 20; ++node) {
      if (schedule.node_offline(node)) {
        ++saw_offline;
        was_offline[node] = true;
      } else if (was_offline[node]) {
        ++saw_rejoin;
        was_offline[node] = false;
      }
    }
  }
  EXPECT_GT(saw_offline, 0u);
  EXPECT_GT(saw_rejoin, 0u);
}

// ------------------------------------------------------- bounded delivery

TEST(BoundedRetryTest, HeavyLossWithOneAttemptTerminatesPartially) {
  // The ISSUE acceptance scenario: max_attempts = 1 under 50% loss must
  // terminate with a partial round instead of retrying forever.
  iot::NetworkConfig config;
  config.frame_loss_probability = 0.5;
  config.max_attempts = 1;
  config.seed = 11;
  iot::FlatNetwork network(random_node_data(8, 300, 5), config);
  const auto report = network.ensure_sampling_probability(0.4);

  EXPECT_EQ(report.outcomes.size(), 8u);
  EXPECT_GT(report.dropped_frames, 0u);
  EXPECT_EQ(report.retries, report.dropped_frames);  // one attempt: no backoff
  EXPECT_LT(report.delivered_nodes(), 8u);
  EXPECT_GT(report.dropped_nodes(), 0u);
  EXPECT_FALSE(report.complete());
  // Some node missed the round entirely, so its data is invisible to
  // estimates (coverage is computed over station-KNOWN data and can read
  // 1.0 when the dropped nodes never reported at all).
  EXPECT_EQ(report.min_probability, 0.0);

  const auto& stats = network.stats();
  EXPECT_EQ(stats.frames_attempted,
            stats.frames_delivered + stats.dropped_frames);
  EXPECT_EQ(stats.backoff_slots, 0u);  // budget of one: never waits

  // The round target advanced even though some nodes missed it.
  EXPECT_DOUBLE_EQ(network.base_station().view()->coverage.target_p, 0.4);
  for (std::size_t i = 0; i < 8; ++i) {
    const double p_i = network.base_station().view()->probabilities[i];
    if (report.outcomes[i] == iot::NodeOutcome::kDelivered) {
      EXPECT_DOUBLE_EQ(p_i, 0.4);
    } else {
      EXPECT_LT(p_i, 0.4);
    }
  }
}

TEST(BoundedRetryTest, DroppedNodesRecoverInLaterRounds) {
  iot::NetworkConfig lossy;
  lossy.frame_loss_probability = 0.3;
  lossy.max_attempts = 2;
  lossy.seed = 23;
  iot::FlatNetwork network(random_node_data(4, 100, 9), lossy);
  network.ensure_sampling_probability(0.3);
  // Escalating repeatedly re-attempts delivery for dropped nodes; with
  // fresh loss draws every round, everyone eventually catches up.
  bool completed = false;
  for (int round = 0; round < 60 && !completed; ++round) {
    const auto report = network.ensure_sampling_probability(
        std::min(1.0, 0.32 + 0.01 * round));
    completed = report.complete();
  }
  ASSERT_TRUE(completed);  // a full round happened despite bounded retries
  const auto cov = network.base_station().coverage();
  EXPECT_TRUE(cov.complete());
  EXPECT_GT(cov.min_probability, 0.3);
  // Full-domain estimates stay exact through all the partial rounds.
  const double estimate =
      network.rank_counting_estimate(query::RangeQuery{-1e18, 1e18});
  EXPECT_DOUBLE_EQ(estimate, static_cast<double>(4 * 100));
}

TEST(BoundedRetryTest, UnboundedBackoffAccumulatesUnderLoss) {
  iot::NetworkConfig config;
  config.frame_loss_probability = 0.4;
  config.seed = 3;  // max_attempts = 0: seed behavior, always completes
  iot::FlatNetwork network(random_node_data(5, 400, 2), config);
  const auto report = network.ensure_sampling_probability(0.5);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.dropped_frames, 0u);
  EXPECT_GT(report.retries, 0u);
  EXPECT_GT(network.stats().backoff_slots, 0u);
  EXPECT_EQ(network.stats().frames_attempted,
            network.stats().frames_delivered);
}

TEST(BoundedRetryTest, LossyCollectionIsDeterministic) {
  // Identical configs replay the exact same losses, retries, and samples —
  // the property that makes a degraded run debuggable.
  iot::NetworkConfig config;
  config.frame_loss_probability = 0.2;
  config.seed = 31;
  iot::FlatNetwork with_layer(random_node_data(4, 250, 7), config);
  iot::FlatNetwork reference(random_node_data(4, 250, 7), config);
  with_layer.ensure_sampling_probability(0.3);
  reference.ensure_sampling_probability(0.3);
  EXPECT_EQ(with_layer.stats().total_bytes(), reference.stats().total_bytes());
  EXPECT_EQ(with_layer.stats().retransmissions,
            reference.stats().retransmissions);
  EXPECT_EQ(with_layer.stats().dropped_frames, 0u);
  EXPECT_DOUBLE_EQ(
      with_layer.rank_counting_estimate(query::RangeQuery{100.0, 700.0}),
      reference.rank_counting_estimate(query::RangeQuery{100.0, 700.0}));
}

TEST(FaultInjectionTest, DuplicationCostsBytesButNeverCorruptsTheCache) {
  iot::NetworkConfig clean;
  clean.seed = 17;
  iot::NetworkConfig duplicating = clean;
  duplicating.faults.duplication_probability = 1.0;
  iot::FlatNetwork a(random_node_data(5, 300, 3), clean);
  iot::FlatNetwork b(random_node_data(5, 300, 3), duplicating);
  a.ensure_sampling_probability(0.4);
  const auto report = b.ensure_sampling_probability(0.4);

  EXPECT_GT(b.stats().duplicated_frames, 0u);
  EXPECT_GT(b.stats().total_bytes(), a.stats().total_bytes());
  // Duplicates are charged but never re-ingested: cache and estimates
  // identical to the clean run.
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(a.base_station().cached_sample_count(),
            b.base_station().cached_sample_count());
  EXPECT_DOUBLE_EQ(
      a.rank_counting_estimate(query::RangeQuery{200.0, 600.0}),
      b.rank_counting_estimate(query::RangeQuery{200.0, 600.0}));
}

TEST(FaultInjectionTest, BurstyLossDrivesRetriesWithoutChangingSampling) {
  iot::NetworkConfig bursty;
  bursty.seed = 41;
  bursty.faults.good_to_bad = 0.3;
  bursty.faults.bad_to_good = 0.3;
  bursty.faults.loss_bad = 0.8;
  iot::NetworkConfig clean;
  clean.seed = 41;
  iot::FlatNetwork a(random_node_data(4, 300, 1), clean);
  iot::FlatNetwork b(random_node_data(4, 300, 1), bursty);
  a.ensure_sampling_probability(0.5);
  const auto report = b.ensure_sampling_probability(0.5);
  EXPECT_TRUE(report.complete());  // unbounded retries still deliver all
  EXPECT_GT(report.retries, 0u);
  EXPECT_GT(b.stats().total_bytes(), a.stats().total_bytes());
  // The burst channel draws from its own stream: the samples collected are
  // the ones the clean network collects.
  EXPECT_EQ(a.base_station().cached_sample_count(),
            b.base_station().cached_sample_count());
  EXPECT_DOUBLE_EQ(
      a.rank_counting_estimate(query::RangeQuery{0.0, 500.0}),
      b.rank_counting_estimate(query::RangeQuery{0.0, 500.0}));
}

// ------------------------------------------------ stale-probability bias

TEST(StalePBiasTest, HeterogeneousEstimatorFixesStaleProbabilityBias) {
  // Regression for the seed-state bias: node 0 sits out the top-up round
  // from p=0.2 to p=0.8.  Its cached Bernoulli(0.2) sample is perfectly
  // valid, but correcting it with the global p=0.8 (seed behavior) applies
  // -2/0.8 where -2/0.2 is owed: +7.5 expected error per trial.  The
  // per-node Horvitz-Thompson estimate stays unbiased.
  const query::RangeQuery range{200.5, 800.5};
  const int trials = 400;
  double hetero_error_sum = 0.0;
  double global_error_sum = 0.0;
  for (int trial = 0; trial < trials; ++trial) {
    const auto data =
        random_node_data(3, 500, 1000 + static_cast<std::uint64_t>(trial));
    iot::NetworkConfig config;
    config.seed = 5000 + static_cast<std::uint64_t>(trial);
    iot::FlatNetwork network(data, config);
    network.ensure_sampling_probability(0.2);
    network.set_node_online(0, false);
    const auto report = network.ensure_sampling_probability(0.8);
    ASSERT_EQ(report.outcomes[0], iot::NodeOutcome::kStale);
    ASSERT_DOUBLE_EQ(network.base_station().view()->probabilities[0], 0.2);
    ASSERT_DOUBLE_EQ(network.base_station().view()->probabilities[1], 0.8);

    const double truth = static_cast<double>(true_count(data, range));
    // Per-node p_i (the fix).
    const double hetero = network.rank_counting_estimate(range);
    // Seed-style: the same cache corrected with one global p.
    const double global = estimator::rank_counting_estimate(
        network.base_station().node_views(), 0.8, range);
    hetero_error_sum += hetero - truth;
    global_error_sum += global - truth;
  }
  const double hetero_mean = hetero_error_sum / trials;
  const double global_mean = global_error_sum / trials;
  // Per-trial sigma is ~15 (variance bound 8/0.04 + 2*8/0.64), so the mean
  // of 400 trials has sigma ~0.75: the +7.5 bias is ~10 sigma out while the
  // unbiased estimator stays within ~4 sigma of zero.
  EXPECT_LT(std::abs(hetero_mean), 3.0);
  EXPECT_GT(global_mean, 4.0);
}

TEST(StalePBiasTest, CoverageSummaryTracksStragglers) {
  iot::FlatNetwork network(random_node_data(4, 250, 21));
  network.ensure_sampling_probability(0.25);
  network.set_node_online(2, false);
  const auto report = network.ensure_sampling_probability(0.5);
  EXPECT_EQ(report.stale_nodes(), 1u);
  EXPECT_EQ(report.delivered_nodes(), 3u);
  const auto cov = network.base_station().coverage();
  EXPECT_FALSE(cov.complete());
  EXPECT_EQ(cov.stale_nodes, 1u);
  EXPECT_EQ(cov.reported_nodes, 4u);
  EXPECT_DOUBLE_EQ(cov.min_probability, 0.25);
  EXPECT_DOUBLE_EQ(cov.max_probability, 0.5);
  EXPECT_NEAR(cov.coverage, 0.75, 1e-12);

  // The checkpoint carries the per-node probabilities (wire format v2), so
  // a restarted broker keeps the unbiased estimates.
  const auto bytes = network.base_station().serialize();
  const auto restored = iot::BaseStation::deserialize(bytes);
  EXPECT_EQ(restored.node_probabilities(),
            network.base_station().node_probabilities());
  const query::RangeQuery range{100.0, 900.0};
  EXPECT_DOUBLE_EQ(restored.view()->rank_counting_estimate(range),
                   network.rank_counting_estimate(range));
}

TEST(StalePBiasTest, HeterogeneousAccuracyMatchesUniformWhenEqual) {
  const std::vector<double> uniform(5, 0.3);
  EXPECT_NEAR(estimator::achieved_delta_heterogeneous(uniform, 0.05, 10000),
              estimator::achieved_delta(0.3, 0.05, 5, 10000), 1e-12);
  EXPECT_NEAR(estimator::heterogeneous_error_bound(uniform, 0.9),
              estimator::error_bound_at_confidence(0.3, 5, 0.9), 1e-9);
  EXPECT_THROW(
      estimator::heterogeneous_error_bound(std::vector<double>{0.3, 0.0}, 0.9),
      std::invalid_argument);
  EXPECT_THROW(estimator::heterogeneous_error_bound(std::vector<double>{}, 0.9),
               std::invalid_argument);
}

// ---------------------------------------------------------------- tree

TEST(TreeFaultTest, OfflineInteriorNodeSeversItsSubtree) {
  // Fanout 2 over 7 nodes: node 0 (slot 1) relays for nodes 2, 3 (slots
  // 3, 4) and node 6 (slot 7, child of slot 3).
  iot::TreeConfig config;
  config.fanout = 2;
  config.seed = 13;
  iot::TreeNetwork network(random_node_data(7, 200, 19), config);
  network.ensure_sampling_probability(0.2);
  network.set_node_online(0, false);
  const auto report = network.ensure_sampling_probability(0.5);

  EXPECT_EQ(report.severed_reports, 3u);
  EXPECT_EQ(report.outcomes[0], iot::NodeOutcome::kStale);  // offline itself
  EXPECT_EQ(report.outcomes[2], iot::NodeOutcome::kStale);  // severed
  EXPECT_EQ(report.outcomes[3], iot::NodeOutcome::kStale);
  EXPECT_EQ(report.outcomes[6], iot::NodeOutcome::kStale);
  EXPECT_EQ(report.outcomes[1], iot::NodeOutcome::kDelivered);
  EXPECT_EQ(report.outcomes[4], iot::NodeOutcome::kDelivered);
  EXPECT_EQ(report.outcomes[5], iot::NodeOutcome::kDelivered);
  EXPECT_FALSE(network.route_to_root_alive(6));
  EXPECT_TRUE(network.route_to_root_alive(0));  // its own path has no relay

  // Severed nodes keep their old p_i; estimates stay exact on full domain.
  EXPECT_DOUBLE_EQ(network.base_station().view()->probabilities[2], 0.2);
  EXPECT_DOUBLE_EQ(network.base_station().view()->probabilities[1], 0.5);
  EXPECT_DOUBLE_EQ(
      network.rank_counting_estimate(query::RangeQuery{-1e18, 1e18}),
      static_cast<double>(7 * 200));

  // The subtree rejoins and catches up.
  network.set_node_online(0, true);
  const auto recovered = network.ensure_sampling_probability(0.6);
  EXPECT_TRUE(recovered.complete());
  EXPECT_EQ(recovered.severed_reports, 0u);
  EXPECT_DOUBLE_EQ(network.base_station().view()->probabilities[2], 0.6);
}

TEST(TreeFaultTest, BoundedRetriesDropReportsButKeepAccounting) {
  iot::TreeConfig config;
  config.fanout = 2;
  config.frame_loss_probability = 0.5;
  config.max_attempts = 1;
  config.seed = 29;
  iot::TreeNetwork network(random_node_data(7, 150, 31), config);
  const auto report = network.ensure_sampling_probability(0.4);
  EXPECT_FALSE(report.complete());
  EXPECT_GT(report.dropped_frames, 0u);
  const auto& stats = network.stats();
  EXPECT_EQ(stats.frames_attempted,
            stats.frames_delivered + stats.dropped_frames);
  // Deep nodes must cross more links, so each delivered deep report still
  // charged every level on its path.
  EXPECT_DOUBLE_EQ(
      network.rank_counting_estimate(query::RangeQuery{-1e18, 1e18}),
      static_cast<double>(network.base_station().view()->total_data_count));
}

// ------------------------------------------------------------ DP + market

std::unique_ptr<pricing::PricingFunction> test_pricing(std::size_t total,
                                                       std::size_t nodes) {
  return std::make_unique<pricing::InverseVariancePricing>(
      pricing::VarianceModel(total, nodes), query::AccuracySpec{0.1, 0.5},
      100.0, 1.0);
}

TEST(CoverageAwareDpTest, UnreportedNodeRaisesCoverageError) {
  iot::FlatNetwork network(random_node_data(3, 400, 43));
  network.set_node_online(0, false);  // never reports at all
  dp::PrivateRangeCounter counter(network);
  try {
    counter.answer(query::RangeQuery{100.0, 600.0},
                   query::AccuracySpec{0.2, 0.5});
    FAIL() << "expected CoverageError";
  } catch (const dp::CoverageError& err) {
    EXPECT_DOUBLE_EQ(err.coverage().min_probability, 0.0);
    EXPECT_EQ(err.coverage().reported_nodes, 2u);
    EXPECT_FALSE(err.coverage().complete());
  }
}

TEST(CoverageAwareDpTest, StaleNodeWidensAmplifiedBudgetHonestly) {
  iot::FlatNetwork network(random_node_data(3, 400, 47));
  network.ensure_sampling_probability(0.2);
  network.set_node_online(0, false);
  network.ensure_sampling_probability(0.4);  // node 0 goes stale at 0.2
  dp::PrivateRangeCounter counter(network);
  // Loose enough to be feasible at the stale node's p=0.2 without topping
  // up past the cached 0.4 round target.
  const auto answer = counter.answer(query::RangeQuery{100.0, 600.0},
                                     query::AccuracySpec{0.6, 0.5});
  EXPECT_FALSE(answer.coverage.complete());
  EXPECT_DOUBLE_EQ(answer.coverage.min_probability, 0.2);
  EXPECT_DOUBLE_EQ(answer.coverage.max_probability, 0.4);
  // Accuracy was argued at min p_i, but amplification must be priced at
  // max p_i (the most-included node enjoys the least amplification): the
  // effective budget exceeds the naive amplification at the plan's p.
  EXPECT_DOUBLE_EQ(answer.plan.sampling_probability, 0.2);
  EXPECT_GT(answer.plan.epsilon_amplified,
            dp::amplified_epsilon(answer.plan.epsilon,
                                  answer.coverage.min_probability));
}

TEST(CoverageAwareBrokerTest, RefusePolicySpendsNothing) {
  iot::FlatNetwork network(random_node_data(3, 400, 53));
  network.set_node_online(0, false);
  dp::PrivateRangeCounter counter(network);
  market::DataBroker broker(counter, test_pricing(1200, 3));  // kRefuse
  EXPECT_THROW(broker.sell("alice", query::RangeQuery{100.0, 600.0},
                           query::AccuracySpec{0.2, 0.5}),
               market::InsufficientCoverageError);
  EXPECT_EQ(broker.ledger().transaction_count(), 0u);
  EXPECT_DOUBLE_EQ(broker.ledger().total_epsilon(), 0.0);
}

TEST(CoverageAwareBrokerTest, RepricePolicySellsWeakerContract) {
  iot::FlatNetwork network(random_node_data(3, 400, 59));
  network.ensure_sampling_probability(0.1);
  network.set_node_online(0, false);  // stuck at p=0.1 from here on
  dp::PrivateRangeCounter counter(network);
  market::BrokerConfig config;
  config.degraded_policy = market::DegradedSalePolicy::kReprice;
  market::DataBroker broker(counter, test_pricing(1200, 3), config);

  const query::AccuracySpec requested{0.05, 0.9};  // needs p ~0.26 everywhere
  const double full_price = broker.quote(requested);
  const auto receipt =
      broker.sell("alice", query::RangeQuery{100.0, 600.0}, requested);

  EXPECT_TRUE(receipt.degraded);
  EXPECT_GT(receipt.spec.alpha, requested.alpha);  // weaker contract
  EXPECT_DOUBLE_EQ(receipt.requested.alpha, requested.alpha);
  EXPECT_LT(receipt.price, full_price);  // priced at what was delivered
  EXPECT_LT(receipt.coverage, 1.0);
  EXPECT_EQ(broker.ledger().degraded_sales(), 1u);
  const auto transaction = broker.ledger().transactions_snapshot().front();
  EXPECT_TRUE(transaction.degraded);
  EXPECT_LT(transaction.coverage, 1.0);
  EXPECT_DOUBLE_EQ(transaction.spec.alpha, receipt.spec.alpha);
}

}  // namespace
}  // namespace prc
