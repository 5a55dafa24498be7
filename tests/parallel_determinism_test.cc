// Determinism regression suite for the parallel execution layer.
//
// The contract under test (DESIGN.md "Threading model"): the same seed
// produces bit-identical estimates, round reports, ledger contents and
// telemetry counters no matter how many threads execute the run.  Every
// comparison here is exact (EXPECT_EQ on doubles, deliberately) — a
// tolerance would hide exactly the reassociation/reordering bugs this
// suite exists to catch.
//
// The final test flips SimulationConfig::concurrent_consumers on and
// hammers the broker/counter/ledger locks from the pool; it asserts only
// conserved quantities, and it is the test the TSan CI job leans on.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "data/partition.h"
#include "dp/private_counting.h"
#include "iot/network.h"
#include "iot/tree_network.h"
#include "market/broker.h"
#include "market/simulation.h"
#include "pricing/pricing.h"
#include "query/range_query.h"

namespace prc {
namespace {

class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(std::size_t count)
      : previous_(parallel::thread_count()) {
    parallel::set_thread_count(count);
  }
  ~ThreadCountGuard() { parallel::set_thread_count(previous_); }

 private:
  std::size_t previous_;
};

std::vector<std::vector<double>> make_node_data(std::size_t nodes,
                                                std::size_t total) {
  std::vector<double> values(total);
  Rng value_rng(12345);
  for (auto& v : values) v = value_rng.uniform(0.0, 200.0);
  Rng rng(3);
  return data::partition_values(values, nodes,
                                data::PartitionStrategy::kRoundRobin, rng);
}

std::vector<query::RangeQuery> make_ranges(std::size_t count) {
  std::vector<query::RangeQuery> ranges;
  Rng rng(7);
  for (std::size_t i = 0; i < count; ++i) {
    const double lo = rng.uniform(0.0, 150.0);
    ranges.push_back({lo, lo + rng.uniform(5.0, 40.0)});
  }
  return ranges;
}

iot::NetworkConfig lossy_flat_config() {
  iot::NetworkConfig config;
  config.seed = 11;
  config.frame_loss_probability = 0.25;
  config.max_attempts = 3;
  config.faults.good_to_bad = 0.1;
  config.faults.loss_bad = 0.6;
  config.faults.duplication_probability = 0.05;
  config.faults.crash_probability = 0.05;
  config.faults.seed = 42;
  return config;
}

void expect_same_stats(const iot::CommunicationStats& a,
                       const iot::CommunicationStats& b) {
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

void expect_same_report(const iot::RoundReport& a, const iot::RoundReport& b) {
  EXPECT_EQ(a.target_p, b.target_p);
  EXPECT_EQ(a.new_samples, b.new_samples);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i], b.outcomes[i]) << "node " << i;
  }
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.dropped_frames, b.dropped_frames);
  EXPECT_EQ(a.severed_reports, b.severed_reports);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.min_probability, b.min_probability);
}

TEST(ParallelDeterminismTest, FlatRoundBitIdenticalAcrossThreadCounts) {
  const auto ranges = make_ranges(16);
  iot::RoundReport reports[2];
  iot::CommunicationStats stats[2];
  std::vector<double> estimates[2];
  const std::size_t thread_counts[2] = {1, 8};
  for (int run = 0; run < 2; ++run) {
    ThreadCountGuard guard(thread_counts[run]);
    iot::FlatNetwork network(make_node_data(24, 6000), lossy_flat_config());
    network.ensure_sampling_probability(0.1);
    reports[run] = network.ensure_sampling_probability(0.3);
    stats[run] = network.stats();
    for (const auto& range : ranges) {
      estimates[run].push_back(network.rank_counting_estimate(range));
    }
  }
  expect_same_report(reports[0], reports[1]);
  expect_same_stats(stats[0], stats[1]);
  EXPECT_EQ(estimates[0], estimates[1]);  // bitwise, both rounds applied
}

// Two tree configs: a bounded lossy store-and-forward round, and a
// fault-free aggregated round whose lanes run in parallel before the serial
// convergecast.
TEST(ParallelDeterminismTest, TreeRoundBitIdenticalAcrossThreadCounts) {
  const auto ranges = make_ranges(16);
  iot::TreeConfig bounded;
  bounded.seed = 19;
  bounded.fanout = 3;
  bounded.frame_loss_probability = 0.2;
  bounded.max_attempts = 4;
  iot::TreeConfig aggregated;
  aggregated.seed = 19;
  aggregated.fanout = 3;
  aggregated.frame_loss_probability = 0.2;
  aggregated.aggregate_frames = true;
  aggregated.max_attempts = 0;
  for (const auto& config : {bounded, aggregated}) {
    SCOPED_TRACE(config.max_attempts == 0 ? "aggregated" : "bounded");
    iot::RoundReport reports[2];
    iot::CommunicationStats stats[2];
    std::vector<iot::TreeLevelStats> levels[2];
    std::vector<double> estimates[2];
    const std::size_t thread_counts[2] = {1, 8};
    for (int run = 0; run < 2; ++run) {
      ThreadCountGuard guard(thread_counts[run]);
      iot::TreeNetwork network(make_node_data(40, 8000), config);
      reports[run] = network.ensure_sampling_probability(0.25);
      stats[run] = network.stats();
      levels[run] = network.level_stats();
      for (const auto& range : ranges) {
      estimates[run].push_back(network.rank_counting_estimate(range));
    }
    }
    expect_same_report(reports[0], reports[1]);
    expect_same_stats(stats[0], stats[1]);
    ASSERT_EQ(levels[0].size(), levels[1].size());
    for (std::size_t d = 0; d < levels[0].size(); ++d) {
      EXPECT_EQ(levels[0][d].links_crossed, levels[1][d].links_crossed);
      EXPECT_EQ(levels[0][d].bytes, levels[1][d].bytes);
    }
    EXPECT_EQ(estimates[0], estimates[1]);
  }
}

using CounterMap = std::map<std::string, std::uint64_t>;

CounterMap counter_map() {
  CounterMap map;
  for (const auto& [name, value] :
       telemetry::Telemetry::registry().snapshot().counters) {
    map[name] = value;
  }
  return map;
}

struct MarketRunResult {
  market::SimulationReport report;
  std::vector<market::Transaction> transactions;
  CounterMap counters;
  std::vector<telemetry::HistogramSnapshot> histograms;
};

MarketRunResult run_market(std::size_t threads, bool concurrent) {
  ThreadCountGuard guard(threads);
  telemetry::Telemetry::registry().reset();
  iot::NetworkConfig net_config;
  net_config.seed = 9;
  iot::FlatNetwork network(make_node_data(8, 20000), net_config);
  dp::PrivateRangeCounter counter(network);
  const pricing::VarianceModel model(20000, 8);
  market::DataBroker broker(
      counter,
      std::make_unique<pricing::InverseVariancePricing>(
          model, query::AccuracySpec{0.1, 0.5}, 100.0, 1.0),
      market::BrokerConfig{});
  market::SimulationConfig config;
  config.rounds = 12;
  config.honest_consumers = 4;
  config.attackers = 2;
  config.seed = 77;
  config.concurrent_consumers = concurrent;
  MarketRunResult result;
  result.report = market::MarketSimulation(
                      broker, model, make_ranges(6), config)
                      .run();
  result.transactions = broker.ledger().transactions_snapshot();
  EXPECT_LE(broker.ledger().conservation_discrepancy(), 1e-9);
  result.counters = counter_map();
  result.histograms = telemetry::Telemetry::registry().snapshot().histograms;
  return result;
}

const telemetry::HistogramSnapshot* find_histogram(
    const MarketRunResult& run, const std::string& name) {
  for (const auto& histogram : run.histograms) {
    if (histogram.name == name) return &histogram;
  }
  return nullptr;
}

TEST(ParallelDeterminismTest, MarketRunBitIdenticalAcrossThreadCounts) {
  const auto serial = run_market(1, /*concurrent=*/false);
  const auto pooled = run_market(8, /*concurrent=*/false);

  EXPECT_EQ(serial.report.honest_purchases, pooled.report.honest_purchases);
  EXPECT_EQ(serial.report.attacker_queries, pooled.report.attacker_queries);
  EXPECT_EQ(serial.report.attacker_targets, pooled.report.attacker_targets);
  EXPECT_EQ(serial.report.profitable_attacks,
            pooled.report.profitable_attacks);
  EXPECT_EQ(serial.report.refused_sales, pooled.report.refused_sales);
  EXPECT_EQ(serial.report.revenue, pooled.report.revenue);
  EXPECT_EQ(serial.report.honest_spend, pooled.report.honest_spend);
  EXPECT_EQ(serial.report.attacker_spend, pooled.report.attacker_spend);
  EXPECT_EQ(serial.report.attacker_honest_value,
            pooled.report.attacker_honest_value);
  EXPECT_EQ(serial.report.max_honest_epsilon,
            pooled.report.max_honest_epsilon);
  EXPECT_EQ(serial.report.max_attacker_epsilon,
            pooled.report.max_attacker_epsilon);

  // The ledger is the market's audit trail: same sequence, same consumers,
  // same prices, same released budgets — in the same order.
  ASSERT_EQ(serial.transactions.size(), pooled.transactions.size());
  for (std::size_t i = 0; i < serial.transactions.size(); ++i) {
    const auto& a = serial.transactions[i];
    const auto& b = pooled.transactions[i];
    EXPECT_EQ(a.sequence, b.sequence);
    EXPECT_EQ(a.consumer_id, b.consumer_id);
    EXPECT_EQ(a.price, b.price);
    EXPECT_EQ(a.epsilon_amplified, b.epsilon_amplified);
    EXPECT_EQ(a.degraded, b.degraded);
  }

  // Telemetry counters (event counts across every layer the run touched)
  // must agree exactly; they are the cheap first diff when determinism
  // regresses.
  EXPECT_EQ(serial.counters, pooled.counters);
}

// A histogram's count and buckets are inside the determinism contract; its
// sum is not (concurrent batches add their values in arrival order, so the
// last digits of the sum follow the schedule).  The attack searches fan
// out over the pool and record their lattice prices into `pricing.price`.
TEST(ParallelDeterminismTest, PriceHistogramCountsMatchAcrossThreadCounts) {
  const auto serial = run_market(1, /*concurrent=*/false);
  const auto pooled = run_market(4, /*concurrent=*/false);
  const auto* a = find_histogram(serial, "pricing.price");
  const auto* b = find_histogram(pooled, "pricing.price");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_GT(a->count, 0u);
  EXPECT_EQ(a->count, b->count);
  EXPECT_EQ(a->bounds, b->bounds);
  EXPECT_EQ(a->bucket_counts, b->bucket_counts);
  EXPECT_EQ(a->min, b->min);
  EXPECT_EQ(a->max, b->max);
}

// The contention test the TSan job leans on: commit purchases concurrently
// against the mutexed broker/counter/ledger.  Interleaving is
// nondeterministic, so assert the conserved quantities only.
TEST(ParallelDeterminismTest, ConcurrentConsumersKeepLedgerConserved) {
  const auto result = run_market(8, /*concurrent=*/true);
  // Every sold query is ledgered exactly once.
  EXPECT_EQ(result.transactions.size(),
            result.report.honest_purchases + result.report.attacker_queries);
  // Money is conserved: the ledger's revenue equals what consumers spent.
  double ledger_revenue = 0.0;
  for (const auto& t : result.transactions) ledger_revenue += t.price;
  EXPECT_NEAR(
      ledger_revenue,
      result.report.honest_spend + result.report.attacker_spend,
      1e-6 * (1.0 + ledger_revenue));
  // No refusals with an uncapped budget — a refusal here would mean a sale
  // vanished in a race rather than by policy.
  EXPECT_EQ(result.report.refused_sales, 0u);
}

}  // namespace
}  // namespace prc
