#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "common/check.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "iot/network.h"
#include "data/partition.h"
#include "market/broker.h"
#include "market/consumer.h"
#include "market/ledger.h"
#include "support/ledger_sale.h"

namespace prc::market {
namespace {

constexpr std::size_t kNodes = 8;
constexpr std::size_t kTotal = 20000;

std::vector<std::vector<double>> node_data() {
  std::vector<double> values(kTotal);
  for (std::size_t i = 0; i < kTotal; ++i) values[i] = static_cast<double>(i);
  Rng rng(3);
  return data::partition_values(values, kNodes,
                                data::PartitionStrategy::kRoundRobin, rng);
}

pricing::VarianceModel variance_model() {
  return pricing::VarianceModel(kTotal, kNodes);
}

std::unique_ptr<pricing::PricingFunction> safe_pricing() {
  return std::make_unique<pricing::InverseVariancePricing>(
      variance_model(), query::AccuracySpec{0.1, 0.5}, 100.0, 1.0);
}

std::unique_ptr<pricing::PricingFunction> steep_pricing() {
  return std::make_unique<pricing::InverseVariancePricing>(
      variance_model(), query::AccuracySpec{0.1, 0.5}, 100.0, 2.0);
}

struct MarketFixture {
  explicit MarketFixture(std::unique_ptr<pricing::PricingFunction> pricing)
      : network(node_data()),
        counter(network),
        broker(counter, std::move(pricing)) {}

  iot::FlatNetwork network;
  dp::PrivateRangeCounter counter;
  DataBroker broker;
};

TEST(LedgerTest, RecordsAndAggregates) {
  Ledger ledger;
  EXPECT_EQ(
      reserve_and_commit(ledger, {0, "alice", {0, 1}, {0.1, 0.5}, 10.0, 0.2}),
      0u);
  EXPECT_EQ(
      reserve_and_commit(ledger, {0, "bob", {0, 1}, {0.1, 0.5}, 5.0, 0.1}),
      1u);
  EXPECT_EQ(
      reserve_and_commit(ledger, {0, "alice", {0, 1}, {0.2, 0.4}, 2.5, 0.05}),
      2u);
  EXPECT_EQ(ledger.transaction_count(), 3u);
  EXPECT_DOUBLE_EQ(ledger.total_revenue(), 17.5);
  EXPECT_DOUBLE_EQ(ledger.consumer_spend("alice"), 12.5);
  EXPECT_DOUBLE_EQ(ledger.consumer_epsilon("alice"), 0.25);
  EXPECT_DOUBLE_EQ(ledger.consumer_spend("carol"), 0.0);
  EXPECT_DOUBLE_EQ(ledger.consumer_epsilon("carol"), 0.0);
  // Global exposure = sum over all consumers (collusion-safe audit).
  EXPECT_DOUBLE_EQ(ledger.total_epsilon(), 0.35);
}

TEST(LedgerTest, RejectsNegativeAmounts) {
  Ledger ledger;
  EXPECT_THROW(
      reserve_and_commit(ledger, {0, "x", {0, 1}, {0.1, 0.5}, -1.0, 0.1}),
      std::invalid_argument);
  EXPECT_THROW(
      reserve_and_commit(ledger, {0, "x", {0, 1}, {0.1, 0.5}, 1.0, -0.1}),
      std::invalid_argument);
}

// The running sums behind the per-commit conservation gauge must agree with
// the walk over every consumer's totals, whichever way the books changed.
void expect_sums_match_walk(const Ledger& ledger) {
  const LedgerSnapshot snapshot = ledger.snapshot();
  double walked_epsilon = 0.0;
  double walked_spend = 0.0;
  for (const auto& totals : snapshot.consumers) {
    walked_epsilon += totals.epsilon.value();
    walked_spend += totals.spend;
  }
  const Ledger::ConsumerSums sums = ledger.consumer_sums();
  const double tolerance = 1e-12 * (1.0 + snapshot.total_epsilon.value() +
                                    snapshot.total_revenue);
  EXPECT_NEAR(sums.consumer_epsilon, walked_epsilon, tolerance);
  EXPECT_NEAR(sums.consumer_spend, walked_spend, tolerance);
  EXPECT_NEAR(std::abs(sums.consumer_epsilon - snapshot.total_epsilon.value()) +
                  std::abs(sums.consumer_spend - snapshot.total_revenue),
              ledger.conservation_discrepancy(), tolerance);
}

Transaction sale_to(std::size_t consumer, std::size_t i) {
  // Prices and budgets that do not add exactly in binary.
  return {0, "consumer-" + std::to_string(consumer), {0, 1}, {0.1, 0.5},
          0.1 * static_cast<double>(i % 7 + 1),
          0.01 / static_cast<double>(i % 3 + 3)};
}

TEST(LedgerTest, RunningConsumerSumsTrackTheWalk) {
  const telemetry::Gauge& gauge =
      telemetry::gauge("market.ledger_conservation_discrepancy");
  Ledger live;
  for (std::size_t i = 0; i < 200; ++i) {
    reserve_and_commit(live, sale_to(i % 37, i));
    // Each commit publishes the gauge from the running sums.
    const auto sums = live.consumer_sums();
    EXPECT_DOUBLE_EQ(
        gauge.value(),
        std::abs(sums.consumer_epsilon - live.total_epsilon().value()) +
            std::abs(sums.consumer_spend - live.total_revenue()));
  }
  expect_sums_match_walk(live);

  // An orphaned intent adds epsilon' to its consumer and none to spend,
  // including for a consumer the ledger has not seen.
  for (const char* consumer : {"consumer-3", "crashed-only"}) {
    AuditEvent orphan;
    orphan.type = AuditEventType::kIntent;
    orphan.consumer_id = consumer;
    orphan.epsilon = 0.0123;
    live.absorb_orphaned(orphan);
  }
  expect_sums_match_walk(live);

  // A restored base sums its consumers once; replays and orphans after it
  // keep adding.
  Ledger restored;
  restored.restore(live.checkpoint("test base"));
  expect_sums_match_walk(restored);
  AuditEvent replayed = commit_event(sale_to(5, 11), 0);
  replayed.ledger_sequence = live.snapshot().next_sequence + 2;
  restored.replay(replayed);
  AuditEvent orphan;
  orphan.type = AuditEventType::kIntent;
  orphan.consumer_id = "consumer-40";
  orphan.epsilon = 0.007;
  restored.absorb_orphaned(orphan);
  expect_sums_match_walk(restored);

  // adopt() takes the sums with the books and leaves the source empty.
  const Ledger::ConsumerSums before = restored.consumer_sums();
  Ledger adopted;
  adopted.adopt(restored);
  expect_sums_match_walk(adopted);
  EXPECT_DOUBLE_EQ(adopted.consumer_sums().consumer_epsilon,
                   before.consumer_epsilon);
  EXPECT_DOUBLE_EQ(adopted.consumer_sums().consumer_spend,
                   before.consumer_spend);
  EXPECT_DOUBLE_EQ(restored.consumer_sums().consumer_epsilon, 0.0);
  EXPECT_DOUBLE_EQ(restored.consumer_sums().consumer_spend, 0.0);
}

TEST(LedgerReservationTest, ExtendWithinCapGrowsTheHold) {
  Ledger ledger;
  auto reservation = ledger.try_reserve("alice", 0.01, 0.05);
  ASSERT_TRUE(reservation.has_value());
  EXPECT_TRUE(ledger.try_extend(*reservation, 0.02, 0.05));
  EXPECT_DOUBLE_EQ(reservation->epsilon().value(), 0.03);
  // The grown hold blocks headroom the original reservation would have
  // left open to a competing sale.
  EXPECT_FALSE(ledger.try_reserve("alice", 0.025, 0.05).has_value());
  EXPECT_TRUE(ledger.try_reserve("alice", 0.02, 0.05).has_value());
}

TEST(LedgerReservationTest, ExtendPastCapRefusesAndLeavesHoldIntact) {
  Ledger ledger;
  auto reservation = ledger.try_reserve("alice", 0.03, 0.05);
  ASSERT_TRUE(reservation.has_value());
  EXPECT_FALSE(ledger.try_extend(*reservation, 0.021, 0.05));
  EXPECT_DOUBLE_EQ(reservation->epsilon().value(), 0.03);
  // A refused extension leaves the original hold in place; releasing the
  // reservation returns ALL of it, including any prior extension.
  EXPECT_TRUE(ledger.try_extend(*reservation, 0.01, 0.05));
  reservation.reset();
  EXPECT_TRUE(ledger.try_reserve("alice", 0.05, 0.05).has_value());
}

TEST(LedgerReservationTest, CommitAboveTheReservationIsFlaggedAsOverrun) {
  // The mint barrier keeps the reservation aligned with the minted plan,
  // so an overrun at commit means a release slipped past the cap without
  // admission: fatal in debug builds, counted in release builds.
  Ledger ledger;
  auto reservation = ledger.try_reserve("alice", 0.01, 1.0);
  ASSERT_TRUE(reservation.has_value());
  const Transaction oversized{0, "alice", {0, 1}, {0.1, 0.5}, 1.0, 0.02};
#if PRC_DCHECK_IS_ON()
  EXPECT_THROW(ledger.commit(std::move(*reservation), oversized),
               std::invalid_argument);
#else
  ledger.commit(std::move(*reservation), oversized);
  EXPECT_DOUBLE_EQ(ledger.consumer_epsilon("alice").value(), 0.02);
#endif
}

TEST(BrokerTest, RequiresPricing) {
  iot::FlatNetwork network(node_data());
  dp::PrivateRangeCounter counter(network);
  EXPECT_THROW(DataBroker(counter, nullptr), std::invalid_argument);
}

TEST(BrokerTest, SellRecordsTransactionAndCharges) {
  MarketFixture fixture(safe_pricing());
  const query::AccuracySpec spec{0.08, 0.7};
  const double quoted = fixture.broker.quote(spec);
  const auto receipt =
      fixture.broker.sell("alice", {1000.5, 15000.5}, spec);
  EXPECT_DOUBLE_EQ(receipt.price, quoted);
  EXPECT_EQ(fixture.broker.ledger().transaction_count(), 1u);
  EXPECT_DOUBLE_EQ(fixture.broker.ledger().total_revenue(), quoted);
  EXPECT_GT(fixture.broker.ledger().consumer_epsilon("alice"), 0.0);
  EXPECT_GE(receipt.value, 0.0);
  EXPECT_LE(receipt.value, static_cast<double>(kTotal));
}

TEST(BrokerTest, PrivacyBudgetAccumulatesAcrossSales) {
  MarketFixture fixture(safe_pricing());
  const query::AccuracySpec spec{0.1, 0.6};
  fixture.broker.sell("alice", {100.5, 5000.5}, spec);
  const double after_one =
      fixture.broker.ledger().consumer_epsilon("alice");
  fixture.broker.sell("alice", {100.5, 5000.5}, spec);
  const double after_two =
      fixture.broker.ledger().consumer_epsilon("alice");
  EXPECT_NEAR(after_two, 2.0 * after_one, after_one * 0.2);
}

TEST(HonestConsumerTest, PaysQuotedPrice) {
  MarketFixture fixture(safe_pricing());
  HonestConsumer consumer("carol", fixture.broker);
  const query::AccuracySpec spec{0.1, 0.8};
  const auto outcome = consumer.acquire({500.5, 9000.5}, spec);
  EXPECT_EQ(outcome.queries_issued, 1u);
  EXPECT_DOUBLE_EQ(outcome.total_cost, fixture.broker.quote(spec));
}

TEST(ArbitrageAttackerTest, ProfitsAgainstSteepPricing) {
  MarketFixture fixture(steep_pricing());
  ArbitrageAttacker attacker("mallory", fixture.broker,
                             pricing::AttackSimulator(variance_model()));
  const query::AccuracySpec target{0.05, 0.9};
  const double honest_price = fixture.broker.quote(target);
  const auto outcome = attacker.acquire({1000.5, 15000.5}, target);
  EXPECT_GT(outcome.queries_issued, 1u);
  EXPECT_LT(outcome.total_cost, honest_price);
  EXPECT_TRUE(attacker.last_plan().profitable);
  // The held average's variance meets the target contract.
  EXPECT_LE(outcome.effective_variance,
            variance_model().contract_variance(target) * (1 + 1e-9));
  // Every purchase hit the ledger.
  EXPECT_EQ(fixture.broker.ledger().transaction_count(),
            outcome.queries_issued);
  EXPECT_NEAR(fixture.broker.ledger().consumer_spend("mallory"),
              outcome.total_cost, 1e-9);
}

TEST(ArbitrageAttackerTest, ForcedHonestAgainstTheoremPricing) {
  MarketFixture fixture(safe_pricing());
  ArbitrageAttacker attacker("mallory", fixture.broker,
                             pricing::AttackSimulator(variance_model()));
  const query::AccuracySpec target{0.05, 0.9};
  const auto outcome = attacker.acquire({1000.5, 15000.5}, target);
  EXPECT_EQ(outcome.queries_issued, 1u);
  EXPECT_FALSE(attacker.last_plan().profitable);
  EXPECT_DOUBLE_EQ(outcome.total_cost, fixture.broker.quote(target));
}

TEST(BudgetedBrokerTest, RefusesSalesPastTheCap) {
  iot::FlatNetwork network(node_data());
  dp::PrivateRangeCounter counter(network);
  BrokerConfig config;
  config.per_consumer_epsilon_cap = 0.02;
  DataBroker broker(counter, safe_pricing(), config);
  const query::RangeQuery range{100.5, 15000.5};
  const query::AccuracySpec spec{0.05, 0.8};

  double spent = 0.0;
  std::size_t sales = 0;
  try {
    for (int i = 0; i < 100; ++i) {
      broker.sell("alice", range, spec);
      ++sales;
      spent = broker.ledger().consumer_epsilon("alice");
    }
    FAIL() << "cap never triggered";
  } catch (const BudgetExceededError& e) {
    EXPECT_GT(sales, 0u);                 // some sales went through
    EXPECT_LE(spent, 0.02);               // never exceeded before refusing
    EXPECT_DOUBLE_EQ(e.cap(), 0.02);
    EXPECT_GT(e.spent(), 0.02);           // the refused sale would overshoot
  }
  // A refused sale records nothing.
  EXPECT_EQ(broker.ledger().transaction_count(), sales);
  // Another consumer still has a fresh budget.
  EXPECT_DOUBLE_EQ(broker.remaining_budget("bob"), 0.02);
  EXPECT_NO_THROW(broker.sell("bob", range, spec));
}

TEST(BudgetedBrokerTest, RemainingBudgetDecreases) {
  iot::FlatNetwork network(node_data());
  dp::PrivateRangeCounter counter(network);
  BrokerConfig config;
  config.per_consumer_epsilon_cap = 1.0;
  DataBroker broker(counter, safe_pricing(), config);
  const double before = broker.remaining_budget("alice");
  broker.sell("alice", {100.5, 9000.5}, {0.1, 0.6});
  EXPECT_LT(broker.remaining_budget("alice"), before);
  EXPECT_THROW(
      DataBroker(counter, safe_pricing(), BrokerConfig{0.0}),
      std::invalid_argument);
}

TEST(BudgetedBrokerTest, UnlimitedByDefault) {
  iot::FlatNetwork network(node_data());
  dp::PrivateRangeCounter counter(network);
  DataBroker broker(counter, safe_pricing());
  for (int i = 0; i < 5; ++i) {
    EXPECT_NO_THROW(broker.sell("alice", {100.5, 9000.5}, {0.1, 0.6}));
  }
  EXPECT_TRUE(std::isinf(broker.remaining_budget("alice")));
}

TEST(MarketIntegration, LedgerExposesAttackFootprint) {
  // Under vulnerable pricing the attacker triggers m separate sales; the
  // ledger shows the footprint: many transactions, total spend below the
  // honest quote (the arbitrage), and a cumulative epsilon equal to the sum
  // of the per-sale amplified budgets (sequential composition).
  MarketFixture fixture(steep_pricing());
  HonestConsumer honest("alice", fixture.broker);
  ArbitrageAttacker attacker("mallory", fixture.broker,
                             pricing::AttackSimulator(variance_model()));
  const query::AccuracySpec target{0.05, 0.9};
  honest.acquire({1000.5, 15000.5}, target);
  const auto outcome = attacker.acquire({1000.5, 15000.5}, target);
  const auto& ledger = fixture.broker.ledger();
  EXPECT_GT(outcome.queries_issued, 1u);
  EXPECT_LT(ledger.consumer_spend("mallory"),
            fixture.broker.quote(target));
  double mallory_eps = 0.0;
  for (const auto& txn : ledger.transactions_snapshot()) {
    if (txn.consumer_id == "mallory") mallory_eps += txn.epsilon_amplified;
  }
  EXPECT_NEAR(ledger.consumer_epsilon("mallory"), mallory_eps, 1e-12);
  EXPECT_GT(mallory_eps, 0.0);
}

}  // namespace
}  // namespace prc::market
