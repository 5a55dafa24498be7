// Refusals as values: DataBroker::try_sell returns each refusal kind as a
// Refusal with nothing spent, and sell() throws the same refusal, with the
// same text, from its one throwing boundary.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/telemetry.h"
#include "data/partition.h"
#include "iot/network.h"
#include "market/broker.h"
#include "market/ledger.h"

namespace prc::market {
namespace {

constexpr std::size_t kNodes = 8;
constexpr std::size_t kTotal = 20000;
const query::RangeQuery kRange{100.5, 15000.5};

std::vector<std::vector<double>> node_data() {
  std::vector<double> values(kTotal);
  for (std::size_t i = 0; i < kTotal; ++i) values[i] = static_cast<double>(i);
  Rng rng(3);
  return data::partition_values(values, kNodes,
                                data::PartitionStrategy::kRoundRobin, rng);
}

std::unique_ptr<pricing::PricingFunction> safe_pricing() {
  return std::make_unique<pricing::InverseVariancePricing>(
      pricing::VarianceModel(kTotal, kNodes), query::AccuracySpec{0.1, 0.5},
      100.0, 1.0);
}

using Prepare = std::function<void(iot::FlatNetwork&)>;

iot::FlatNetwork& prepared(iot::FlatNetwork& network, const Prepare& prepare) {
  if (prepare) prepare(network);
  return network;
}

// One broker over its own seeded network; `prepare` puts the network into
// a scenario's state before the counter and broker see it.
struct Rig {
  Rig(const BrokerConfig& config, const Prepare& prepare)
      : network(node_data()),
        counter(prepared(network, prepare), {}, 17),
        broker(counter, safe_pricing(), config) {}

  iot::FlatNetwork network;
  dp::PrivateRangeCounter counter;
  DataBroker broker;
};

// Node 0 stops reporting once every node holds a p = 0.1 sample: a strict
// contract then tops the others up and leaves node 0 stale.
void stale_node_zero(iot::FlatNetwork& network) {
  network.ensure_sampling_probability(0.1);
  network.set_node_online(0, false);
}

struct Scenario {
  const char* name;
  RefusalKind kind;
  /// Today's kRefusal detail for the kind.
  const char* reason;
  BrokerConfig config;
  Prepare prepare;
  query::AccuracySpec spec;
  /// Sales `alice` completes before the refused one.
  std::size_t sales_before = 0;
  /// The refusal's full message("alice"), which is also the what() of the
  /// exception sell() throws for it.
  const char* message = "";
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  const query::AccuracySpec healthy{0.05, 0.8};
  {
    // The cap is exactly one sale's epsilon': the second sale finds the
    // consumer already at it.
    Rig probe({}, {});
    BrokerConfig config;
    config.per_consumer_epsilon_cap =
        probe.counter.plan_for(healthy).epsilon_amplified;
    out.push_back({"at_cap", RefusalKind::kAtCap,
                   "consumer already at the per-consumer epsilon cap", config,
                   {}, healthy, 1,
                   "privacy budget exceeded for 'alice': spent 0.007235 of "
                   "0.007235"});
  }
  {
    BrokerConfig config;
    config.per_consumer_epsilon_cap = 1e-9;
    out.push_back({"projected_over_cap", RefusalKind::kProjectedOverCap,
                   "projected plan does not fit under the epsilon cap",
                   config, {}, healthy, 0,
                   "privacy budget exceeded for 'alice': spent 0.007235 of "
                   "0.000000"});
  }
  {
    // The projection (0.023) fits under 0.03; the plan minted after the
    // top-up leaves node 0 stale costs 0.048, and the cap refuses the
    // extension at the mint barrier.
    BrokerConfig config;
    config.per_consumer_epsilon_cap = 0.03;
    config.degraded_policy = DegradedSalePolicy::kReprice;
    out.push_back({"final_plan_over_cap", RefusalKind::kFinalPlanOverCap,
                   "final plan exceeds reservation and the cap refused the "
                   "extension",
                   config, stale_node_zero, {0.02, 0.9}, 0,
                   "privacy budget exceeded for 'alice': spent 0.047590 of "
                   "0.030000"});
  }
  {
    BrokerConfig config;
    config.per_consumer_epsilon_cap = 100.0;
    out.push_back({"coverage_policy", RefusalKind::kCoveragePolicy,
                   "coverage cannot support the contract; policy is refuse",
                   config,
                   [](iot::FlatNetwork& network) {
                     network.set_node_online(0, false);
                   },
                   {0.2, 0.5}, 0,
                   "sale refused: accuracy contract (alpha=0.2, delta=0.5) "
                   "unreachable: degraded collection left coverage at "
                   "1.000000"});
  }
  {
    BrokerConfig config;
    config.per_consumer_epsilon_cap = 100.0;
    config.degraded_policy = DegradedSalePolicy::kReprice;
    out.push_back({"repricing_impossible", RefusalKind::kRepricingImpossible,
                   "repricing impossible: some node never reported", config,
                   [](iot::FlatNetwork& network) {
                     network.set_node_online(0, false);
                   },
                   {0.2, 0.5}, 0,
                   "repricing impossible: no degraded contract exists: some "
                   "node never reported at all"});
    // Node 0 reported once, at p = 1e-4, and then went stale: no widening
    // of alpha reaches a plan at that effective p.
    out.push_back({"repricing_impossible_stale",
                   RefusalKind::kRepricingImpossible,
                   "repricing impossible: no widening reaches the smallest "
                   "node probability",
                   config,
                   [](iot::FlatNetwork& network) {
                     network.ensure_sampling_probability(1e-4);
                     network.set_node_online(0, false);
                   },
                   {0.2, 0.5}, 0,
                   "repricing impossible: no degraded contract exists even "
                   "at alpha = 1 (effective p 0.000100)"});
  }
  return out;
}

bool budget_kind(RefusalKind kind) {
  return kind == RefusalKind::kAtCap ||
         kind == RefusalKind::kProjectedOverCap ||
         kind == RefusalKind::kFinalPlanOverCap;
}

std::vector<AuditEvent> events_of(const DataBroker& broker) {
  std::vector<AuditEvent> events;
  broker.audit_log().for_each_event(
      [&events](const AuditEvent& event) { events.push_back(event); });
  return events;
}

TEST(RefusalParityTest, EveryKindRefusesByValueAndThrowsTheSameAtTheBoundary) {
  telemetry::Counter& budget_refusals =
      telemetry::counter("market.refusals_budget");
  telemetry::Counter& coverage_refusals =
      telemetry::counter("market.refusals_coverage");
  for (const Scenario& scenario : scenarios()) {
    SCOPED_TRACE(scenario.name);
    Rig by_value(scenario.config, scenario.prepare);
    Rig by_throw(scenario.config, scenario.prepare);
    for (std::size_t i = 0; i < scenario.sales_before; ++i) {
      ASSERT_TRUE(by_value.broker.try_sell("alice", kRange, scenario.spec)
                      .sold());
      by_throw.broker.sell("alice", kRange, scenario.spec);
    }

    DataBroker& broker = by_value.broker;
    const double total_before = broker.ledger().total_epsilon();
    const double alice_before = broker.ledger().consumer_epsilon("alice");
    const double remaining_before = broker.remaining_budget("alice");
    const std::size_t events_before = broker.audit_log().size();
    const std::uint64_t budget_before = budget_refusals.value();
    const std::uint64_t coverage_before = coverage_refusals.value();

    const SaleOutcome outcome = broker.try_sell("alice", kRange, scenario.spec);
    ASSERT_FALSE(outcome.sold());
    const Refusal& refusal = outcome.refusal();
    EXPECT_EQ(refusal.kind, scenario.kind);
    EXPECT_EQ(refusal.budget(), budget_kind(scenario.kind));
    EXPECT_EQ(refusal.cap.value(),
              scenario.config.per_consumer_epsilon_cap.value());
    EXPECT_EQ(refusal.spent.value(), alice_before + refusal.attempted);
    EXPECT_EQ(refusal.message("alice"), scenario.message);
    if (refusal.budget()) {
      EXPECT_GT(refusal.spent.value(), 0.0);
    } else {
      EXPECT_GT(refusal.shortfall.coverage.node_count, 0u);
    }
    switch (scenario.kind) {
      case RefusalKind::kAtCap:
        EXPECT_EQ(refusal.attempted.value(), 0.0);
        EXPECT_EQ(refusal.spent.value(), refusal.cap.value());
        break;
      case RefusalKind::kProjectedOverCap:
      case RefusalKind::kFinalPlanOverCap:
        EXPECT_GT(refusal.spent.value(), refusal.cap.value());
        break;
      case RefusalKind::kCoveragePolicy:
        break;
      case RefusalKind::kRepricingImpossible:
        EXPECT_LT(refusal.shortfall.coverage.min_probability, 1e-3);
        break;
    }

    // Nothing spent, nothing held.
    EXPECT_EQ(broker.ledger().total_epsilon().value(), total_before);
    EXPECT_EQ(broker.ledger().consumer_epsilon("alice").value(),
              alice_before);
    EXPECT_EQ(broker.remaining_budget("alice").value(), remaining_before);
    EXPECT_EQ(broker.ledger().transaction_count(), scenario.sales_before);

    // Exactly one kRefusal, with today's detail, and one counter bump.
    std::vector<AuditEvent> appended;
    for (const AuditEvent& event : events_of(broker)) {
      if (event.index >= events_before) appended.push_back(event);
    }
    std::size_t refusal_events = 0;
    for (const AuditEvent& event : appended) {
      EXPECT_NE(event.type, AuditEventType::kMint);
      EXPECT_NE(event.type, AuditEventType::kCommit);
      if (event.type != AuditEventType::kRefusal) continue;
      ++refusal_events;
      EXPECT_EQ(event.consumer_id, "alice");
      EXPECT_EQ(event.detail, scenario.reason);
      EXPECT_EQ(event.epsilon.value(), refusal.attempted.value());
      EXPECT_EQ(event.alpha.value(), scenario.spec.alpha);
    }
    ASSERT_EQ(refusal_events, 1u);
    EXPECT_EQ(appended.back().type, AuditEventType::kRefusal);
    EXPECT_EQ(budget_refusals.value() - budget_before,
              refusal.budget() ? 1u : 0u);
    EXPECT_EQ(coverage_refusals.value() - coverage_before,
              refusal.budget() ? 0u : 1u);
    EXPECT_TRUE(broker.audit_log().reconcile(broker.ledger()).consistent);

    const std::string timeline = broker.audit_log().to_jsonl();

    // The reservation was released: the whole remaining headroom can be
    // held again (the ledger is the broker's own, reached for this probe).
    auto& ledger = const_cast<Ledger&>(broker.ledger());
    EXPECT_TRUE(ledger
                    .try_reserve("alice", broker.remaining_budget("alice"),
                                 scenario.config.per_consumer_epsilon_cap)
                    .has_value());

    // The twin's sell() throws the same refusal.
    const std::string what = refusal.message("alice");
    if (refusal.budget()) {
      EXPECT_EQ(what, "privacy budget exceeded for 'alice': spent " +
                          std::to_string(refusal.spent.value()) + " of " +
                          std::to_string(refusal.cap.value()));
      try {
        by_throw.broker.sell("alice", kRange, scenario.spec);
        ADD_FAILURE() << "sell() did not throw";
      } catch (const BudgetExceededError& err) {
        EXPECT_EQ(std::string(err.what()), what);
        EXPECT_EQ(err.spent().value(), refusal.spent.value());
        EXPECT_EQ(err.cap().value(), refusal.cap.value());
      }
    } else {
      try {
        by_throw.broker.sell("alice", kRange, scenario.spec);
        ADD_FAILURE() << "sell() did not throw";
      } catch (const InsufficientCoverageError& err) {
        const iot::CoverageSummary& read = refusal.shortfall.coverage;
        EXPECT_EQ(std::string(err.what()), what);
        EXPECT_EQ(err.coverage().coverage, read.coverage);
        EXPECT_EQ(err.coverage().min_probability, read.min_probability);
        EXPECT_EQ(err.coverage().reported_nodes, read.reported_nodes);
        EXPECT_EQ(err.coverage().stale_nodes, read.stale_nodes);
      }
    }
    // ...and leaves the same timeline.
    EXPECT_EQ(by_throw.broker.audit_log().to_jsonl(), timeline);
    EXPECT_EQ(by_throw.broker.ledger().total_epsilon().value(), total_before);
  }
}

// Stale data under kReprice is sold, not refused: the counter plans at the
// smallest reached p_i and amplifies at the largest, so the delivered
// contract is honest at any coverage.  Each case sells the same receipt
// through try_sell() and sell().
TEST(RefusalParityTest, StaleCachesSellWhatTheyCanSupportThroughEitherEntry) {
  struct SoldCase {
    const char* name;
    Prepare prepare;
    query::AccuracySpec requested;
    bool degraded;
    query::AccuracySpec delivered;
    double coverage;
  };
  const SoldCase cases[] = {
      // A quarter of the data is stale at p = 0.2 while the rest holds
      // p = 0.8: the requested contract still fits at p = 0.2.
      {"quarter_stale",
       [](iot::FlatNetwork& network) {
         network.ensure_sampling_probability(0.2);
         network.set_node_online(0, false);
         network.set_node_online(1, false);
         network.ensure_sampling_probability(0.8);
       },
       {0.3, 0.5}, false, {0.3, 0.5}, 0.75},
      // The strict contract's top-up leaves node 0 stale at p = 0.1: the
      // sale is re-quoted to the smallest widening of alpha that p supports.
      {"strict_contract_node_zero_stale", stale_node_zero, {0.01, 0.9}, true,
       {0.015625, 0.9}, 0.875},
  };
  BrokerConfig config;
  config.per_consumer_epsilon_cap = 100.0;
  config.degraded_policy = DegradedSalePolicy::kReprice;
  for (const SoldCase& sold : cases) {
    SCOPED_TRACE(sold.name);
    Rig by_value(config, sold.prepare);
    Rig by_throw(config, sold.prepare);
    const SaleOutcome outcome =
        by_value.broker.try_sell("alice", kRange, sold.requested);
    ASSERT_TRUE(outcome.sold());
    const PurchaseReceipt& receipt = outcome.receipt();
    EXPECT_EQ(receipt.degraded, sold.degraded);
    EXPECT_EQ(receipt.spec.alpha, sold.delivered.alpha);
    EXPECT_EQ(receipt.spec.delta, sold.delivered.delta);
    EXPECT_EQ(receipt.requested.alpha, sold.requested.alpha);
    EXPECT_EQ(receipt.coverage, sold.coverage);

    const PurchaseReceipt thrown =
        by_throw.broker.sell("alice", kRange, sold.requested);
    EXPECT_EQ(thrown.value, receipt.value);
    EXPECT_EQ(thrown.price, receipt.price);
    EXPECT_EQ(thrown.spec.alpha, receipt.spec.alpha);
    EXPECT_EQ(thrown.coverage, receipt.coverage);
    EXPECT_EQ(by_throw.broker.audit_log().to_jsonl(),
              by_value.broker.audit_log().to_jsonl());
    EXPECT_TRUE(by_value.broker.audit_log()
                    .reconcile(by_value.broker.ledger())
                    .consistent);
  }
}

// About 1000 seeded requests, sales and refusals mixed (budget refusals at
// the projection and at the mint barrier, degraded re-quotes), through two
// identical brokers: one by sell() with catches, one by try_sell().
TEST(RefusalParityTest, MixedStreamLeavesIdenticalBooksThroughEitherEntry) {
  BrokerConfig config;
  config.per_consumer_epsilon_cap = 3.0;
  config.degraded_policy = DegradedSalePolicy::kReprice;
  Rig thrown(config, stale_node_zero);
  Rig valued(config, stale_node_zero);
  const std::vector<query::AccuracySpec> menu{
      {0.05, 0.8}, {0.1, 0.6}, {0.2, 0.5}, {0.02, 0.9}, {0.01, 0.9},
      {0.3, 0.5}};
  Rng requests(29);
  std::size_t sold = 0;
  std::size_t refused = 0;
  std::size_t degraded = 0;
  std::size_t at_barrier = 0;
  for (std::size_t i = 0; i < 1000; ++i) {
    const std::string consumer =
        "consumer-" + std::to_string(requests.uniform_int(0, 11));
    const auto& spec = menu[static_cast<std::size_t>(
        requests.uniform_int(0, static_cast<std::int64_t>(menu.size()) - 1))];
    const SaleOutcome outcome = valued.broker.try_sell(consumer, kRange, spec);
    try {
      const PurchaseReceipt receipt =
          thrown.broker.sell(consumer, kRange, spec);
      ASSERT_TRUE(outcome.sold()) << "request " << i;
      EXPECT_EQ(receipt.value, outcome.receipt().value);
      EXPECT_EQ(receipt.price, outcome.receipt().price);
      EXPECT_EQ(receipt.transaction_id, outcome.receipt().transaction_id);
      ++sold;
      if (receipt.degraded) ++degraded;
    } catch (const BudgetExceededError& err) {
      ASSERT_FALSE(outcome.sold()) << "request " << i;
      EXPECT_EQ(std::string(err.what()), outcome.refusal().message(consumer));
      ++refused;
      if (outcome.refusal().kind == RefusalKind::kFinalPlanOverCap) {
        ++at_barrier;
      }
    }
  }
  ASSERT_GT(sold, 100u);
  ASSERT_GT(refused, 100u);
  ASSERT_GT(degraded, 0u);
  ASSERT_GT(at_barrier, 0u);

  EXPECT_EQ(thrown.broker.audit_log().to_jsonl(),
            valued.broker.audit_log().to_jsonl());
  const LedgerSnapshot a = thrown.broker.ledger().snapshot();
  const LedgerSnapshot b = valued.broker.ledger().snapshot();
  EXPECT_EQ(a.next_sequence, b.next_sequence);
  EXPECT_EQ(a.total_revenue, b.total_revenue);
  EXPECT_EQ(a.total_epsilon.value(), b.total_epsilon.value());
  EXPECT_EQ(a.orphaned_epsilon.value(), b.orphaned_epsilon.value());
  EXPECT_EQ(a.degraded_sales, b.degraded_sales);
  ASSERT_EQ(a.consumers.size(), b.consumers.size());
  for (std::size_t c = 0; c < a.consumers.size(); ++c) {
    EXPECT_EQ(a.consumers[c].consumer_id, b.consumers[c].consumer_id);
    EXPECT_EQ(a.consumers[c].spend, b.consumers[c].spend);
    EXPECT_EQ(a.consumers[c].epsilon.value(), b.consumers[c].epsilon.value());
  }
  EXPECT_TRUE(
      thrown.broker.audit_log().reconcile(thrown.broker.ledger()).consistent);
  EXPECT_TRUE(
      valued.broker.audit_log().reconcile(valued.broker.ledger()).consistent);
}

// The refusal texts format numbers without vsnprintf; every byte must still
// equal what std::to_string ("%f") prints.
TEST(RefusalTextTest, NumbersPrintAsStdToStringDoes) {
  const double values[] = {0.0,
                           -0.0,
                           1e-7,
                           0.1,
                           2.0,
                           1e20,
                           1e300,
                           -1e300,
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN()};
  for (const double spent : values) {
    for (const double cap : values) {
      SCOPED_TRACE(std::to_string(spent) + " / " + std::to_string(cap));
      const BudgetExceededError err("c-1", spent, cap);
      EXPECT_EQ(std::string(err.what()),
                "privacy budget exceeded for 'c-1': spent " +
                    std::to_string(spent) + " of " + std::to_string(cap));
    }
  }
}

}  // namespace
}  // namespace prc::market
