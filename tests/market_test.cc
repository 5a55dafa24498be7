#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "iot/network.h"
#include "data/partition.h"
#include "market/broker.h"
#include "market/consumer.h"
#include "market/ledger.h"
#include "market/wal.h"
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

TEST(LedgerReservationTest, ReleasesLeaveNoResidueAndNoNegativeHold) {
  // In binary, (0.7 + 0.1) - 0.7 - 0.1 is -2.8e-17 and (0.1 + 0.2) - 0.1 -
  // 0.2 is +2.8e-17.  Once a consumer's last reservation ends nothing is
  // held, whichever way the subtractions round.
  Ledger ledger;
  const auto hold_and_release = [&ledger](const char* consumer, double first,
                                          double second) {
    auto a = ledger.try_reserve(consumer, first, 1.0);
    auto b = ledger.try_reserve(consumer, second, 1.0);
    ASSERT_TRUE(a.has_value() && b.has_value());
    a.reset();
    b.reset();
  };
  hold_and_release("alice", 0.7, 0.1);
  EXPECT_FALSE(ledger.try_reserve("alice", 3e-17, 2e-17).has_value());
  EXPECT_TRUE(ledger.try_reserve("alice", 2e-17, 2e-17).has_value());
  hold_and_release("bob", 0.1, 0.2);
  EXPECT_FALSE(ledger.try_reserve("bob", 3e-17, 2e-17).has_value());
  EXPECT_TRUE(ledger.try_reserve("bob", 2e-17, 2e-17).has_value());
  // A release while another reservation is live still subtracts.
  auto first = ledger.try_reserve("carol", 0.1, 1.0);
  auto second = ledger.try_reserve("carol", 0.2, 1.0);
  ASSERT_TRUE(first.has_value() && second.has_value());
  first.reset();
  EXPECT_FALSE(ledger.try_reserve("carol", 0.8 + 1e-9, 1.0).has_value());
  EXPECT_TRUE(ledger.try_reserve("carol", 0.7, 1.0).has_value());
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

// --- The ledger against a model of its books. ---

/// The books as three ordered maps (booked spend, booked epsilon', held
/// epsilon') plus the scalar totals, changed by the same floating-point
/// operations in the same order as the ledger, so every figure compares
/// exactly.
struct LedgerModel {
  std::map<std::string, double> spend;
  std::map<std::string, double> epsilon;
  std::map<std::string, double> held;
  /// Live reservations per consumer.
  std::map<std::string, std::size_t> reservations;
  std::uint64_t next_sequence = 0;
  std::size_t commits = 0;
  std::size_t degraded = 0;
  double revenue = 0.0;
  double total_epsilon = 0.0;
  double orphaned = 0.0;
  Ledger::ConsumerSums sums;

  static double get(const std::map<std::string, double>& map,
                    const std::string& consumer) {
    const auto it = map.find(consumer);
    return it == map.end() ? 0.0 : it->second;
  }
  bool hold(const std::string& consumer, double amount, double cap) {
    const double current = get(held, consumer);
    if (get(epsilon, consumer) + current + amount > cap) return false;
    held[consumer] = current + amount;
    return true;
  }
  bool reserve(const std::string& consumer, double amount, double cap) {
    if (!hold(consumer, amount, cap)) return false;
    ++reservations[consumer];
    return true;
  }
  void release(const std::string& consumer, double amount) {
    const auto it = held.find(consumer);
    if (--reservations[consumer] == 0) {
      // The last live reservation leaves nothing held.
      if (it != held.end()) held.erase(it);
      return;
    }
    if (it == held.end()) return;
    it->second -= amount;
    if (it->second <= 0.0) held.erase(it);
  }
  void book_sale(const Transaction& sale, std::uint64_t sequence) {
    next_sequence = sequence + 1;
    ++commits;
    if (sale.degraded) ++degraded;
    revenue += sale.price;
    total_epsilon += sale.epsilon_amplified.value();
    spend[sale.consumer_id] += sale.price;
    epsilon[sale.consumer_id] += sale.epsilon_amplified.value();
    sums.consumer_spend += sale.price;
    sums.consumer_epsilon += sale.epsilon_amplified.value();
  }
  void book_orphan(const std::string& consumer, double amount) {
    total_epsilon += amount;
    orphaned += amount;
    epsilon[consumer] += amount;
    sums.consumer_epsilon += amount;
  }
  LedgerSnapshot snapshot() const {
    LedgerSnapshot snap;
    snap.next_sequence = next_sequence;
    snap.total_revenue = revenue;
    snap.total_epsilon = total_epsilon;
    snap.orphaned_epsilon = orphaned;
    snap.degraded_sales = degraded;
    for (const auto& [consumer, booked] : epsilon) {
      snap.consumers.push_back({consumer, get(spend, consumer), booked});
    }
    return snap;
  }
  /// A fresh ledger restored from `base`.
  static LedgerModel restored(const LedgerSnapshot& base) {
    LedgerModel model;
    model.next_sequence = base.next_sequence;
    model.revenue = base.total_revenue;
    model.total_epsilon = base.total_epsilon.value();
    model.orphaned = base.orphaned_epsilon.value();
    model.degraded = base.degraded_sales;
    for (const auto& totals : base.consumers) {
      model.spend[totals.consumer_id] = totals.spend;
      model.epsilon[totals.consumer_id] = totals.epsilon.value();
      model.sums.consumer_spend += totals.spend;
      model.sums.consumer_epsilon += totals.epsilon.value();
    }
    return model;
  }
};

std::vector<std::uint8_t> checkpoint_bytes(double total, std::string detail,
                                           const LedgerSnapshot& snapshot) {
  AuditEvent event;
  event.type = AuditEventType::kCheckpoint;
  event.epsilon = total;
  event.detail = std::move(detail);
  return wal::encode_record(1, event, snapshot);
}

std::vector<std::uint8_t> checkpoint_bytes(const Checkpoint& checkpoint) {
  return wal::encode_record(1, checkpoint.event, checkpoint.snapshot);
}

void expect_ledger_matches(const Ledger& ledger, const LedgerModel& model,
                           const std::vector<std::string>& consumers) {
  for (const auto& consumer : consumers) {
    EXPECT_EQ(ledger.consumer_epsilon(consumer).value(),
              LedgerModel::get(model.epsilon, consumer))
        << consumer;
    EXPECT_EQ(ledger.consumer_spend(consumer),
              LedgerModel::get(model.spend, consumer))
        << consumer;
  }
  EXPECT_EQ(ledger.transaction_count(), model.commits);
  EXPECT_EQ(ledger.total_revenue(), model.revenue);
  EXPECT_EQ(ledger.total_epsilon().value(), model.total_epsilon);
  EXPECT_EQ(ledger.orphaned_epsilon().value(), model.orphaned);
  EXPECT_EQ(ledger.degraded_sales(), model.degraded);
  const Ledger::ConsumerSums sums = ledger.consumer_sums();
  EXPECT_EQ(sums.consumer_epsilon, model.sums.consumer_epsilon);
  EXPECT_EQ(sums.consumer_spend, model.sums.consumer_spend);
  // The walk adds the consumers in the hash map's order, so it matches the
  // model's ordered sums only up to rounding.
  double epsilon_sum = 0.0;
  double spend_sum = 0.0;
  for (const auto& [consumer, booked] : model.epsilon) epsilon_sum += booked;
  for (const auto& [consumer, paid] : model.spend) spend_sum += paid;
  EXPECT_NEAR(ledger.conservation_discrepancy(),
              std::abs(epsilon_sum - model.total_epsilon) +
                  std::abs(spend_sum - model.revenue),
              1e-12 * (1.0 + model.total_epsilon + model.revenue));
  const LedgerSnapshot expected = model.snapshot();
  EXPECT_EQ(checkpoint_bytes(model.total_epsilon, "step", ledger.snapshot()),
            checkpoint_bytes(model.total_epsilon, "step", expected));
}

struct ModelReservation {
  std::optional<Ledger::Reservation> handle;
  std::string consumer;
  double epsilon = 0.0;
};

/// Runs `steps` random operations against a ledger and the model; every
/// verdict and every figure must agree after each step.
void run_ledger_model(std::uint64_t seed, std::size_t steps) {
  const std::vector<std::string> buyers = {"alice", "bob", "carol",
                                           "zero-spend"};
  // Buyers first: the random refusals and orphans draw from prefixes.
  const std::vector<std::string> consumers = {
      "alice",      "bob",         "carol",
      "zero-spend", "orphan-only", "refused-after-reserve"};
  std::vector<std::string> checked = consumers;
  checked.push_back("never-seen");
  Rng rng(seed);
  auto ledger = std::make_unique<Ledger>();
  LedgerModel model;
  std::vector<ModelReservation> live;
  const auto pick = [&rng](std::size_t size) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
  };
  const auto cap = [&rng]() {
    return rng.bernoulli(0.2) ? std::numeric_limits<double>::infinity()
                              : rng.uniform(0.5, 3.0);
  };
  const auto drop = [&](std::size_t i) {
    model.release(live[i].consumer, live[i].epsilon);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
  };
  const auto reserve = [&](const std::string& consumer, double amount,
                           double limit) {
    auto handle = ledger->try_reserve(consumer, amount, limit);
    ASSERT_EQ(handle.has_value(), model.reserve(consumer, amount, limit))
        << consumer << " reserving " << amount << " under " << limit;
    if (handle) live.push_back({std::move(handle), consumer, amount});
  };

  // Scripted first: one consumer holding two reservations at once, and a
  // consumer refused after its reservation, who stays out of the
  // checkpoint.
  reserve("alice", 0.125, 10.0);
  reserve("alice", 0.25, 10.0);
  ASSERT_EQ(live.size(), 2u);
  reserve("refused-after-reserve", 0.1, 10.0);
  ASSERT_EQ(live.size(), 3u);
  ledger->refuse("refused-after-reserve", {0, 1}, {0.1, 0.5}, 0.1,
                 "coverage below floor");
  drop(2);
  {
    const Checkpoint checkpoint = ledger->checkpoint("after refusal");
    EXPECT_EQ(checkpoint_bytes(checkpoint),
              checkpoint_bytes(model.total_epsilon, "after refusal",
                               model.snapshot()));
    for (const auto& totals : checkpoint.snapshot.consumers) {
      EXPECT_NE(totals.consumer_id, "refused-after-reserve");
    }
  }

  for (std::size_t step = 0; step < steps; ++step) {
    const std::int64_t op = rng.uniform_int(0, 9);
    if (op <= 2) {
      reserve(buyers[pick(buyers.size())], rng.uniform(0.0, 0.2), cap());
    } else if (op == 3 && !live.empty()) {
      ModelReservation& held = live[pick(live.size())];
      const double delta = rng.uniform(0.0, 0.1);
      const double limit = cap();
      const bool extended = ledger->try_extend(*held.handle, delta, limit);
      ASSERT_EQ(extended, model.hold(held.consumer, delta, limit));
      if (extended) held.epsilon += delta;
      EXPECT_EQ(held.handle->epsilon().value(), held.epsilon);
    } else if (op <= 5 && !live.empty()) {
      const std::size_t i = pick(live.size());
      ModelReservation held = std::move(live[i]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      Transaction sale{0,
                       held.consumer,
                       {0, 1},
                       {0.1, 0.5},
                       held.consumer == "zero-spend" ? 0.0
                                                     : rng.uniform(0.5, 9.0),
                       held.epsilon * rng.uniform(0.5, 1.0),
                       1.0,
                       rng.bernoulli(0.2)};
      model.release(held.consumer, held.epsilon);
      const std::uint64_t sequence = model.next_sequence;
      model.book_sale(sale, sequence);
      if (rng.bernoulli(0.3)) {
        Checkpoint checkpoint;
        EXPECT_EQ(ledger->commit(std::move(*held.handle), sale, 7,
                                 &checkpoint),
                  sequence);
        EXPECT_EQ(checkpoint_bytes(checkpoint),
                  checkpoint_bytes(model.total_epsilon,
                                   "periodic wal checkpoint",
                                   model.snapshot()));
      } else {
        EXPECT_EQ(ledger->commit(std::move(*held.handle), sale), sequence);
      }
    } else if (op == 6 && !live.empty()) {
      drop(pick(live.size()));
    } else if (op == 7) {
      const std::int64_t kind = rng.uniform_int(0, 2);
      if (kind == 0) {
        ledger->refuse(consumers[pick(consumers.size())], {0, 1}, {0.1, 0.5},
                       rng.uniform(0.0, 1.0), "budget");
      } else if (kind == 1) {
        // "orphan-only" is charged by orphans and nothing else.
        AuditEvent intent;
        intent.type = AuditEventType::kIntent;
        intent.consumer_id = consumers[pick(buyers.size() + 1)];
        intent.epsilon = rng.uniform(0.0, 0.05);
        model.book_orphan(intent.consumer_id, intent.epsilon.value());
        ledger->absorb_orphaned(intent);
      } else {
        const std::string& consumer = buyers[pick(buyers.size())];
        const Transaction sale{
            0,
            consumer,
            {0, 1},
            {0.1, 0.5},
            consumer == "zero-spend" ? 0.0 : rng.uniform(0.5, 9.0),
            rng.uniform(0.0, 0.05)};
        AuditEvent commit = commit_event(sale, 0);
        commit.ledger_sequence =
            model.next_sequence +
            static_cast<std::uint64_t>(rng.uniform_int(0, 2));
        model.book_sale(sale, commit.ledger_sequence);
        ledger->replay(commit);
      }
    } else if (op == 8) {
      const Checkpoint checkpoint = ledger->checkpoint("model step");
      EXPECT_EQ(checkpoint_bytes(checkpoint),
                checkpoint_bytes(model.total_epsilon, "model step",
                                 model.snapshot()));
    } else if (op == 9) {
      // Restore the checkpoint into a fresh ledger and adopt that into
      // another, as a recovery does; live reservations end first.
      while (!live.empty()) drop(live.size() - 1);
      const Checkpoint base = ledger->checkpoint("model base");
      Ledger restored;
      restored.restore(base);
      auto adopted = std::make_unique<Ledger>();
      adopted->adopt(restored);
      EXPECT_EQ(restored.snapshot().consumers.size(), 0u);
      ledger = std::move(adopted);
      model = LedgerModel::restored(base.snapshot);
    }
    expect_ledger_matches(*ledger, model, checked);
    if (::testing::Test::HasFailure()) {
      FAIL() << "seed " << seed << " diverged at step " << step;
    }
  }
}

TEST(LedgerModelTest, RandomOperationsMatchTheModel) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) run_ledger_model(seed, 1500);
}

// Reservations on one consumer stay live while other threads add consumers
// (growing the ledger's per-consumer map through many rehashes) and a
// reader takes snapshots; the books must come out as a serial run's.
void run_rehash_workload(Ledger& ledger, bool concurrent) {
  constexpr int kWriters = 2;
  constexpr std::size_t kNewConsumers = 1500;
  constexpr std::size_t kHotRounds = 300;
  constexpr double kCap = 1e9;
  // Dyadic amounts add exactly in any order, so the totals cannot depend
  // on the interleaving.
  auto pinned = ledger.try_reserve("hot", 1.0 / 8, kCap);
  ASSERT_TRUE(pinned.has_value());
  const auto hot = [&ledger] {
    for (std::size_t i = 0; i < kHotRounds; ++i) {
      auto first = ledger.try_reserve("hot", 1.0 / 64, kCap);
      auto second = ledger.try_reserve("hot", 1.0 / 128, kCap);
      ASSERT_TRUE(first.has_value() && second.has_value());
      ASSERT_TRUE(ledger.try_extend(*first, 1.0 / 256, kCap));
      ledger.commit(std::move(*first),
                    {0, "hot", {0, 1}, {0.1, 0.5}, 0.5, 1.0 / 64 + 1.0 / 256});
    }
  };
  const auto writer = [&ledger](int id) {
    for (std::size_t i = 0; i < kNewConsumers; ++i) {
      reserve_and_commit(ledger, {0,
                                  "new-" + std::to_string(id) + "-" +
                                      std::to_string(i),
                                  {0, 1},
                                  {0.1, 0.5},
                                  0.25,
                                  1.0 / 1024});
    }
  };
  if (!concurrent) {
    hot();
    for (int id = 0; id < kWriters; ++id) writer(id);
  } else {
    std::atomic<bool> done{false};
    std::thread reader([&ledger, &done] {
      while (!done.load()) {
        const LedgerSnapshot snapshot = ledger.snapshot();
        EXPECT_LE(ledger.conservation_discrepancy(),
                  1e-9 * (1.0 + snapshot.total_epsilon.value() +
                          snapshot.total_revenue));
        EXPECT_GE(ledger.consumer_epsilon("hot").value(), 0.0);
      }
    });
    std::vector<std::thread> threads;
    threads.emplace_back(hot);
    for (int id = 0; id < kWriters; ++id) threads.emplace_back(writer, id);
    for (auto& thread : threads) thread.join();
    done.store(true);
    reader.join();
  }
  // The pinned hold outlived every rehash: it still blocks its headroom.
  EXPECT_FALSE(ledger.try_reserve("hot", kCap, kCap).has_value());
  ledger.commit(std::move(*pinned),
                {0, "hot", {0, 1}, {0.1, 0.5}, 1.0, 1.0 / 8});
}

TEST(LedgerConcurrencyTest, LiveReservationsSurviveRehashes) {
  Ledger serial;
  run_rehash_workload(serial, false);
  Ledger concurrent;
  run_rehash_workload(concurrent, true);
  EXPECT_EQ(concurrent.transaction_count(), serial.transaction_count());
  EXPECT_EQ(checkpoint_bytes(0.0, "books", concurrent.snapshot()),
            checkpoint_bytes(0.0, "books", serial.snapshot()));
  EXPECT_EQ(concurrent.consumer_sums().consumer_epsilon,
            serial.consumer_sums().consumer_epsilon);
  EXPECT_EQ(concurrent.consumer_sums().consumer_spend,
            serial.consumer_sums().consumer_spend);
  // Every hold ended: the hot consumer's headroom is the cap less what it
  // spent, to the last bit.
  const double spent = concurrent.consumer_epsilon("hot").value();
  EXPECT_TRUE(concurrent.try_reserve("hot", 1.0, 1.0 + spent).has_value());
  EXPECT_FALSE(
      concurrent.try_reserve("hot", 1.0 + 1.0 / 1024, 1.0 + spent).has_value());
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
