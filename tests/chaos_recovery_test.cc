// Crash-point chaos harness: for every registered crash point along the
// sell path, crash mid-sale, recover from WAL + checkpoint, and prove the
// paper's accounting survives — recovered total_epsilon never under-counts
// what the mechanism actually released, budget conservation re-audits to
// ~zero, the Theorem 4.2 menu re-validates, sequence numbers stay
// monotonic over durable history, and orphans earn no revenue.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/byte_codec.h"
#include "common/check.h"
#include "common/crash_point.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "data/partition.h"
#include "iot/network.h"
#include "market/broker.h"
#include "market/wal.h"

namespace prc::market {
namespace {

constexpr std::size_t kNodes = 4;
constexpr std::size_t kTotal = 4000;
const query::RangeQuery kRange{100.5, 3000.5};
const query::AccuracySpec kSpec{0.1, 0.6};

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

std::string wal_path_for(const std::string& point) {
  std::string name = point;
  std::replace(name.begin(), name.end(), '.', '_');
  return ::testing::TempDir() + "prc_chaos_" + name + ".wal";
}

struct BrokerRig {
  explicit BrokerRig(BrokerConfig config = {},
                     std::unique_ptr<pricing::PricingFunction> pricing =
                         safe_pricing())
      : network(node_data()),
        counter(network),
        broker(counter, std::move(pricing), config) {}

  iot::FlatNetwork network;
  dp::PrivateRangeCounter counter;
  DataBroker broker;
};

BrokerConfig chaos_config() {
  BrokerConfig config;
  // Checkpoint after every commit so the checkpoint crash points sit on
  // the swept sale's path.
  config.wal_checkpoint_interval = 1;
  return config;
}

/// Every point the sell path must traverse; the discovery pass asserts the
/// registry saw them all, guarding against placement rot.
const std::vector<std::string>& expected_sell_points() {
  static const std::vector<std::string> points = {
      "broker.begin_sale", "wal.pre_intent",     "wal.post_intent",
      "dp.post_mint",      "broker.pre_record",  "broker.post_record",
      "wal.post_commit",   "wal.pre_checkpoint", "wal.post_checkpoint",
  };
  return points;
}

TEST(ChaosRecoveryTest, SweepEveryCrashPointNeverUndercountsEpsilon) {
  auto& registry = crashpoints::Registry::instance();
  registry.disarm_all();

  // Discovery pass: one clean WAL-enabled sale registers every sell-path
  // point (and recovery registers the compaction point).
  {
    const auto path = wal_path_for("discovery");
    std::remove(path.c_str());
    BrokerRig rig(chaos_config());
    rig.broker.attach_wal(path);
    rig.broker.sell("alice", kRange, kSpec);
    BrokerRig fresh;
    fresh.broker.recover_and_attach_wal(path, variance_model());
    std::remove(path.c_str());
  }
  const auto discovered = registry.names();
  for (const auto& expected : expected_sell_points()) {
    EXPECT_NE(std::find(discovered.begin(), discovered.end(), expected),
              discovered.end())
        << "crash point '" << expected << "' never registered — did the "
        << "sell path move?";
  }

  for (const auto& point : discovered) {
    if (point == "wal.pre_compact_rename") continue;  // recovery-side; below
    SCOPED_TRACE("crash point " + point);
    telemetry::Telemetry::registry().reset();
    registry.disarm_all();
    const auto path = wal_path_for(point);
    std::remove(path.c_str());

    double released = 0.0;
    double revenue_at_crash = 0.0;
    double first_price = 0.0;
    double second_price = 0.0;
    bool crashed = false;
    {
      BrokerRig rig(chaos_config());
      rig.broker.attach_wal(path);
      first_price = rig.broker.sell("alice", kRange, kSpec).price;
      second_price = rig.broker.quote(kSpec);
      registry.arm(point);
      try {
        rig.broker.sell("bob", kRange, kSpec);
      } catch (const crashpoints::SimulatedCrash&) {
        crashed = true;
      }
      registry.disarm_all();
      // Ground truth: everything LaplaceMechanism::perturb released in
      // this process, committed or not.
      // One ground-truth read per crash point, not a hot path.
      released = telemetry::gauge(  // lint:allow telemetry-lookup
          "dp.epsilon_spent_total").value();
      revenue_at_crash = rig.broker.ledger().total_revenue();
      // The rig dies here with whatever the WAL managed to flush.
    }
    EXPECT_TRUE(crashed) << "armed point never fired during the sale";

    BrokerRig fresh;
    const auto stats =
        fresh.broker.recover_and_attach_wal(path, variance_model());

    // THE invariant: recovery may over-count released budget, never
    // under-count it.
    EXPECT_GE(fresh.broker.ledger().total_epsilon().value() + 1e-12,
              released);
    // Conservation re-audits to fp-rounding of zero.
    EXPECT_LE(fresh.broker.ledger().conservation_discrepancy(),
              1e-9 * (1.0 + fresh.broker.ledger().total_epsilon().value() +
                      fresh.broker.ledger().total_revenue()));
    // Revenue consistency: only durable commits earn revenue — exactly the
    // first sale, plus the second iff its commit record hit the disk.
    const double recovered_revenue = fresh.broker.ledger().total_revenue();
    EXPECT_LE(recovered_revenue, revenue_at_crash + 1e-9);
    const bool matches_one = std::abs(recovered_revenue - first_price) < 1e-9;
    const bool matches_two =
        std::abs(recovered_revenue - (first_price + second_price)) < 1e-9;
    EXPECT_TRUE(matches_one || matches_two)
        << "recovered revenue " << recovered_revenue
        << " is neither one sale (" << first_price << ") nor two ("
        << first_price + second_price << ")";
    // Orphans never earn: budget can exceed the committed sales' epsilon,
    // revenue cannot exceed their prices.
    EXPECT_GE(fresh.broker.ledger().orphaned_epsilon().value(), 0.0);
    (void)stats;

    // The re-audited broker accepts new sales with monotonic sequences
    // over durable history.
    const auto durable_next = fresh.broker.ledger().snapshot().next_sequence;
    const auto receipt = fresh.broker.sell("carol", kRange, kSpec);
    EXPECT_EQ(receipt.transaction_id, durable_next);
    EXPECT_GE(receipt.transaction_id, 1u);  // after alice's durable sale
    std::remove(path.c_str());
  }
}

TEST(ChaosRecoveryTest, OrphanedIntentChargesExactlyTheMintedEpsilon) {
  // dp.post_mint is the canonical dangerous crash: budget spent, ledger
  // never updated.  The intent carries the FINAL plan's epsilon', so the
  // orphan charge equals the release exactly — no slack, no shortfall.
  auto& registry = crashpoints::Registry::instance();
  registry.disarm_all();
  telemetry::Telemetry::registry().reset();
  const auto path = wal_path_for("exact_orphan");
  std::remove(path.c_str());

  double released = 0.0;
  {
    BrokerRig rig(chaos_config());
    rig.broker.attach_wal(path);
    rig.broker.sell("alice", kRange, kSpec);
    const double before = telemetry::gauge("dp.epsilon_spent_total").value();
    registry.arm("dp.post_mint");
    EXPECT_THROW(rig.broker.sell("bob", kRange, kSpec),
                 crashpoints::SimulatedCrash);
    registry.disarm_all();
    released = telemetry::gauge("dp.epsilon_spent_total").value();
    EXPECT_GT(released, before);  // the crash happened after the mint
  }

  BrokerRig fresh;
  const auto stats =
      fresh.broker.recover_and_attach_wal(path, variance_model());
  EXPECT_EQ(stats.orphaned_intents, 1u);
  EXPECT_EQ(stats.committed_sales, 0u);  // sale 1 lives in the checkpoint
  EXPECT_NEAR(fresh.broker.ledger().total_epsilon().value(), released,
              1e-12 * (1.0 + released));
  EXPECT_DOUBLE_EQ(fresh.broker.ledger().orphaned_epsilon().value(),
                   stats.orphaned_epsilon);
  // The orphan counts against bob's cap accounting too.
  EXPECT_GT(fresh.broker.ledger().consumer_epsilon("bob").value(), 0.0);
  EXPECT_DOUBLE_EQ(fresh.broker.ledger().consumer_spend("bob"), 0.0);
  std::remove(path.c_str());
}

TEST(ChaosRecoveryTest, CrashDuringCompactionRenameRecoversCleanly) {
  auto& registry = crashpoints::Registry::instance();
  registry.disarm_all();
  const auto path = wal_path_for("compact_crash");
  std::remove(path.c_str());
  {
    BrokerRig rig(chaos_config());
    rig.broker.attach_wal(path);
    rig.broker.sell("alice", kRange, kSpec);
  }
  double epsilon_once = 0.0;
  {
    // Recovery itself dies right before the compaction rename: the
    // original log must still be intact.
    BrokerRig rig;
    registry.arm("wal.pre_compact_rename");
    EXPECT_THROW(rig.broker.recover_and_attach_wal(path, variance_model()),
                 crashpoints::SimulatedCrash);
    registry.disarm_all();
    epsilon_once = rig.broker.ledger().total_epsilon().value();
  }
  BrokerRig fresh;
  fresh.broker.recover_and_attach_wal(path, variance_model());
  EXPECT_DOUBLE_EQ(fresh.broker.ledger().total_epsilon().value(),
                   epsilon_once);
  EXPECT_NO_THROW(fresh.broker.sell("carol", kRange, kSpec));
  std::remove(path.c_str());
}

TEST(ChaosRecoveryTest, CorruptedTailIsTruncatedAndRecoveryProceeds) {
  auto& registry = crashpoints::Registry::instance();
  registry.disarm_all();
  const auto path = wal_path_for("corrupt_tail");
  std::remove(path.c_str());
  double epsilon_first = 0.0;
  {
    BrokerRig rig;  // default checkpoint interval: commits stay in the log
    rig.broker.attach_wal(path);
    rig.broker.sell("alice", kRange, kSpec);
    epsilon_first = rig.broker.ledger().total_epsilon().value();
    rig.broker.sell("bob", kRange, kSpec);
  }
  // Corrupt the last commit record's bytes (simulated tail damage).
  {
    std::fstream file(path,
                      std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.is_open());
    file.seekg(0, std::ios::end);
    const auto size = static_cast<long>(file.tellg());
    file.seekp(size - 3, std::ios::beg);
    const char garbage = '\x5A';
    file.write(&garbage, 1);
  }
  BrokerRig fresh;
  const auto stats =
      fresh.broker.recover_and_attach_wal(path, variance_model());
  EXPECT_GT(stats.truncated_bytes, 0u);
  // Bob's commit was damaged, but his intent survives: the budget is still
  // charged (over-count-only), only the revenue is lost.
  EXPECT_GE(fresh.broker.ledger().total_epsilon().value(), epsilon_first);
  EXPECT_GT(fresh.broker.ledger().orphaned_epsilon().value(), 0.0);
  EXPECT_LE(fresh.broker.ledger().conservation_discrepancy(), 1e-9);
  std::remove(path.c_str());
}

TEST(ChaosRecoveryTest, RecoveryRefusesArbitrageableMenu) {
  auto& registry = crashpoints::Registry::instance();
  registry.disarm_all();
  const auto path = wal_path_for("steep_menu");
  std::remove(path.c_str());
  {
    BrokerRig rig(BrokerConfig{}, steep_pricing());
    rig.broker.attach_wal(path);
    rig.broker.sell("alice", kRange, kSpec);
  }
  // The q = 2 menu violates Theorem 4.2; recovery must refuse to reopen
  // the market behind it.
  BrokerRig fresh(BrokerConfig{}, steep_pricing());
  EXPECT_THROW(fresh.broker.recover_and_attach_wal(path, variance_model()),
               ContractViolation);
  // The refusal left the broker exactly as it was: nothing half-restored,
  // no WAL attached, no budget silently usable without durability.
  EXPECT_EQ(fresh.broker.ledger().transaction_count(), 0u);
  EXPECT_DOUBLE_EQ(fresh.broker.ledger().total_epsilon().value(), 0.0);
  EXPECT_EQ(fresh.broker.write_ahead_log(), nullptr);
  std::remove(path.c_str());
}

TEST(ChaosRecoveryTest, FailedRecoveryLeavesBrokerCleanAndRetryable) {
  // A WAL whose replay fails its audit (here: two commits claiming the
  // same sequence) must not leave the broker half-restored — the caller
  // fixes the log and retries recovery on the SAME broker.
  auto& registry = crashpoints::Registry::instance();
  registry.disarm_all();
  const auto path = wal_path_for("retryable");
  std::remove(path.c_str());
  wal::CommitRecord commit;
  commit.intent_sequence = 100;
  commit.transaction =
      Transaction{0, "alice", {0.0, 1.0}, {0.1, 0.5}, 10.0, 0.01};
  {
    auto log = wal::WriteAheadLog::open(path);
    log->append_commit(commit);
    log->append_commit(commit);  // duplicate sequence: replay audit fails
  }
  BrokerRig fresh;
  EXPECT_THROW(fresh.broker.recover_and_attach_wal(path, variance_model()),
               ContractViolation);
  EXPECT_EQ(fresh.broker.ledger().transaction_count(), 0u);
  EXPECT_DOUBLE_EQ(fresh.broker.ledger().total_epsilon().value(), 0.0);
  EXPECT_EQ(fresh.broker.write_ahead_log(), nullptr);

  // Repair the log (drop the duplicate) and retry on the same broker.
  std::remove(path.c_str());
  {
    auto log = wal::WriteAheadLog::open(path);
    log->append_commit(commit);
  }
  const auto stats =
      fresh.broker.recover_and_attach_wal(path, variance_model());
  EXPECT_EQ(stats.committed_sales, 1u);
  EXPECT_DOUBLE_EQ(fresh.broker.ledger().total_revenue(), 10.0);
  EXPECT_NO_THROW(fresh.broker.sell("carol", kRange, kSpec));
  std::remove(path.c_str());
}

TEST(ChaosRecoveryTest, RecoveryIsIdempotentAcrossRepeatedCrashes) {
  auto& registry = crashpoints::Registry::instance();
  registry.disarm_all();
  telemetry::Telemetry::registry().reset();
  const auto path = wal_path_for("idempotent");
  std::remove(path.c_str());
  {
    BrokerRig rig(chaos_config());
    rig.broker.attach_wal(path);
    rig.broker.sell("alice", kRange, kSpec);
    registry.arm("dp.post_mint");
    EXPECT_THROW(rig.broker.sell("bob", kRange, kSpec),
                 crashpoints::SimulatedCrash);
    registry.disarm_all();
  }
  double epsilon_once = 0.0;
  {
    BrokerRig fresh;
    fresh.broker.recover_and_attach_wal(path, variance_model());
    epsilon_once = fresh.broker.ledger().total_epsilon().value();
    // Die again immediately — no new sales, no clean shutdown.
  }
  BrokerRig again;
  again.broker.recover_and_attach_wal(path, variance_model());
  // Compaction during the first recovery absorbed the orphan into the
  // checkpoint: recovering twice charges it once, not twice.
  EXPECT_DOUBLE_EQ(again.broker.ledger().total_epsilon().value(),
                   epsilon_once);
  std::remove(path.c_str());
}

TEST(ChaosRecoveryTest, ConcurrentSalesCannotJointlyBreachCap) {
  // Regression for the quote/record race: the cap check and the ledger
  // append used to be separate critical sections, so two parallel sales
  // could both clear the check on the same headroom.  The reservation path
  // makes admission atomic; under TSan this test also proves the data-race
  // freedom of the path.
  BrokerConfig config;
  config.per_consumer_epsilon_cap = 0.02;
  BrokerRig rig(config);
  // Warm the cache so every sale's plan (and epsilon') is identical and
  // the projected reservation equals the minted spend.
  rig.broker.sell("warmup", kRange, kSpec);

  constexpr int kThreads = 8;
  constexpr int kAttemptsPerThread = 4;
  std::atomic<int> refusals{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kAttemptsPerThread; ++i) {
        try {
          rig.broker.sell("alice", kRange, kSpec);
        } catch (const BudgetExceededError&) {
          refusals.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_GT(refusals.load(), 0);  // the cap actually bit
  EXPECT_LE(rig.broker.ledger().consumer_epsilon("alice").value(),
            config.per_consumer_epsilon_cap.value() * (1.0 + 1e-9));
  EXPECT_LE(rig.broker.ledger().conservation_discrepancy(), 1e-9);
}

TEST(ChaosRecoveryTest, RecoveredLedgerEqualsTheLiveLedgerExactly) {
  // One fold serves live sales and recovery alike: a seeded session with
  // periodic checkpoints, budget refusals and degraded (repriced) sales,
  // read back from its WAL into a fresh ledger, must reproduce the live
  // books bit for bit.
  const auto path = wal_path_for("live_vs_recovered");
  std::remove(path.c_str());
  iot::FlatNetwork network(node_data());
  network.ensure_sampling_probability(0.1);
  network.set_node_online(0, false);  // stuck at p=0.1: strict specs reprice
  dp::PrivateRangeCounter counter(network, {}, 17);
  BrokerConfig config;
  config.wal_checkpoint_interval = 3;
  config.degraded_policy = DegradedSalePolicy::kReprice;
  // One repriced sale fits under the cap, a second one does not.
  config.per_consumer_epsilon_cap = 5.0;
  DataBroker broker(counter, safe_pricing(), config);
  broker.attach_wal(path);

  const std::vector<query::AccuracySpec> specs{
      {0.02, 0.9}, {0.2, 0.5}, {0.1, 0.6}, {0.3, 0.5}};
  const std::vector<std::string> consumers{"alice", "bob", "carol"};
  std::size_t refusals = 0;
  std::size_t degraded = 0;
  for (std::size_t i = 0; i < 30; ++i) {
    try {
      const auto receipt = broker.sell(consumers[i % consumers.size()],
                                       kRange, specs[i % specs.size()]);
      if (receipt.degraded) ++degraded;
    } catch (const BudgetExceededError&) {
      ++refusals;
    }
  }
  // A repriced sale after the last checkpoint: recovery replays it rather
  // than reading it from a checkpoint.
  ASSERT_TRUE(broker.sell("dave", kRange, specs[0]).degraded);
  ASSERT_GT(refusals, 0u);
  ASSERT_GT(degraded, 0u);

  const auto recovery = wal::read_wal(path);
  ASSERT_GT(recovery.stats.checkpoints_seen, 1u);  // periodic checkpoints
  ASSERT_TRUE(std::any_of(recovery.commits.begin(), recovery.commits.end(),
                          [](const AuditEvent& commit) {
                            return commit.degraded;
                          }));
  Ledger recovered;
  wal::apply_recovery(recovered, recovery);

  const auto live = broker.ledger().snapshot();
  const auto replayed = recovered.snapshot();
  EXPECT_EQ(replayed.next_sequence, live.next_sequence);
  EXPECT_EQ(replayed.total_revenue, live.total_revenue);
  EXPECT_EQ(replayed.total_epsilon.value(), live.total_epsilon.value());
  EXPECT_EQ(replayed.orphaned_epsilon.value(), live.orphaned_epsilon.value());
  EXPECT_EQ(replayed.degraded_sales, live.degraded_sales);
  ASSERT_EQ(replayed.consumers.size(), live.consumers.size());
  for (std::size_t c = 0; c < live.consumers.size(); ++c) {
    EXPECT_EQ(replayed.consumers[c].consumer_id, live.consumers[c].consumer_id);
    EXPECT_EQ(replayed.consumers[c].spend, live.consumers[c].spend);
    EXPECT_EQ(replayed.consumers[c].epsilon.value(),
              live.consumers[c].epsilon.value());
  }

  // The recovered timeline lists exactly one kCommit per replayed commit,
  // in replay order, and each is the durable event itself: equal to the
  // live kCommit of the same sale in every field but its timeline index.
  std::map<std::uint64_t, AuditEvent> live_commits;
  broker.audit_log().for_each_event([&live_commits](const AuditEvent& event) {
    if (event.type == AuditEventType::kCommit) {
      live_commits.emplace(event.ledger_sequence, event);
    }
  });
  std::vector<AuditEvent> committed;
  recovered.timeline().for_each_event([&committed](const AuditEvent& event) {
    if (event.type == AuditEventType::kCommit) committed.push_back(event);
  });
  ASSERT_EQ(committed.size(), recovery.commits.size());
  for (std::size_t k = 0; k < committed.size(); ++k) {
    SCOPED_TRACE("ledger sequence " +
                 std::to_string(committed[k].ledger_sequence));
    EXPECT_EQ(committed[k].ledger_sequence,
              recovery.commits[k].ledger_sequence);
    const auto live_commit = live_commits.find(committed[k].ledger_sequence);
    ASSERT_NE(live_commit, live_commits.end());
    AuditEvent durable = committed[k];
    durable.index = live_commit->second.index;
    EXPECT_TRUE(durable == live_commit->second);
  }
  std::remove(path.c_str());
}

/// One intent record exactly as format version 1 wrote it: a 20-byte
/// header (magic, version 1, type 1, flags, payload length, wal sequence,
/// then a CRC32 over those 16 bytes and the payload) and the payload
/// (consumer id, range, contract, epsilon').
std::vector<std::uint8_t> version1_intent_record() {
  std::vector<std::uint8_t> payload;
  const auto put = [](std::vector<std::uint8_t>& out, std::uint64_t value,
                      std::size_t size) {
    for (std::size_t byte = 0; byte < size; ++byte) {
      out.push_back(static_cast<std::uint8_t>(value >> (8 * byte)));
    }
  };
  put(payload, 5, 4);
  // Byte-wise push: GCC 12 at -O3 misreports an initializer-list insert
  // after the pushes above as an overflow (-Wstringop-overflow).
  for (const char c : {'a', 'l', 'i', 'c', 'e'}) {
    payload.push_back(static_cast<std::uint8_t>(c));
  }
  for (const double value : {0.0, 1.0, 0.1, 0.5, 0.01}) {
    put(payload, std::bit_cast<std::uint64_t>(value), 8);
  }
  std::vector<std::uint8_t> record{wal::kMagic, 1, 1, 0};
  put(record, payload.size(), 4);
  put(record, 0, 8);
  std::vector<std::uint8_t> covered = record;
  covered.insert(covered.end(), payload.begin(), payload.end());
  put(record, crc32(covered.data(), covered.size()), 4);
  record.insert(record.end(), payload.begin(), payload.end());
  return record;
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(ChaosRecoveryTest, ForeignVersionLogIsRefusedAndLeftUntouched) {
  // Read as a torn tail, a version-1 log would recover as an empty ledger
  // and compaction would then erase its budget history.  Both recovery
  // entry points must refuse it, name the version, and leave it as it was.
  const auto path = wal_path_for("version1");
  const auto v1 = version1_intent_record();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(v1.data()),
              static_cast<std::streamsize>(v1.size()));
  }
  BrokerRig fresh;
  try {
    fresh.broker.recover_and_attach_wal(path, variance_model());
    FAIL() << "a version-1 log was recovered";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(fresh.broker.write_ahead_log(), nullptr);
  EXPECT_EQ(file_bytes(path), v1);

  const std::string recover = std::string(PRC_QUERY_BINARY) +
                              " recover --compact --wal " + path +
                              " > /dev/null 2>&1";
  EXPECT_NE(std::system(recover.c_str()), 0);
  EXPECT_EQ(file_bytes(path), v1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace prc::market
