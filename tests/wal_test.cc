// Wire-format coverage for the market write-ahead log: field-exhaustive
// event round-trips, version gating, CRC rejection under bit flips, the
// truncate-at-corruption reader contract, and the mapped writer's window
// and zero tail.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/byte_codec.h"
#include "common/check.h"
#include "market/ledger.h"
#include "market/wal.h"
#include "support/ledger_sale.h"

namespace prc::market::wal {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "prc_wal_test_" + name;
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open());
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

IntentRecord sample_intent() {
  return {"alice", {12.5, 9001.25}, {0.07, 0.83}, 0.0123456789};
}

CommitRecord sample_commit() {
  CommitRecord commit;
  commit.intent_sequence = 7;
  commit.transaction = {41, "mallory", {-3.5, 17.0}, {0.21, 0.55}, 123.75,
                        0.0625};
  commit.transaction.coverage = 0.875;
  commit.transaction.degraded = true;
  return commit;
}

LedgerSnapshot sample_snapshot() {
  LedgerSnapshot snapshot;
  snapshot.next_sequence = 42;
  snapshot.total_revenue = 512.125;
  snapshot.total_epsilon = 0.75;
  snapshot.orphaned_epsilon = 0.125;
  snapshot.degraded_sales = 3;
  snapshot.consumers = {{"alice", 100.5, 0.25}, {"mallory", 411.625, 0.5}};
  return snapshot;
}

Checkpoint sample_checkpoint() {
  Checkpoint checkpoint;
  checkpoint.event.type = AuditEventType::kCheckpoint;
  checkpoint.event.epsilon = 0.75;
  checkpoint.event.detail = "periodic wal checkpoint";
  checkpoint.snapshot = sample_snapshot();
  return checkpoint;
}

// The records the writer appends for these inputs, built by the same event
// constructors it uses.
AuditEvent intent_event(const IntentRecord& intent, std::uint64_t sequence) {
  return sale_event(AuditEventType::kIntent, intent.consumer_id, intent.range,
                    intent.spec, intent.epsilon_amplified, sequence);
}

std::vector<std::uint8_t> encode_intent(const IntentRecord& intent,
                                        std::uint64_t sequence = 7) {
  return encode_record(sequence, intent_event(intent, sequence));
}

std::vector<std::uint8_t> encode_commit(const CommitRecord& commit,
                                        std::uint64_t sequence = 8) {
  return encode_record(
      sequence, commit_event(commit.transaction, commit.intent_sequence));
}

std::vector<std::uint8_t> encode_checkpoint(const LedgerSnapshot& snapshot,
                                            std::uint64_t sequence) {
  Checkpoint checkpoint = sample_checkpoint();
  checkpoint.snapshot = snapshot;
  return encode_record(sequence, checkpoint.event, checkpoint.snapshot);
}

// Every record is one AuditEvent on the wire, so each round trip checks the
// decoded event field by field and then as a whole.

TEST(WalFormatTest, IntentRoundTripsEveryField) {
  const auto expected = intent_event(sample_intent(), 7);
  const auto bytes = encode_intent(sample_intent());
  const auto decoded = decode_record(bytes, 0);
  EXPECT_EQ(decoded.wal_sequence, 7u);
  EXPECT_EQ(decoded.encoded_size, bytes.size());
  const auto& event = decoded.event;
  ASSERT_EQ(event.type, AuditEventType::kIntent);
  EXPECT_EQ(event.wal_sequence, 7u);  // an intent's id is its own sequence
  EXPECT_EQ(event.consumer_id, "alice");
  EXPECT_DOUBLE_EQ(event.lower, 12.5);
  EXPECT_DOUBLE_EQ(event.upper, 9001.25);
  EXPECT_DOUBLE_EQ(event.alpha.value(), 0.07);
  EXPECT_DOUBLE_EQ(event.delta.value(), 0.83);
  EXPECT_DOUBLE_EQ(event.epsilon.value(), 0.0123456789);
  EXPECT_FALSE(event.degraded);
  EXPECT_TRUE(event == expected);
}

TEST(WalFormatTest, CommitRoundTripsEveryTransactionField) {
  const auto commit = sample_commit();
  const auto bytes = encode_commit(commit);
  const auto decoded = decode_record(bytes, 0);
  EXPECT_EQ(decoded.wal_sequence, 8u);
  EXPECT_EQ(decoded.encoded_size, bytes.size());
  const auto& event = decoded.event;
  ASSERT_EQ(event.type, AuditEventType::kCommit);
  EXPECT_EQ(event.wal_sequence, 7u);  // the intent this commit resolves
  EXPECT_EQ(event.ledger_sequence, 41u);
  EXPECT_EQ(event.consumer_id, "mallory");
  EXPECT_DOUBLE_EQ(event.lower, -3.5);
  EXPECT_DOUBLE_EQ(event.upper, 17.0);
  EXPECT_DOUBLE_EQ(event.alpha.value(), 0.21);
  EXPECT_DOUBLE_EQ(event.delta.value(), 0.55);
  EXPECT_DOUBLE_EQ(event.price, 123.75);
  EXPECT_DOUBLE_EQ(event.epsilon.value(), 0.0625);
  EXPECT_DOUBLE_EQ(event.coverage, 0.875);
  EXPECT_TRUE(event.degraded);
  EXPECT_TRUE(event == commit_event(commit.transaction, 7));
}

TEST(WalFormatTest, CommitRoundTripsNonDegradedFlag) {
  auto commit = sample_commit();
  commit.transaction.degraded = false;
  const auto decoded = decode_record(encode_commit(commit), 0);
  EXPECT_FALSE(decoded.event.degraded);
  EXPECT_TRUE(decoded.event == commit_event(commit.transaction, 7));
}

TEST(WalFormatTest, CheckpointRoundTripsAggregatesAndConsumers) {
  const auto checkpoint = sample_checkpoint();
  const auto decoded =
      decode_record(encode_checkpoint(checkpoint.snapshot, 9), 0);
  EXPECT_EQ(decoded.wal_sequence, 9u);
  ASSERT_EQ(decoded.event.type, AuditEventType::kCheckpoint);
  EXPECT_TRUE(decoded.event == checkpoint.event);
  const auto& restored = decoded.snapshot;
  EXPECT_EQ(restored.next_sequence, 42u);
  EXPECT_DOUBLE_EQ(restored.total_revenue, 512.125);
  EXPECT_DOUBLE_EQ(restored.total_epsilon.value(), 0.75);
  EXPECT_DOUBLE_EQ(restored.orphaned_epsilon.value(), 0.125);
  EXPECT_EQ(restored.degraded_sales, 3u);
  ASSERT_EQ(restored.consumers.size(), 2u);
  EXPECT_EQ(restored.consumers[0].consumer_id, "alice");
  EXPECT_DOUBLE_EQ(restored.consumers[0].spend, 100.5);
  EXPECT_DOUBLE_EQ(restored.consumers[0].epsilon.value(), 0.25);
  EXPECT_EQ(restored.consumers[1].consumer_id, "mallory");
  EXPECT_DOUBLE_EQ(restored.consumers[1].spend, 411.625);
  EXPECT_DOUBLE_EQ(restored.consumers[1].epsilon.value(), 0.5);
}

// Format v2 pinned byte for byte.  A round trip passes any symmetric
// change to the encoder and decoder; these hex strings do not, so a writer
// rewrite must reproduce the bytes already on operators' disks.
std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  hex.reserve(2 * bytes.size());
  for (const std::uint8_t byte : bytes) {
    hex += kDigits[byte >> 4];
    hex += kDigits[byte & 0x0F];
  }
  return hex;
}

const char* const kGoldenIntent =
    "4c0202005600000007000000000000000005000000616c696365000000000000"
    "294000000000a094c140ec51b81e85ebb13f8fc2f5285c8fea3fe6b5faf8b048"
    "893f000000000000000007000000000000000000000000000000000000000000"
    "f03f00000000c424afeb";
const char* const kGoldenDegradedCommit =
    "4c02040079000000080000000000000001070000006d616c6c6f727900000000"
    "00000cc00000000000003140e17a14ae47e1ca3f9a9999999999e13f00000000"
    "0000b03f0000000000f05e400700000000000000290000000000000000000000"
    "0000ec3f2100000064656772616465642073616c652028726570726963656420"
    "636f6e747261637429a0ec0d17";
const char* const kGoldenCheckpoint =
    "4c020700c8000000090000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000e83f000000"
    "000000000000000000000000000000000000000000000000000000f03f170000"
    "00706572696f6469632077616c20636865636b706f696e742a00000000000000"
    "0000000000018040000000000000e83f000000000000c03f0300000000000000"
    "0200000005000000616c6963650000000000205940000000000000d03f070000"
    "006d616c6c6f72790000000000ba7940000000000000e03f592d5833";

TEST(WalFormatTest, GoldenBytesOfEachRecordType) {
  EXPECT_EQ(to_hex(encode_intent(sample_intent(), 7)), kGoldenIntent);
  EXPECT_EQ(to_hex(encode_commit(sample_commit(), 8)), kGoldenDegradedCommit);
  EXPECT_EQ(to_hex(encode_checkpoint(sample_snapshot(), 9)),
            kGoldenCheckpoint);
}

TEST(WalWriterTest, AppendsTheGoldenBytes) {
  // The writer's own encode path, not just the record codec: the same three
  // records appended to a log land on disk as the pinned bytes, in order.
  const std::string path = temp_path("golden");
  std::remove(path.c_str());
  {
    auto log = WriteAheadLog::open(path, 7);
    EXPECT_EQ(log->append_intent(sample_intent()), 7u);
    log->append_commit(sample_commit());
    log->append_checkpoint(sample_checkpoint());
    EXPECT_EQ(log->records_appended(), 3u);
  }
  const auto bytes = read_bytes(path);
  EXPECT_EQ(to_hex(bytes), std::string(kGoldenIntent) +
                               kGoldenDegradedCommit + kGoldenCheckpoint);
  std::remove(path.c_str());
}

TEST(WalFormatTest, UnknownVersionIsRejectedBeforeCrc) {
  auto bytes = encode_intent(sample_intent());
  bytes[1] = kFormatVersion + 1;
  try {
    decode_record(bytes, 0);
    FAIL() << "future version accepted";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "version " + std::to_string(kFormatVersion + 1)),
              std::string::npos)
        << e.what();
  }
}

TEST(WalFormatTest, EveryBitFlipIsRejected) {
  // CRC32 detects all single-bit errors, so no flipped record may decode:
  // either a structural check (magic/version/type/length) or the CRC must
  // fire.  Exhaustive over every bit of every byte, header and payload.
  const auto pristine = encode_commit(sample_commit());
  for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto corrupt = pristine;
      corrupt[byte] = static_cast<std::uint8_t>(corrupt[byte] ^ (1u << bit));
      EXPECT_THROW(decode_record(corrupt, 0), FormatError)
          << "flip of byte " << byte << " bit " << bit << " decoded";
    }
  }
}

TEST(WalFormatTest, TornHeaderAndTornPayloadAreRejected) {
  const auto bytes = encode_intent(sample_intent());
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    const std::vector<std::uint8_t> torn(bytes.begin(),
                                         bytes.begin() +
                                             static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(decode_record(torn, 0), FormatError)
        << "torn record of " << keep << " bytes decoded";
  }
}

TEST(WalFormatTest, ConsumerCountBeyondPayloadIsAFormatError) {
  // A checkpoint claiming 2^32 - 1 consumers in its last field, resealed
  // with a valid CRC: the count is refused before it sizes an allocation.
  LedgerSnapshot snapshot = sample_snapshot();
  snapshot.consumers.clear();
  auto hostile = encode_checkpoint(snapshot, 9);
  const std::size_t covered = hostile.size() - kCrcSize;
  std::fill(hostile.begin() + static_cast<std::ptrdiff_t>(covered - 4),
            hostile.begin() + static_cast<std::ptrdiff_t>(covered), 0xff);
  const std::uint32_t crc = crc32(hostile.data(), covered);
  for (std::size_t byte = 0; byte < kCrcSize; ++byte) {
    hostile.at(covered + byte) = static_cast<std::uint8_t>(crc >> (8 * byte));
  }
  EXPECT_THROW(decode_record(hostile, 0), FormatError);

  // Recovery keeps the record before it and truncates from it on.
  const auto path = temp_path("hostile_count.wal");
  auto bytes = encode_intent(sample_intent());
  const std::size_t first_size = bytes.size();
  bytes.insert(bytes.end(), hostile.begin(), hostile.end());
  write_bytes(path, bytes);
  const auto result = read_wal(path);
  EXPECT_EQ(result.stats.records_read, 1u);
  EXPECT_EQ(result.stats.valid_bytes, first_size);
  EXPECT_EQ(result.stats.truncated_bytes, hostile.size());
  std::remove(path.c_str());
}

TEST(WalReaderTest, MissingFileIsAnEmptyLog) {
  const auto result = read_wal(temp_path("does_not_exist.wal"));
  EXPECT_EQ(result.stats.records_read, 0u);
  EXPECT_EQ(result.stats.truncated_bytes, 0u);
  EXPECT_TRUE(result.commits.empty());
  EXPECT_TRUE(result.orphans.empty());
}

TEST(WalReaderTest, GarbageFileIsAllTruncated) {
  const auto path = temp_path("garbage.wal");
  write_bytes(path, {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x02});
  const auto result = read_wal(path);
  EXPECT_EQ(result.stats.records_read, 0u);
  EXPECT_EQ(result.stats.truncated_bytes, 7u);
  std::remove(path.c_str());
}

TEST(WalReaderTest, StopsCleanlyAtTornTail) {
  const auto path = temp_path("torn_tail.wal");
  auto intent = sample_intent();
  auto bytes = encode_intent(intent);
  auto commit = sample_commit();
  commit.transaction.sequence = 0;  // replayable onto an empty ledger
  const auto commit_bytes = encode_commit(commit);
  bytes.insert(bytes.end(), commit_bytes.begin(), commit_bytes.end());
  // A third record, torn mid-payload (a crash mid-append).
  auto torn = encode_intent(sample_intent());
  bytes.insert(bytes.end(), torn.begin(), torn.end() - 5);
  write_bytes(path, bytes);

  const auto result = read_wal(path);
  EXPECT_EQ(result.stats.records_read, 2u);
  EXPECT_EQ(result.stats.truncated_bytes, torn.size() - 5);
  EXPECT_EQ(result.stats.committed_sales, 1u);
  // The commit resolved the intent with the matching sequence.
  EXPECT_EQ(result.stats.orphaned_intents, 0u);
  std::remove(path.c_str());
}

TEST(WalReaderTest, BitFlippedTailIsTruncatedNotTrusted) {
  const auto path = temp_path("flipped_tail.wal");
  auto commit = sample_commit();
  commit.transaction.sequence = 0;
  commit.intent_sequence = 99;  // unresolved elsewhere; irrelevant here
  auto bytes = encode_commit(commit);
  const std::size_t first_size = bytes.size();
  auto second = encode_checkpoint(sample_snapshot(), 10);
  bytes.insert(bytes.end(), second.begin(), second.end());
  bytes[first_size + 25] ^= 0x10;  // corrupt the second record's payload
  write_bytes(path, bytes);

  const auto result = read_wal(path);
  EXPECT_EQ(result.stats.records_read, 1u);
  EXPECT_EQ(result.stats.valid_bytes, first_size);
  EXPECT_EQ(result.stats.truncated_bytes, second.size());
  EXPECT_EQ(result.stats.checkpoints_seen, 0u);
  std::remove(path.c_str());
}

TEST(WalRecoveryTest, UnresolvedIntentBecomesOrphanChargedAsSpent) {
  const auto path = temp_path("orphan.wal");
  std::remove(path.c_str());
  {
    auto log = WriteAheadLog::open(path);
    auto intent = sample_intent();
    log->append_intent(intent);
  }
  const auto result = read_wal(path);
  ASSERT_EQ(result.stats.orphaned_intents, 1u);
  EXPECT_DOUBLE_EQ(result.stats.orphaned_epsilon, 0.0123456789);

  Ledger ledger;
  apply_recovery(ledger, result);
  EXPECT_DOUBLE_EQ(ledger.total_epsilon().value(), 0.0123456789);
  EXPECT_DOUBLE_EQ(ledger.orphaned_epsilon().value(), 0.0123456789);
  EXPECT_DOUBLE_EQ(ledger.total_revenue(), 0.0);  // orphans earn nothing
  EXPECT_DOUBLE_EQ(ledger.consumer_epsilon("alice").value(), 0.0123456789);
  EXPECT_LE(ledger.conservation_discrepancy(), 1e-12);
  std::remove(path.c_str());
}

TEST(WalRecoveryTest, SequenceGapBurnsSlotAndKeepsOrder) {
  // Sale 0 committed, sale 1's commit lost (its intent orphans), sale 2
  // committed: replay must keep the original sequence numbers 0 and 2.
  const auto path = temp_path("gap.wal");
  std::remove(path.c_str());
  {
    auto log = WriteAheadLog::open(path);
    CommitRecord first = sample_commit();
    first.transaction.sequence = 0;
    first.transaction.degraded = false;
    log->append_commit(first);
    IntentRecord lost = sample_intent();
    const auto lost_id = log->append_intent(lost);
    (void)lost_id;
    CommitRecord third = sample_commit();
    third.intent_sequence = 999;  // resolves nothing
    third.transaction.sequence = 2;
    third.transaction.degraded = false;
    log->append_commit(third);
  }
  const auto result = read_wal(path);
  EXPECT_EQ(result.stats.committed_sales, 2u);
  EXPECT_EQ(result.stats.orphaned_intents, 1u);

  Ledger ledger;
  apply_recovery(ledger, result);
  const auto transactions = ledger.transactions_snapshot();
  ASSERT_EQ(transactions.size(), 2u);
  EXPECT_EQ(transactions[0].sequence, 0u);
  EXPECT_EQ(transactions[1].sequence, 2u);
  // The next live sale must not reuse a durable sequence.
  const auto next =
      reserve_and_commit(ledger, {0, "carol", {0, 1}, {0.1, 0.5}, 1.0, 0.01});
  EXPECT_EQ(next, 3u);
  std::remove(path.c_str());
}

TEST(WalRecoveryTest, CheckpointAbsorbsPriorCommits) {
  const auto path = temp_path("checkpoint.wal");
  std::remove(path.c_str());
  {
    auto log = WriteAheadLog::open(path);
    CommitRecord early = sample_commit();
    early.transaction.sequence = 41;  // below the checkpoint's next_sequence
    log->append_commit(early);
    log->append_checkpoint(sample_checkpoint());  // next_sequence = 42
    CommitRecord late = sample_commit();
    late.intent_sequence = 999;
    late.transaction.sequence = 42;
    late.transaction.consumer_id = "alice";
    log->append_commit(late);
  }
  const auto result = read_wal(path);
  EXPECT_EQ(result.stats.checkpoints_seen, 1u);
  // Only the post-checkpoint commit replays; the early one is aggregated.
  ASSERT_EQ(result.commits.size(), 1u);
  EXPECT_EQ(result.commits[0].ledger_sequence, 42u);

  Ledger ledger;
  apply_recovery(ledger, result);
  EXPECT_DOUBLE_EQ(ledger.total_revenue(),
                   sample_snapshot().total_revenue + 123.75);
  EXPECT_EQ(ledger.degraded_sales(), 4u);  // 3 from checkpoint + 1 replayed
  EXPECT_LE(ledger.conservation_discrepancy(),
            1e-9 * (1.0 + ledger.total_epsilon().value() +
                    ledger.total_revenue()));
  std::remove(path.c_str());
}

TEST(WalRecoveryTest, CommitRacedPastItsCheckpointIsAbsorbedNotReplayed) {
  // Regression: a checkpoint taken concurrently with a sale can reach the
  // log BEFORE that sale's commit record (the committing thread sat
  // between its ledger update and its WAL append while the checkpoint
  // snapshotted a ledger that already covered it).  Such a late commit
  // must be absorbed like any pre-checkpoint commit — replaying it used
  // to trip the replay-order audit on EVERY recovery attempt, leaving the
  // log permanently unrecoverable.
  const auto path = temp_path("checkpoint_race.wal");
  std::remove(path.c_str());
  Ledger live;
  const Transaction first_sale{0, "alice", {0, 1}, {0.1, 0.5}, 10.0, 0.01};
  const Transaction raced_sale{0, "bob", {0, 1}, {0.1, 0.5}, 20.0, 0.02};
  Transaction t0 = first_sale;
  t0.sequence = reserve_and_commit(live, first_sale);
  Transaction t1 = raced_sale;
  t1.sequence = reserve_and_commit(live, raced_sale);
  {
    auto log = WriteAheadLog::open(path);
    CommitRecord c0;
    c0.intent_sequence = 100;
    c0.transaction = t0;
    log->append_commit(c0);
    // The checkpoint snapshots AFTER bob's ledger commit but BEFORE his
    // commit record reaches the log: next_sequence already covers him.
    log->append_checkpoint(live.checkpoint("periodic wal checkpoint"));
    CommitRecord c1;
    c1.intent_sequence = 101;
    c1.transaction = t1;
    log->append_commit(c1);
  }
  const auto result = read_wal(path);
  EXPECT_EQ(result.stats.checkpoints_seen, 1u);
  EXPECT_TRUE(result.commits.empty());  // both absorbed by the checkpoint

  Ledger recovered;
  apply_recovery(recovered, result);  // must not throw
  EXPECT_DOUBLE_EQ(recovered.total_revenue(), 30.0);
  EXPECT_DOUBLE_EQ(recovered.total_epsilon().value(),
                   live.total_epsilon().value());
  EXPECT_DOUBLE_EQ(recovered.consumer_epsilon("bob").value(), 0.02);
  // The books reopen past the durable history, not on a burned slot.
  EXPECT_EQ(reserve_and_commit(recovered,
                               {0, "carol", {0, 1}, {0.1, 0.5}, 1.0, 0.01}),
            2u);
  std::remove(path.c_str());
}

TEST(WalWriterTest, MediaDurableModeAppendsAndReadsBack) {
  // fsync-per-append is a durability upgrade, not a format change: a log
  // written under kMediaDurable must read back exactly like any other.
  const auto path = temp_path("fsync.wal");
  std::remove(path.c_str());
  {
    auto log = WriteAheadLog::open(path, 0, SyncMode::kMediaDurable);
    const auto intent_sequence = log->append_intent(sample_intent());
    CommitRecord commit = sample_commit();
    commit.transaction.sequence = 0;
    commit.intent_sequence = intent_sequence;
    log->append_commit(commit);
    EXPECT_EQ(log->records_appended(), 2u);
  }
  const auto result = read_wal(path);
  EXPECT_EQ(result.stats.records_read, 2u);
  EXPECT_EQ(result.stats.committed_sales, 1u);
  EXPECT_EQ(result.stats.orphaned_intents, 0u);
  std::remove(path.c_str());
}

TEST(WalRecoveryTest, CompactionFoldsLogToOneCheckpoint) {
  const auto path = temp_path("compact.wal");
  std::remove(path.c_str());
  {
    auto log = WriteAheadLog::open(path);
    CommitRecord commit = sample_commit();
    commit.transaction.sequence = 0;
    log->append_commit(commit);
    log->append_intent(sample_intent());
  }
  auto first = read_wal(path);
  Ledger ledger;
  apply_recovery(ledger, first);
  const double epsilon_once = ledger.total_epsilon().value();

  // Compact, then recover AGAIN from the compacted log: totals must be
  // identical — in particular the orphan must not be charged twice.
  auto log = WriteAheadLog::compact(
      path, ledger.checkpoint("wal compacted after recovery"),
      first.next_wal_sequence);
  log.reset();
  const auto second = read_wal(path);
  EXPECT_EQ(second.stats.records_read, 1u);
  EXPECT_EQ(second.stats.orphaned_intents, 0u);
  Ledger ledger2;
  apply_recovery(ledger2, second);
  EXPECT_DOUBLE_EQ(ledger2.total_epsilon().value(), epsilon_once);
  EXPECT_DOUBLE_EQ(ledger2.total_revenue(), ledger.total_revenue());
  EXPECT_DOUBLE_EQ(ledger2.orphaned_epsilon().value(),
                   ledger.orphaned_epsilon().value());
  std::remove(path.c_str());
}

// The writer maps the file's tail kWindowBytes at a time, so a writer that
// dies leaves the unfilled rest of its window as zeros after its last
// record.  That tail is unused space, not damage.

TEST(WalReaderTest, ZeroTailAfterTheRecordsIsUnusedSpace) {
  const auto path = temp_path("zero_tail.wal");
  auto bytes = encode_intent(sample_intent(), 7);
  const auto commit = encode_commit(sample_commit(), 8);
  bytes.insert(bytes.end(), commit.begin(), commit.end());
  const std::size_t records_size = bytes.size();
  bytes.resize(records_size + 4096, 0);
  write_bytes(path, bytes);

  const auto result = read_wal(path);
  EXPECT_EQ(result.stats.records_read, 2u);
  EXPECT_EQ(result.stats.valid_bytes, records_size);
  EXPECT_EQ(result.stats.truncated_bytes, 0u);
  EXPECT_EQ(result.next_wal_sequence, 9u);
  std::remove(path.c_str());
}

TEST(WalReaderTest, NonZeroByteAfterAZeroTailTruncatesTheRest) {
  const auto path = temp_path("zero_tail_then_damage.wal");
  auto bytes = encode_intent(sample_intent(), 7);
  const std::size_t records_size = bytes.size();
  bytes.resize(records_size + 100, 0);
  bytes.push_back(0x01);
  write_bytes(path, bytes);

  const auto result = read_wal(path);
  EXPECT_EQ(result.stats.records_read, 1u);
  EXPECT_EQ(result.stats.valid_bytes, records_size);
  EXPECT_EQ(result.stats.truncated_bytes, 101u);
  std::remove(path.c_str());
}

TEST(WalReaderTest, FileOfOnlyZerosIsAnEmptyLog) {
  const auto path = temp_path("only_zeros.wal");
  write_bytes(path, std::vector<std::uint8_t>(kWindowBytes, 0));
  const auto result = read_wal(path);
  EXPECT_EQ(result.stats.records_read, 0u);
  EXPECT_EQ(result.stats.valid_bytes, 0u);
  EXPECT_EQ(result.stats.truncated_bytes, 0u);
  EXPECT_EQ(result.next_wal_sequence, 0u);
  std::remove(path.c_str());
}

TEST(WalWriterTest, AppendsAcrossWindowsReadBackByteIdentical) {
  // Records straddle window boundaries: each one that does not fit moves
  // the window on, and the bytes on disk are still the records' encodings
  // back to back.
  const auto path = temp_path("windows.wal");
  std::remove(path.c_str());
  std::vector<std::uint8_t> expected;
  {
    auto log = WriteAheadLog::open(path);
    CommitRecord commit = sample_commit();
    while (expected.size() <= 3 * kWindowBytes) {
      IntentRecord intent = sample_intent();
      intent.consumer_id += std::to_string(expected.size() % 97);
      const std::uint64_t sequence = log->append_intent(intent);
      const auto intent_bytes = encode_intent(intent, sequence);
      expected.insert(expected.end(), intent_bytes.begin(),
                      intent_bytes.end());
      commit.intent_sequence = sequence;
      log->append_commit(commit);
      const auto commit_bytes = encode_commit(commit, sequence + 1);
      expected.insert(expected.end(), commit_bytes.begin(),
                      commit_bytes.end());
      ++commit.transaction.sequence;
    }
    EXPECT_EQ(log->bytes_appended(), expected.size());
  }
  EXPECT_EQ(read_bytes(path), expected);
  const auto result = read_wal(path);
  EXPECT_EQ(result.stats.valid_bytes, expected.size());
  EXPECT_EQ(result.stats.truncated_bytes, 0u);
  std::remove(path.c_str());
}

TEST(WalWriterTest, CheckpointLargerThanAWindowGetsAWindowOfItsOwn) {
  const auto path = temp_path("large_checkpoint.wal");
  std::remove(path.c_str());
  Checkpoint checkpoint = sample_checkpoint();
  checkpoint.snapshot.consumers.clear();
  for (int i = 0; i < 20000; ++i) {
    checkpoint.snapshot.consumers.push_back(
        {"consumer-" + std::to_string(i), 1.0 + i, 1e-4 * i});
  }
  const auto checkpoint_bytes =
      encode_record(1, checkpoint.event, checkpoint.snapshot);
  ASSERT_GT(checkpoint_bytes.size(), kWindowBytes);
  {
    // An intent first, so the checkpoint starts mid-page; another after
    // it, in the window that follows.
    auto log = WriteAheadLog::open(path);
    log->append_intent(sample_intent());
    log->append_checkpoint(checkpoint);
    log->append_intent(sample_intent());
  }
  auto expected = encode_intent(sample_intent(), 0);
  expected.insert(expected.end(), checkpoint_bytes.begin(),
                  checkpoint_bytes.end());
  const auto last = encode_intent(sample_intent(), 2);
  expected.insert(expected.end(), last.begin(), last.end());
  EXPECT_EQ(read_bytes(path), expected);
  const auto result = read_wal(path);
  EXPECT_EQ(result.stats.records_read, 3u);
  EXPECT_EQ(result.stats.checkpoints_seen, 1u);
  EXPECT_EQ(result.base.snapshot.consumers.size(), 20000u);
  std::remove(path.c_str());
}

TEST(WalWriterTest, CleanCloseTruncatesTheReservedTail) {
  const auto path = temp_path("clean_close.wal");
  std::remove(path.c_str());
  std::uint64_t appended = 0;
  {
    auto log = WriteAheadLog::open(path);
    log->append_intent(sample_intent());
    log->append_checkpoint(sample_checkpoint());
    appended = log->bytes_appended();
    // While the log is open, its window is reserved past the records.
    EXPECT_EQ(std::filesystem::file_size(path), kWindowBytes);
  }
  EXPECT_EQ(std::filesystem::file_size(path), appended);
  std::remove(path.c_str());
}

TEST(WalWriterTest, ProcessDeathLeavesAZeroTailThatOpenAppendsOver) {
  // One child appends K records and dies without running a destructor, so
  // its window is never truncated: the records are in the page cache and
  // the rest of the window is zeros.
  constexpr std::uint64_t kRecords = 50;
  const auto path = temp_path("process_death.wal");
  std::remove(path.c_str());
  const ::pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    try {
      auto log = WriteAheadLog::open(path);
      for (std::uint64_t i = 0; i < kRecords; ++i) {
        log->append_intent(sample_intent());
      }
      std::_Exit(0);
    } catch (...) {
      std::_Exit(1);
    }
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  const auto after_death = read_wal(path);
  EXPECT_EQ(after_death.stats.records_read, kRecords);
  EXPECT_EQ(after_death.stats.truncated_bytes, 0u);
  EXPECT_EQ(after_death.stats.orphaned_intents, kRecords);
  EXPECT_GT(std::filesystem::file_size(path), after_death.stats.valid_bytes);

  // open() appends right after the last record, not after the zero tail
  // (the reader would stop at that gap and never see the new record).
  {
    auto log =
        WriteAheadLog::open(path, after_death.next_wal_sequence);
    log->append_intent(sample_intent());
  }
  const auto resumed = read_wal(path);
  EXPECT_EQ(resumed.stats.records_read, kRecords + 1);
  EXPECT_EQ(resumed.stats.truncated_bytes, 0u);
  EXPECT_EQ(resumed.next_wal_sequence, kRecords + 1);
  EXPECT_EQ(std::filesystem::file_size(path), resumed.stats.valid_bytes);
  std::remove(path.c_str());
}

TEST(WalWriterTest, OpenRefusesDamageAfterTheLastRecord) {
  // Appending after damaged bytes would hide every new record behind
  // them; the log must be recovered (and so compacted) first.
  const auto path = temp_path("damaged_tail.wal");
  auto bytes = encode_intent(sample_intent(), 0);
  const auto torn = encode_intent(sample_intent(), 1);
  bytes.insert(bytes.end(), torn.begin(), torn.end() - 5);
  write_bytes(path, bytes);
  EXPECT_THROW(WriteAheadLog::open(path, 1), ContractViolation);
  EXPECT_EQ(read_bytes(path), bytes);  // refused untouched
  std::remove(path.c_str());
}

}  // namespace
}  // namespace prc::market::wal
