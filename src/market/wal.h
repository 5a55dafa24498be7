// Write-ahead log for broker state: the durability half of the ledger.
//
// The ledger IS the privacy guarantee — the market stays arbitrage-free
// only while every released epsilon' is accounted under sequential
// composition — so broker persistence follows a spend-ahead discipline:
//
//   1. an INTENT record (consumer, contract, the exact epsilon' the final
//      plan will mint) is flushed to disk BEFORE LaplaceMechanism::perturb
//      draws any noise,
//   2. a COMMIT record is appended after Ledger::commit() succeeds,
//   3. periodic CHECKPOINT records snapshot the ledger aggregates so
//      compaction can drop replayed history.
//
// The log is the ledger's event stream: each record is the binary encoding
// of one AuditEvent — the kIntent, kCommit or kCheckpoint the ledger folds,
// built by the same constructors (sale_event, commit_event,
// Ledger::checkpoint), with a checkpoint's LedgerSnapshot after its event.
// Recovery decodes those events and folds them as read: the checkpoint as
// the base, the commits past it, then every intent with no matching commit
// (an "orphan") charged as spent budget.  A crash at ANY point therefore
// over-counts released epsilon or counts it exactly — never under-counts —
// which is the only failure direction the paper's pricing model tolerates.
// The guarantee holds within the writer's durability domain:
// SyncMode::kProcessDurable covers process death, kMediaDurable extends it
// to power/kernel loss (compaction always fsyncs around its rename
// regardless of mode).
//
// The writer appends by copying each encoded record into a MAP_SHARED
// window over the file's tail, kWindowBytes reserved at a time with
// posix_fallocate, not by one write(2) per record.  A store into that
// window is a store into the page cache, so it survives process death
// exactly as bytes handed to write(2) do.  A process that dies leaves the
// unfilled rest of its window as zero bytes after its last record; a
// cleanly closed log is truncated to its last record.
//
// Wire format, version 2 (little-endian, one record after another):
//
//   offset  size  field
//   0       1     magic 0x4C
//   1       1     format version (kFormatVersion)
//   2       1     AuditEventType: kIntent, kCommit or kCheckpoint
//   3       1     flags (reserved, 0)
//   4       4     payload length n
//   8       8     wal sequence number of the record
//   16      n     payload: the event — degraded u8, consumer_id, lower,
//                 upper, alpha, delta, epsilon, price, wal_sequence u64,
//                 ledger_sequence u64, coverage, detail — then, for a
//                 checkpoint, the LedgerSnapshot
//   16+n    4     CRC32 over bytes [0, 16+n): header and payload
//
// Doubles are their IEEE-754 bits as u64; strings are a u32 length and the
// bytes (common/byte_codec.h writes and reads every field).  A checkpoint's
// consumer count is refused unless its payload can hold that many
// consumers.  An intent's event.wal_sequence is its own record sequence
// (the intent id); a commit's is the intent it resolves.
//
// Readers stop at the first torn or corrupt record (bad magic/version/type,
// CRC mismatch, short payload, a count the payload cannot hold): everything before it is trusted,
// everything after is reported as truncated — the standard WAL contract
// for a crash mid-append — unless it is all zero bytes.  Such a tail is
// the unfilled window of a writer that died, not damage: no record starts
// with a zero byte, because kMagic is not zero.  A log whose FIRST record carries the magic but
// another format version is refused with an error naming that version,
// and left untouched: reading it as a torn tail would recover (and
// compaction would persist) an empty ledger, erasing the budget history.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "common/units.h"
#include "market/ledger.h"
#include "query/range_query.h"

namespace prc::market::wal {

inline constexpr std::uint8_t kMagic = 0x4C;
inline constexpr std::uint8_t kFormatVersion = 2;
inline constexpr std::size_t kHeaderSize = 16;  ///< bytes before the payload
inline constexpr std::size_t kCrcSize = 4;      ///< bytes after it
/// Bytes of the file the writer reserves and maps at a time; a record
/// larger than this gets a window of its own size.
inline constexpr std::size_t kWindowBytes = 256 * 1024;

/// Strict decode failure (bad magic, unknown version, CRC mismatch,
/// truncated payload).  read_wal() converts the first one into clean tail
/// truncation; the record-level codec surfaces it for tests.
class FormatError : public std::runtime_error {
 public:
  explicit FormatError(const std::string& what) : std::runtime_error(what) {}
};

/// Writer input for a durable intent: the mint barrier's final plan.
struct IntentRecord {
  std::string consumer_id;
  query::RangeQuery range;
  query::AccuracySpec spec;
  /// The exact epsilon' of the final perturbation plan (captured by the
  /// mint barrier, not a pre-quote projection — the intent must never
  /// promise less than what the mechanism releases).
  units::EffectiveEpsilon epsilon_amplified = 0.0;
};

/// Writer input for a commit: the sale the ledger accepted.
struct CommitRecord {
  /// wal sequence of the intent this commit resolves.
  std::uint64_t intent_sequence = 0;
  Transaction transaction;
};

/// One decoded record.
struct Record {
  std::uint64_t wal_sequence = 0;
  std::size_t encoded_size = 0;
  AuditEvent event;
  LedgerSnapshot snapshot;  ///< the body of a kCheckpoint record
};

/// Record-level codec, exposed so format tests can round-trip and corrupt
/// records without a log on disk.  `snapshot` is written only after a
/// kCheckpoint event.
std::vector<std::uint8_t> encode_record(std::uint64_t wal_sequence,
                                        const AuditEvent& event,
                                        const LedgerSnapshot& snapshot = {});

/// Decodes the record starting at `bytes[offset]`; throws FormatError when
/// the bytes are not a complete, well-formed record.
Record decode_record(const std::vector<std::uint8_t>& bytes,
                     std::size_t offset);

struct RecoveryStats {
  std::uint64_t records_read = 0;
  std::uint64_t checkpoints_seen = 0;
  std::uint64_t committed_sales = 0;
  std::uint64_t orphaned_intents = 0;
  double orphaned_epsilon = 0.0;
  std::uint64_t valid_bytes = 0;
  std::uint64_t truncated_bytes = 0;
};

/// What a log folds down to, as the decoded events: the last durable
/// checkpoint, the kCommits that post-date it (sorted by ledger sequence),
/// and the orphaned kIntents (in log order).
struct RecoveryResult {
  Checkpoint base;
  std::vector<AuditEvent> commits;
  std::vector<AuditEvent> orphans;
  std::uint64_t next_wal_sequence = 0;
  RecoveryStats stats;
};

/// Parses the log at `path` (a missing file is an empty log), stopping
/// cleanly at the first torn or corrupt record.  A tail of zero bytes after
/// the last whole record is unused space, not truncation.  Pure read —
/// applies nothing.  PRC_CHECKs that the log is in this build's format
/// version.
RecoveryResult read_wal(const std::string& path);

/// Folds a recovery into an EMPTY ledger, event by event: restore the
/// base checkpoint, replay the commits (at their recorded sequence numbers
/// — a gap means the missing sale's intent is among the orphans), charge
/// every orphan as spent budget, and close with a kRecovery carrying the
/// recovered total, so reconcile() against the same ledger passes iff the
/// fold charged exactly what the log says.  The spend-ahead discipline
/// makes this over-count-only: recovered total_epsilon() >= everything
/// perturb() actually released before the crash.
void apply_recovery(Ledger& ledger, const RecoveryResult& recovery);

/// How durable each append is once the call returns.
enum class SyncMode : std::uint8_t {
  /// The record is stored into the page cache through the shared window,
  /// so it survives process death — the crash class the chaos harness
  /// sweeps.  It does
  /// NOT survive power/kernel loss: the newest appends may evaporate
  /// with the page cache, and a lost *intent* whose answer already left
  /// the process is exactly the under-count the design forbids.  Use
  /// kMediaDurable wherever that failure domain matters.
  kProcessDurable,
  /// fsync(2) after every append: records survive power/kernel loss at
  /// the cost of one disk barrier per record.
  kMediaDurable,
};

/// Append-only writer.  Every append encodes and copies the record into
/// the mapped window under one lock, so the page cache holds a whole
/// record after any append — the truncate-at-corruption reader handles
/// the remaining torn-write window (a crash mid-copy, or inside the
/// kernel/disk stack).
class WriteAheadLog {
 public:
  ~WriteAheadLog();

  /// Opens `path` for appending, creating it when absent.  Appends start
  /// right after the last whole record, over any zero tail; a file with
  /// non-zero bytes after its last whole record is refused (recover it
  /// first).  `next_sequence` continues the numbering of whatever the
  /// file already holds (pass RecoveryResult::next_wal_sequence after a
  /// recovery).
  static std::unique_ptr<WriteAheadLog> open(
      const std::string& path, std::uint64_t next_sequence = 0,
      SyncMode sync_mode = SyncMode::kProcessDurable);

  /// Atomically replaces `path` with a compacted log holding only
  /// `checkpoint` (temp file + fsync + rename + directory fsync — the
  /// rename must never become durable before the checkpoint's data
  /// blocks, whatever `sync_mode` says, because a compacted log with a
  /// torn checkpoint is an empty log: a recovery that UNDER-counts
  /// released budget), then reopens for appending.  Callers must be
  /// quiescent: an in-flight intent would be silently dropped from the
  /// log.
  static std::unique_ptr<WriteAheadLog> compact(
      const std::string& path, const Checkpoint& checkpoint,
      std::uint64_t next_sequence,
      SyncMode sync_mode = SyncMode::kProcessDurable);

  /// Flushes the intent's kIntent and returns its wal sequence (the intent
  /// id the matching commit must carry).
  std::uint64_t append_intent(const IntentRecord& record);
  /// Appends the sale's kCommit.
  void append_commit(const CommitRecord& record);
  void append_checkpoint(const Checkpoint& checkpoint);

  const std::string& path() const noexcept { return path_; }
  std::uint64_t records_appended() const noexcept {
    std::lock_guard<std::mutex> lock(mutex_);
    return records_appended_;
  }
  std::uint64_t bytes_appended() const noexcept {
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_appended_;
  }

 private:
  WriteAheadLog(std::string path, std::uint64_t next_sequence,
                SyncMode sync_mode);
  /// Encodes the record into buffer_ and copies it into the window.
  void append_locked(std::uint64_t sequence, const AuditEvent& event,
                     const LedgerSnapshot& snapshot = {})
      PRC_REQUIRES(mutex_);
  /// Replaces the window with one that starts at the page holding
  /// end_offset_ and has room for `record_size` more bytes.
  void map_window(std::size_t record_size) PRC_REQUIRES(mutex_);

  mutable std::mutex mutex_;
  std::string path_;
  SyncMode sync_mode_;
  int fd_ PRC_GUARDED_BY(mutex_) = -1;
  /// File offset just past the last whole record: where the next one goes.
  std::uint64_t end_offset_ PRC_GUARDED_BY(mutex_) = 0;
  /// The shared mapping of file bytes [window_offset_, +window_size_).
  std::uint8_t* window_ PRC_GUARDED_BY(mutex_) = nullptr;
  std::uint64_t window_offset_ PRC_GUARDED_BY(mutex_) = 0;
  std::size_t window_size_ PRC_GUARDED_BY(mutex_) = 0;
  std::uint64_t next_sequence_ PRC_GUARDED_BY(mutex_) = 0;
  std::uint64_t records_appended_ PRC_GUARDED_BY(mutex_) = 0;
  std::uint64_t bytes_appended_ PRC_GUARDED_BY(mutex_) = 0;
  /// The encode buffer every append reuses; it grows to the largest record
  /// written and is never shrunk.
  std::vector<std::uint8_t> buffer_ PRC_GUARDED_BY(mutex_);
};

}  // namespace prc::market::wal
