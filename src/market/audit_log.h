// Privacy-budget audit timeline: an in-memory structured log of the newest
// budget-relevant events the broker takes — quote, reserve, intent, mint,
// commit, refusal, recovery, checkpoint — each carrying the epsilon' amount
// it accounts and, where applicable, the WAL sequence number that made it
// durable.  The window is bounded (kRetainedEvents); the WAL, when the
// broker has one, is the durable record of every intent, commit and
// checkpoint beyond it.
//
// The ledger owns the broker's timeline and keeps no other in-memory record
// of a budget fact: every Ledger entry point appends its event here and
// folds it into the aggregates in the same critical section (commit events
// carry the sale itself).  A MINT event is appended inside the mint
// barrier, after the durable intent and BEFORE any noise is drawn, so for a
// live broker
//
//     Sigma(mint-event epsilon') == ledger.total_epsilon()
//
// holds exactly, and after crash recovery — which is the same fold, fed
// from the WAL — the RECOVERY event closes the same equation (reconcile()
// proves it, the chaos sweep tests it at every crash point).  A
// crashed-but-not-recovered broker whose mechanism died between mint and
// ledger commit shows up as a reconciliation discrepancy — exactly the
// under-count the audit exists to catch.
//
// PRIVACY SAFETY: events carry only released/accounting quantities
// (epsilon', prices, contracts, sequence numbers, refusal reasons) — never
// raw samples or unperturbed estimates.  AuditLog::append_event is a
// registered lint taint sink (no-raw-to-sink / interproc-raw-taint), and
// to_jsonl() output is safe to ship outside the trust boundary.
//
// Storage: a ring of kRetainedEvents 80-byte records in fixed chunks of
// kChunkEvents, each chunk reserved once when it first opens.  A record
// holds an event's numbers and two ids into intern tables the log owns,
// one of consumer ids and one of detail texts; its index is not stored but
// follows from its place in the window.  Once the ring is full an append
// overwrites the oldest record in place, so a long-running broker's window
// stops growing at about 5 MB, and an append is O(1), allocates nothing at
// steady state (an id or text seen before is not stored again) and never
// moves a record it keeps.  The intern tables are not windowed: like the
// ledger's per-consumer accounts they grow with the distinct consumer ids and
// detail texts of the broker's life, which the fixed sale and refusal
// texts keep small.  size() still counts every event ever appended:
// indices stay dense and global, and the readers walk the retained window
// [first_retained(), size()) in index order, rebuilding each AuditEvent
// from its record.  The mint and recovery epsilon' totals are running sums
// kept at append time, so reconcile() covers the broker's whole life in
// O(1) however many events the window has dropped.
//
// Thread-safety: append_event and all readers serialize on one mutex, so a
// reader sees one consistent window while sales continue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "common/units.h"

namespace prc::market {

class Ledger;

enum class AuditEventType : std::uint8_t {
  kQuote,       ///< price quoted, nothing held or spent
  kReserve,     ///< projected epsilon' held against the consumer cap
  kIntent,      ///< durable WAL intent flushed (spend-ahead point)
  kMint,        ///< final plan admitted; noise draw follows immediately
  kCommit,      ///< sale recorded in the ledger (and WAL, if any)
  kRefusal,     ///< sale refused with nothing spent
  kRecovery,    ///< recovered ledger state adopted after a crash
  kCheckpoint,  ///< ledger aggregates checkpointed into the WAL
};

/// "quote", "reserve", ... (the JSONL `type` field).
const char* audit_event_type_name(AuditEventType type);

struct AuditEvent {
  std::uint64_t index = 0;  ///< assigned by append_event; dense, 0-based
  AuditEventType type = AuditEventType::kQuote;
  /// kCommit: the sale was re-quoted to a weaker contract (kReprice).
  bool degraded = false;
  std::string consumer_id;  ///< empty for broker-level events
  double lower = 0.0;       ///< query range (0/0 when not applicable)
  double upper = 0.0;
  units::Alpha alpha = 0.0;  ///< contract (0/0 when not applicable)
  units::Delta delta = 0.0;
  /// The epsilon' this event accounts: projected for kReserve, final for
  /// kIntent/kMint/kCommit, recovered total for kRecovery, checkpointed
  /// total for kCheckpoint, attempted-but-unspent for kRefusal.
  units::EffectiveEpsilon epsilon = 0.0;
  double price = 0.0;               ///< quoted/charged price (0 when n/a)
  std::uint64_t wal_sequence = 0;   ///< durable linkage (0 = none)
  std::uint64_t ledger_sequence = 0;  ///< transaction sequence (kCommit)
  /// kCommit: fraction of station-known data the answer was drawn from.
  double coverage = 1.0;
  std::string detail;  ///< refusal reason, recovery stats, policy notes

  friend bool operator==(const AuditEvent&, const AuditEvent&) = default;
};

/// Everything reconcile() compares, exported so tests and prc_query can
/// assert and print the equation's terms.
struct AuditReconciliation {
  double minted_epsilon = 0.0;     ///< Sigma epsilon' over kMint events
  double recovered_epsilon = 0.0;  ///< Sigma epsilon' over kRecovery events
  double ledger_epsilon = 0.0;     ///< ledger.total_epsilon()
  double discrepancy = 0.0;        ///< |ledger - (minted + recovered)|
  bool consistent = false;         ///< discrepancy within fp rounding

  std::string to_string() const;
};

/// Distinct strings under dense ids: the empty string is id 0 and is never
/// hashed, every other string gets the next id the first time it is seen.
/// `max_id` is the largest id the caller's id field can hold; interning a
/// string past it fails a PRC_CHECK naming the table.  Not thread-safe.
class InternTable {
 public:
  InternTable(const char* name, std::uint32_t max_id);

  /// Id of `text`, stored on first sight.  The string interned last is
  /// compared before any hash lookup, so a run of equal strings costs one.
  std::uint32_t intern(const std::string& text);

  /// The string under `id` (an id intern() returned), valid until the
  /// next intern() or clear().
  const std::string& text(std::uint32_t id) const { return texts_[id]; }

  /// Forgets every string but the empty one.
  void clear();

 private:
  /// One place of the hash index: an id (0 = free) and the high half of
  /// its string's hash, compared before the string itself.
  struct Slot {
    std::uint32_t id = 0;
    std::uint32_t tag = 0;
  };

  /// Puts `id` in the first free slot of its probe sequence.
  void place(std::uint32_t id, std::size_t hash);

  const char* name_;
  std::uint32_t max_id_;
  std::uint32_t last_ = 0;  ///< id intern() returned last
  std::vector<std::string> texts_;  ///< by id; [0] is the empty one
  /// Open-addressed index over texts_ (linear probing, a power-of-two
  /// size, at most half full).
  std::vector<Slot> slots_;
};

class AuditLog {
 public:
  /// Events per storage chunk.
  static constexpr std::size_t kChunkEvents = 4096;
  /// Events kept in memory: the newest ones, about 5 MB of records.
  static constexpr std::size_t kRetainedEvents = 16 * kChunkEvents;

  /// Appends (assigning the event's index) and returns that index.
  /// Registered as a lint taint sink: raw estimates must never reach it.
  std::uint64_t append_event(AuditEvent event) PRC_EXCLUDES(mutex_);

  /// Every event ever appended, retained or not: the next event's index.
  std::size_t size() const PRC_EXCLUDES(mutex_);

  /// Index of the oldest retained event (size() - events retained); 0
  /// until the window has dropped an event.
  std::size_t first_retained() const PRC_EXCLUDES(mutex_);

  /// Calls `visit(event)` on every retained event in index order, under
  /// the lock (`visit` must not re-enter this log).  Each event is rebuilt
  /// from its record into one reused AuditEvent: the reference is valid
  /// only during that call, so copy the event to keep it.
  template <typename Visit>
  void for_each_event(Visit&& visit) const PRC_EXCLUDES(mutex_) {
    std::lock_guard<std::mutex> lock(mutex_);
    for_each_locked(visit);
  }

  /// Copy of the retained events taken under the lock.
  std::vector<AuditEvent> events_snapshot() const;

  /// One JSON object per line for each retained event, in index order —
  /// the `--audit-log` / `--audit-json` export format (grep- and
  /// jq-friendly).  When the window has dropped events the export opens
  /// with one `"type": "window"` object: the dropped count and the running
  /// epsilon' totals reconcile() reads.
  std::string to_jsonl() const;

  /// Proves the observable form of the spend-ahead guarantee against a
  /// ledger: Sigma(mint epsilon') + Sigma(recovery epsilon') must equal
  /// ledger.total_epsilon() within fp rounding.  A live, crash-free broker
  /// satisfies it exactly; a broker that died after a mint but before the
  /// ledger commit fails it — which is the point.
  AuditReconciliation reconcile(const Ledger& ledger) const;

  /// Moves `other`'s timeline onto the end of this one, re-indexed after
  /// this log's events, and adds its running epsilon' totals to this
  /// log's; `other` is left empty (Ledger::adopt).  The events `other`'s
  /// window dropped count as appended: they advance size() here too.
  void append_all(AuditLog& other) PRC_EXCLUDES(mutex_, other.mutex_);

 private:
  friend class AuditLogTestPeer;  // reads record addresses

  /// One retained event: its numbers, and its strings as intern ids.
  struct Record {
    std::uint32_t consumer;  ///< consumers_ id
    std::uint32_t type : 8;   ///< AuditEventType
    std::uint32_t degraded : 1;
    std::uint32_t text : 23;  ///< texts_ id (AuditEvent::detail)
    double lower;
    double upper;
    double alpha;
    double delta;
    double epsilon;
    double price;
    double coverage;
    std::uint64_t wal_sequence;
    std::uint64_t ledger_sequence;
  };
  static_assert(sizeof(Record) <= 80, "an audit record outgrew 80 bytes");
  /// Largest id each of the record's id fields holds.
  static constexpr std::uint32_t kMaxConsumerId =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint32_t kMaxTextId = (1u << 23) - 1;

  /// Ring position of the retained event `offset` places after the oldest.
  std::size_t position_locked(std::size_t offset) const PRC_REQUIRES(mutex_) {
    return (head_ + kRetainedEvents - retained_ + offset) % kRetainedEvents;
  }
  const Record& slot_locked(std::size_t position) const
      PRC_REQUIRES(mutex_) {
    return chunks_[position / kChunkEvents][position % kChunkEvents];
  }

  /// Writes the retained event `offset` places after the oldest into
  /// `event`, reusing its strings' storage.
  void materialize_locked(std::size_t offset, AuditEvent& event) const
      PRC_REQUIRES(mutex_);

  template <typename Visit>
  void for_each_locked(Visit& visit) const PRC_REQUIRES(mutex_) {
    AuditEvent event;
    for (std::size_t i = 0; i < retained_; ++i) {
      materialize_locked(i, event);
      visit(std::as_const(event));
    }
  }

  /// Stores `event` at index size_ in the ring position head_, interning
  /// its strings: the position's first use opens its chunk or extends it,
  /// a later use overwrites the oldest retained record.
  void push_locked(const AuditEvent& event) PRC_REQUIRES(mutex_);

  mutable std::mutex mutex_;
  /// Growing this vector moves chunk handles, never the records in them.
  std::vector<std::vector<Record>> chunks_ PRC_GUARDED_BY(mutex_);
  InternTable consumers_ PRC_GUARDED_BY(mutex_) =
      InternTable("audit consumer id", kMaxConsumerId);
  InternTable texts_ PRC_GUARDED_BY(mutex_) =
      InternTable("audit detail text", kMaxTextId);
  std::size_t size_ PRC_GUARDED_BY(mutex_) = 0;      ///< events appended
  std::size_t retained_ PRC_GUARDED_BY(mutex_) = 0;  ///< <= kRetainedEvents
  std::size_t head_ PRC_GUARDED_BY(mutex_) = 0;  ///< ring position of next
  /// Running Sigma epsilon' over every kMint / kRecovery event appended,
  /// in append order (reconcile()'s two timeline terms).
  double minted_epsilon_ PRC_GUARDED_BY(mutex_) = 0.0;
  double recovered_epsilon_ PRC_GUARDED_BY(mutex_) = 0.0;
};

}  // namespace prc::market
