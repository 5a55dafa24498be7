// Transaction ledger: revenue accounting plus per-consumer privacy audit,
// kept as a fold over the privacy-budget audit timeline.
//
// Each sale releases one epsilon'-DP answer; sequential composition means a
// consumer's cumulative leakage is the sum of the amplified budgets of the
// answers they bought.  The ledger tracks both money and budget.  Every
// budget fact reaches it as an AuditEvent on its own timeline: each entry
// point appends its event and folds it into the aggregates in one critical
// section, so the timeline and the books cannot disagree.  The timeline
// keeps only its newest AuditLog::kRetainedEvents events; the aggregates
// (and the WAL, when the broker has one) cover the ledger's whole life.
// Since the accounting IS the privacy guarantee, it supports durable
// snapshots (checkpoints written to the WAL) and restore/replay for crash
// recovery — which is the same fold, fed from the log.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "common/units.h"
#include "market/audit_log.h"
#include "query/range_query.h"

namespace prc::market {

struct Transaction {
  std::size_t sequence = 0;
  std::string consumer_id;
  query::RangeQuery range;
  query::AccuracySpec spec;
  double price = 0.0;
  units::EffectiveEpsilon epsilon_amplified = 0.0;
  /// Fraction of station-known data collected at the round target when the
  /// answer was produced (1 for a fully healthy round).
  double coverage = 1.0;
  /// True when the sale was re-quoted to a weaker contract than requested
  /// because degraded collection could not support the original one.
  bool degraded = false;
};

// The event constructors shared by the ledger's fold and the WAL writer:
// a durable record is built by the same call as the live event it records.

/// A sale-scoped event (quote, reserve, intent, mint, refusal).
AuditEvent sale_event(AuditEventType type, const std::string& consumer_id,
                      const query::RangeQuery& range,
                      const query::AccuracySpec& spec,
                      units::EffectiveEpsilon epsilon,
                      std::uint64_t wal_sequence = 0, std::string detail = {});

/// The kCommit carrying the whole sale: `transaction.sequence` is its
/// ledger sequence and `intent_sequence` the durable intent it resolves.
AuditEvent commit_event(const Transaction& transaction,
                        std::uint64_t intent_sequence);

/// Per-consumer attribution carried by a snapshot (sorted by id so a
/// snapshot's serialized bytes are deterministic).
struct LedgerConsumerTotals {
  std::string consumer_id;
  double spend = 0.0;
  units::EffectiveEpsilon epsilon = 0.0;
};

/// The aggregate state a WAL checkpoint persists and recovery restores: the
/// conserved quantities plus per-consumer attribution.  The timeline
/// itself is NOT part of a snapshot — compaction exists precisely to drop
/// replayed history once its aggregates are durable.  `total_epsilon`
/// already includes `orphaned_epsilon` (orphans are spent budget; the
/// latter is kept separately only so audits can report how much was
/// charged to crashes rather than completed sales).
struct LedgerSnapshot {
  std::uint64_t next_sequence = 0;
  double total_revenue = 0.0;
  units::EffectiveEpsilon total_epsilon = 0.0;
  units::EffectiveEpsilon orphaned_epsilon = 0.0;
  std::uint64_t degraded_sales = 0;
  std::vector<LedgerConsumerTotals> consumers;
};

/// A checkpoint as the WAL stores it and recovery restores it: the
/// kCheckpoint event the ledger folded plus the aggregates it covers.
struct Checkpoint {
  AuditEvent event;
  LedgerSnapshot snapshot;
};

/// Thread-safety: every member serializes on the internal mutex (parallel
/// brokers hammer commit() and the accessors concurrently); the timeline
/// is appended under it and read under the timeline's own lock, so readers
/// never alias live mutable state and never block on the ledger.
class Ledger {
  /// One consumer's budget: what the folded events booked (revenue and
  /// epsilon', `booked` once any sale, orphan or restored base names the
  /// consumer), the epsilon' its live reservations hold and how many they
  /// are.  Reservations point at their account; an unordered_map never
  /// moves its nodes, and only adopt() moves the map, when no reservation
  /// is live.
  struct Account {
    double spend = 0.0;
    double epsilon = 0.0;
    double held = 0.0;
    std::size_t reservations = 0;
    bool booked = false;
  };
  using Accounts = std::unordered_map<std::string, Account>;

 public:
  /// A held slice of a consumer's budget cap: try_reserve() checks
  /// spent + reserved + epsilon against the cap and holds epsilon until the
  /// reservation is committed (became a transaction) or destroyed (the sale
  /// failed or crashed — the hold evaporates with the stack).  This closes
  /// the check/record race: two concurrent sales cannot both pass the cap
  /// check on the strength of the same unspent headroom.
  class Reservation {
   public:
    Reservation() = default;
    Reservation(Reservation&& other) noexcept { *this = std::move(other); }
    Reservation& operator=(Reservation&& other) noexcept {
      if (this != &other) {
        release();
        ledger_ = other.ledger_;
        account_ = other.account_;
        epsilon_ = other.epsilon_;
        other.ledger_ = nullptr;
      }
      return *this;
    }
    Reservation(const Reservation&) = delete;
    Reservation& operator=(const Reservation&) = delete;
    ~Reservation() { release(); }

    bool active() const noexcept { return ledger_ != nullptr; }
    units::EffectiveEpsilon epsilon() const noexcept { return epsilon_; }

   private:
    friend class Ledger;
    Reservation(Ledger* ledger, Accounts::value_type* account, double epsilon)
        : ledger_(ledger), account_(account), epsilon_(epsilon) {}
    void release() noexcept;

    Ledger* ledger_ = nullptr;
    Accounts::value_type* account_ = nullptr;  ///< the consumer's entry
    double epsilon_ = 0.0;
  };

  // --- Live sales.  Each call appends its event(s) to timeline(). ---

  /// kQuote: a price was quoted for `spec`; nothing held or spent.
  void quote(const query::AccuracySpec& spec, double price);

  /// kRefusal: the sale died before any release; `attempted` is the
  /// epsilon' it would have cost, recorded but not spent.  Returns the
  /// consumer's released epsilon' (consumer_epsilon()) as of the refusal.
  units::EffectiveEpsilon refuse(
      const std::string& consumer_id, const query::RangeQuery& range,
      const query::AccuracySpec& spec, units::EffectiveEpsilon attempted,
      std::string reason);

  /// Atomically checks `spent + reserved + epsilon <= cap` for the consumer
  /// and, on success, holds `epsilon` until the returned handle is
  /// committed or destroyed, and appends a kReserve labelled with `range`
  /// and `spec`.  nullopt means the sale must be refused.
  std::optional<Reservation> try_reserve(const std::string& consumer_id,
                                         units::EffectiveEpsilon epsilon,
                                         units::EffectiveEpsilon cap,
                                         const query::RangeQuery& range = {},
                                         const query::AccuracySpec& spec = {});

  /// Atomically grows an active reservation by `delta` when the consumer's
  /// spent + held + delta still fits under `cap`; returns false (leaving
  /// the reservation unchanged) when it would not.  The mint barrier uses
  /// this to re-admit a sale at the FINAL plan's epsilon' before any noise
  /// is drawn, whenever the minted plan exceeds the projection the
  /// reservation was sized from (degraded re-quotes, coverage drift
  /// between quote and mint).
  bool try_extend(Reservation& reservation, units::EffectiveEpsilon delta,
                  units::EffectiveEpsilon cap);

  /// The mint barrier's record, appended before any noise is drawn: a
  /// kIntent for the durable WAL intent `intent_sequence` (skipped when it
  /// is 0, i.e. no WAL), then the kMint.
  void mint(const std::string& consumer_id, const query::RangeQuery& range,
            const query::AccuracySpec& spec, units::EffectiveEpsilon epsilon,
            std::uint64_t intent_sequence);

  /// Converts a reservation into a kCommit in one critical section (the
  /// reservation is consumed either way) and returns the sale's sequence.
  /// `wal_sequence` links the commit to its durable intent.  The
  /// transaction's epsilon' may differ from the reserved amount only within
  /// fp rounding — the mint barrier extends the reservation to the final
  /// plan before the draw — so commit re-checks it: an overrun beyond
  /// rounding means a release slipped past the cap unadmitted (fatal in
  /// debug builds, counted by `market.ledger_reservation_overruns`
  /// always).  With `checkpoint` set, the same critical section also takes
  /// the periodic WAL checkpoint covering this sale: its kCheckpoint is
  /// listed just ahead of the kCommit, and the event and snapshot land in
  /// `*checkpoint` for the caller to write.
  std::size_t commit(Reservation reservation, Transaction transaction,
                     std::uint64_t wal_sequence = 0,
                     Checkpoint* checkpoint = nullptr);

  /// Snapshot of the aggregates plus its kCheckpoint (labelled `detail`),
  /// taken in one critical section; the caller writes it to the WAL.
  Checkpoint checkpoint(std::string detail);

  // --- Readers. ---

  /// Sales booked (live commits and replayed ones, including those the
  /// timeline's window has since dropped; sales a restored checkpoint
  /// aggregates are not counted).
  std::size_t transaction_count() const noexcept {
    std::lock_guard<std::mutex> lock(mutex_);
    return books_.commits;
  }

  /// The sales still in the timeline's window, read from its retained
  /// kCommit events in index order — at most the newest
  /// AuditLog::kRetainedEvents events' worth, so fewer than
  /// transaction_count() once the window has dropped events.  Safe to call
  /// while sales continue on other threads.
  std::vector<Transaction> transactions_snapshot() const;

  double total_revenue() const noexcept {
    std::lock_guard<std::mutex> lock(mutex_);
    return books_.total_revenue;
  }

  /// Total amplified budget released across ALL consumers — the dataset's
  /// cumulative exposure under sequential composition (adversaries may
  /// collude, so the broker audits the global sum, not just per-consumer
  /// totals).  After recovery this includes orphaned intents: budget that
  /// MAY have been released before a crash is counted as released.
  units::EffectiveEpsilon total_epsilon() const noexcept {
    std::lock_guard<std::mutex> lock(mutex_);
    return books_.total_epsilon;
  }

  /// Budget charged to crash orphans (intents with no commit) rather than
  /// completed sales.  Included in total_epsilon().
  units::EffectiveEpsilon orphaned_epsilon() const noexcept {
    std::lock_guard<std::mutex> lock(mutex_);
    return books_.orphaned_epsilon;
  }

  /// Sum of prices paid by one consumer (0 for unknown ids).
  double consumer_spend(const std::string& consumer_id) const;

  /// Cumulative privacy budget released to one consumer (sequential
  /// composition of the amplified epsilons; 0 for unknown ids).
  units::EffectiveEpsilon consumer_epsilon(const std::string& consumer_id) const;

  /// Number of recorded sales that were re-quoted due to degraded coverage.
  std::size_t degraded_sales() const noexcept {
    std::lock_guard<std::mutex> lock(mutex_);
    return books_.degraded_sales;
  }

  /// Budget conservation audit: the global released budget must equal the
  /// sum of the per-consumer composition totals (a mismatch means some
  /// released epsilon' escaped the per-consumer caps — the double-spend the
  /// paper's market model forbids).  Returns the absolute discrepancy,
  /// summed over a walk of every consumer's totals (O(consumers));
  /// recovery, `prc_query recover` and every folded sale's debug-build
  /// PRC_DCHECK run this walk.
  double conservation_discrepancy() const;

  /// The two sides of the conservation equation as the fold keeps them,
  /// in O(1) per event: Sigma over consumers of epsilon' and of spend,
  /// accumulated as each sale or orphan is booked (and summed once from a
  /// restored base).  Each commit publishes |consumer_epsilon -
  /// total_epsilon()| + |consumer_spend - total_revenue()| as the
  /// `market.ledger_conservation_discrepancy` gauge; the sums agree with
  /// the walk conservation_discrepancy() does up to fp rounding.
  struct ConsumerSums {
    double consumer_epsilon = 0.0;
    double consumer_spend = 0.0;
  };
  ConsumerSums consumer_sums() const;

  /// Durable view of the aggregates (what a WAL checkpoint writes).
  LedgerSnapshot snapshot() const;

  /// The audit timeline this ledger folds (the broker's audit_log()).
  const AuditLog& timeline() const noexcept { return timeline_; }

  // --- Recovery (wal::apply_recovery folds the decoded WAL events). ---

  /// Seeds an EMPTY ledger with a checkpoint's aggregates, appending its
  /// kCheckpoint as the recovery base.  PRC_CHECKs the ledger has recorded
  /// nothing yet — restore is a birth certificate, not a merge.
  void restore(const Checkpoint& base);

  /// Folds a kCommit read from the WAL under its ORIGINAL sequence number,
  /// fast-forwarding past burned slots (a gap in the replayed sequence
  /// belongs to a sale whose commit never reached disk — its intent is
  /// charged via absorb_orphaned()).  PRC_CHECKs sequence numbers never
  /// move backwards.
  void replay(const AuditEvent& commit);

  /// Charges an orphaned kIntent read from the WAL (budget that may have
  /// been minted before a crash, with no committed transaction) as spent,
  /// appending it with an orphan detail.  Counts toward the consumer's cap
  /// and the global exposure but adds no revenue — the privacy-safe
  /// direction of the spend-ahead discipline.
  void absorb_orphaned(AuditEvent intent);

  /// Closes a recovery with a kRecovery event carrying the recovered
  /// total, so reconcile() balances across the crash.
  void conclude_recovery(std::string detail);

  /// Takes over the complete state of `other` (a freshly recovered, fully
  /// audited scratch ledger) into this EMPTY ledger: its aggregates, and
  /// its timeline appended to this one.  Lets DataBroker fold a WAL into a
  /// scratch ledger first and swap it in only after every audit passes — a
  /// failed recovery must leave the live ledger exactly as it was, not
  /// half-restored.  PRC_CHECKs that this ledger is empty and that `other`
  /// holds no live reservations.
  void adopt(Ledger& other);

 private:
  /// The aggregates the timeline folds into.  Only fold_locked() writes
  /// their fields (adopt() moves them whole).
  struct Books {
    std::uint64_t next_sequence = 0;
    std::size_t commits = 0;
    std::size_t degraded_sales = 0;
    double total_revenue = 0.0;
    double total_epsilon = 0.0;
    double orphaned_epsilon = 0.0;
    Accounts accounts;
    /// Running sums of the accounts' spend and epsilon' (see ConsumerSums).
    ConsumerSums sums;

    /// Nothing booked yet (accounts that only ever held are not booked).
    bool empty() const noexcept;
  };

  /// What an event books into the aggregates when folded.
  enum class Booking : std::uint8_t {
    kNothing,  ///< quote, reserve, intent, mint, refusal, checkpoint, ...
    kSale,     ///< a kCommit: sequence, revenue, epsilon', degraded count
    kOrphan,   ///< a recovered intent with no commit: epsilon' only
    kBase,     ///< the recovery-base kCheckpoint: `base`'s aggregates
  };

  /// The fold: appends `event` to the timeline and applies what it books,
  /// in the caller's critical section: a kSale or kOrphan into `account`
  /// (the event's consumer), a kBase from `base`.  The only writer of the
  /// booked fields of books_.
  void fold_locked(AuditEvent event, Booking booking = Booking::kNothing,
                   Account* account = nullptr,
                   const LedgerSnapshot* base = nullptr) PRC_REQUIRES(mutex_);
  /// Holds `epsilon` on `account` when spent + held + epsilon fits under
  /// `cap`; false (nothing held) when it does not.
  static bool hold(Account& account, double epsilon,
                   units::EffectiveEpsilon cap);
  void release_locked(Account& account, double epsilon) PRC_REQUIRES(mutex_);
  double conservation_discrepancy_locked() const PRC_REQUIRES(mutex_);
  LedgerSnapshot snapshot_locked() const PRC_REQUIRES(mutex_);

  mutable std::mutex mutex_;
  Books books_ PRC_GUARDED_BY(mutex_);
  /// Reservations neither committed nor released: each points into
  /// books_.accounts, so adopt() requires none on either side.
  std::size_t live_reservations_ PRC_GUARDED_BY(mutex_) = 0;
  AuditLog timeline_;
};

}  // namespace prc::market
