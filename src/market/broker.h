// The data broker of the paper's system model (Fig. 1).
//
// Sits between the IoT base station and data consumers: serves Lambda(alpha,
// delta) requests by producing a private answer through PrivateRangeCounter,
// charges the configured pricing function, and logs every sale to the
// ledger.  Consumers only ever see the noisy value, the contract they asked
// for, and the price; the internal plan and pre-noise estimate stay inside.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

#include "dp/private_counting.h"
#include "market/ledger.h"
#include "market/wal.h"
#include "pricing/pricing.h"
#include "pricing/quote_cache.h"
#include "query/range_query.h"

namespace prc::market {

/// Thrown by DataBroker::sell when a purchase would push the consumer's
/// cumulative amplified budget past the broker's cap.  Sequential
/// composition means every answer sold leaks additively; a benefit-concerned
/// broker caps the total it is willing to leak per consumer.
class BudgetExceededError : public std::runtime_error {
 public:
  BudgetExceededError(const std::string& consumer, units::EffectiveEpsilon spent,
                      units::EffectiveEpsilon cap);

  units::EffectiveEpsilon spent() const noexcept { return spent_; }
  units::EffectiveEpsilon cap() const noexcept { return cap_; }

 private:
  units::EffectiveEpsilon spent_;
  units::EffectiveEpsilon cap_;
};

/// What the broker does when degraded collection cannot support the
/// requested contract.
enum class DegradedSalePolicy {
  /// Refuse the sale outright (no budget spent, nothing recorded).
  kRefuse,
  /// Re-quote: widen the contract to the strongest one the cache actually
  /// supports, sell that instead, and mark the transaction degraded.
  kReprice,
};

/// Thrown by DataBroker::sell when the sample cache's coverage cannot
/// support the requested contract and the broker's policy is to refuse (or
/// no widening of the contract is reachable under kReprice).  Like
/// BudgetExceededError, the refusal happens BEFORE any noisy answer is
/// produced, so no budget is spent.
class InsufficientCoverageError : public std::runtime_error {
 public:
  InsufficientCoverageError(const std::string& what,
                            iot::CoverageSummary coverage)
      : std::runtime_error(what), coverage_(coverage) {}

  const iot::CoverageSummary& coverage() const noexcept { return coverage_; }

 private:
  iot::CoverageSummary coverage_;
};

struct BrokerConfig {
  /// Maximum cumulative epsilon' released to any single consumer.
  units::EffectiveEpsilon per_consumer_epsilon_cap =
      std::numeric_limits<double>::infinity();
  /// What to do when coverage cannot support the requested contract.
  DegradedSalePolicy degraded_policy = DegradedSalePolicy::kRefuse;
  /// Commits between automatic WAL checkpoints (0 = never checkpoint).
  /// Only meaningful once a WAL is attached.
  std::size_t wal_checkpoint_interval = 64;
  /// When true, every WAL append fsyncs to media, so the spend-ahead
  /// guarantee survives power/kernel loss, not just process death (see
  /// wal::SyncMode).  Compaction fsyncs around its rename either way.
  bool wal_fsync = false;
};

/// What a consumer receives for their money.
struct PurchaseReceipt {
  double value = 0.0;  ///< the noisy (alpha, delta)-range counting
  double price = 0.0;
  query::RangeQuery range;
  query::AccuracySpec spec;       ///< the contract actually delivered
  query::AccuracySpec requested;  ///< the contract originally asked for
  std::size_t transaction_id = 0;
  /// True when spec is weaker than requested (a kReprice degraded sale).
  bool degraded = false;
  /// Coverage of the cache when the answer was produced.
  double coverage = 1.0;
};

/// Why DataBroker::try_sell refused a sale.  Every refusal happens before
/// any noise is drawn, so none spends budget.
enum class RefusalKind {
  /// Budget: the consumer's recorded epsilon' already reaches the cap.
  kAtCap,
  /// Budget: the projected plan's epsilon' does not fit under the cap.
  kProjectedOverCap,
  /// Budget, at the mint barrier: the final plan's epsilon' exceeds the
  /// reservation and the cap refused to extend it.
  kFinalPlanOverCap,
  /// Coverage: the cache cannot support the contract and the policy is
  /// DegradedSalePolicy::kRefuse.
  kCoveragePolicy,
  /// Coverage, under kReprice: no widening of the contract is reachable,
  /// because some node never reported or the smallest p_i is too low.
  kRepricingImpossible,
};

/// A refused sale, as DataBroker::try_sell returns it.
struct Refusal {
  RefusalKind kind = RefusalKind::kAtCap;
  /// The epsilon' the sale would have cost: recorded, never spent.
  units::EffectiveEpsilon attempted = 0.0;
  /// The consumer's epsilon' had the sale gone through (recorded spend plus
  /// `attempted`), as BudgetExceededError::spent() reports it.
  units::EffectiveEpsilon spent = 0.0;
  units::EffectiveEpsilon cap = 0.0;
  /// What the counter could not serve, for a coverage refusal: the
  /// requested contract, or the widened one when its re-mint fell short,
  /// with the coverage the counter read.  All zero for a budget refusal.
  dp::CoverageShortfall shortfall;

  /// kAtCap, kProjectedOverCap or kFinalPlanOverCap.
  bool budget() const noexcept {
    return kind == RefusalKind::kAtCap ||
           kind == RefusalKind::kProjectedOverCap ||
           kind == RefusalKind::kFinalPlanOverCap;
  }
  /// The what() text of the exception DataBroker::sell throws for it,
  /// formatted from the numbers above.
  std::string message(const std::string& consumer_id) const;
};

/// DataBroker::try_sell's result: the receipt of a sale, or its refusal.
class SaleOutcome {
 public:
  SaleOutcome(PurchaseReceipt receipt) : value_(std::move(receipt)) {}
  SaleOutcome(Refusal refusal) : value_(std::move(refusal)) {}

  bool sold() const noexcept { return value_.index() == 0; }
  /// Each throws std::bad_variant_access when the outcome is the other one.
  const PurchaseReceipt& receipt() const& {
    return std::get<PurchaseReceipt>(value_);
  }
  PurchaseReceipt&& receipt() && {
    return std::get<PurchaseReceipt>(std::move(value_));
  }
  const Refusal& refusal() const { return std::get<Refusal>(value_); }

 private:
  std::variant<PurchaseReceipt, Refusal> value_;
};

class DataBroker {
 public:
  /// `counter` must outlive the broker.  The broker takes ownership of the
  /// pricing function.
  DataBroker(dp::PrivateRangeCounter& counter,
             std::unique_ptr<pricing::PricingFunction> pricing,
             BrokerConfig config = {});

  /// Quote without buying.
  double quote(const query::AccuracySpec& spec) const;

  /// Serves a request: computes the private answer, charges, records.
  /// Returns a Refusal, with nothing spent and the answer NOT computed,
  /// when the sale would push the consumer past the per-consumer epsilon
  /// cap, or when degraded collection cannot support the contract and the
  /// policy forbids repricing (or no widening of it is reachable).  Each
  /// refusal appends one kRefusal event and bumps `market.refusals_budget`
  /// or `market.refusals_coverage`.
  SaleOutcome try_sell(const std::string& consumer_id,
                       const query::RangeQuery& range,
                       const query::AccuracySpec& spec);

  /// try_sell for callers that treat a refusal as an error: the one
  /// throwing boundary of the sell path.  A budget refusal throws
  /// BudgetExceededError and a coverage refusal InsufficientCoverageError,
  /// with Refusal::message() as what().
  PurchaseReceipt sell(const std::string& consumer_id,
                       const query::RangeQuery& range,
                       const query::AccuracySpec& spec);

  /// Remaining budget the broker is still willing to release to a consumer.
  units::EffectiveEpsilon remaining_budget(const std::string& consumer_id) const;

  /// Starts write-ahead logging to `path`, which must not hold prior state
  /// (use recover_and_attach_wal for that).  Seeds the log with a
  /// checkpoint of the current aggregates; every subsequent sale flushes a
  /// durable intent before its answer is minted and a commit after the
  /// ledger append.  Call before sales begin, not concurrently with them.
  void attach_wal(const std::string& path);

  /// Crash recovery: replays the WAL at `path` — checkpoint, then
  /// committed sales, then every orphaned intent charged as spent — into a
  /// scratch ledger, re-audits budget conservation, re-validates the
  /// Theorem 4.2 menu against `model`, and only then adopts the recovered
  /// state, compacts the log and resumes accepting sales.  The spend-ahead
  /// discipline guarantees the recovered total_epsilon() never
  /// under-counts what was released before the crash.  Throws when the
  /// replay, audit or menu validation fails, leaving the broker exactly as
  /// it was (empty ledger, no WAL) so recovery can be retried once the
  /// cause is fixed.
  wal::RecoveryStats recover_and_attach_wal(const std::string& path,
                                            const pricing::VarianceModel& model);

  /// The attached log, or nullptr when the broker runs without durability.
  const wal::WriteAheadLog* write_ahead_log() const noexcept {
    return wal_.get();
  }

  const Ledger& ledger() const noexcept { return ledger_; }
  const pricing::PricingFunction& pricing() const noexcept {
    return *pricing_;
  }

  /// The memoized quote layer every broker price evaluation goes through
  /// (exposed for cache-behavior tests).
  const pricing::QuoteCache& quote_cache() const noexcept {
    return quote_cache_;
  }

  /// The broker's privacy-budget audit timeline (always on): the ledger's
  /// own quote, reserve, intent, mint, commit, refusal, recovery and
  /// checkpoint events, appended at the exact code points the guarantees
  /// attach to (the newest AuditLog::kRetainedEvents of them are kept).
  /// audit_log().reconcile(ledger()) proves Sigma(mint
  /// epsilon') + Sigma(recovery epsilon') == ledger().total_epsilon().
  const AuditLog& audit_log() const noexcept { return ledger_.timeline(); }

 private:
  /// The single market-layer gateway to PrivateRangeCounter::try_answer (the
  /// budget-barrier-dominance lint rule enforces this): passes the mint
  /// barrier that re-admits the sale at the FINAL plan's epsilon'
  /// (extending `reservation`, or declining before any noise is drawn when
  /// the cap refuses the extension) and flushes the WAL intent record
  /// carrying that epsilon', reporting the intent's wal sequence through
  /// `intent_sequence` for the matching commit record.
  dp::AnswerOutcome mint_answer_with_intent(const std::string& consumer_id,
                                            const query::RangeQuery& range,
                                            const query::AccuracySpec& spec,
                                            Ledger::Reservation& reservation,
                                            std::uint64_t& intent_sequence);
  /// Counts a commit toward the checkpoint cadence; true when this commit
  /// should take the periodic WAL checkpoint.
  bool checkpoint_due();
  wal::SyncMode wal_sync_mode() const noexcept {
    return config_.wal_fsync ? wal::SyncMode::kMediaDurable
                             : wal::SyncMode::kProcessDurable;
  }

  /// Every refusal exit of try_sell() goes through this: it records the
  /// kRefusal in the ledger and bumps the matching refusal counter, so the
  /// audit timeline and the metrics can never disagree about why a sale
  /// died.  `attempted` is recorded, not spent; a coverage refusal passes
  /// the shortfall it read.
  Refusal refuse(RefusalKind kind, const std::string& consumer_id,
                 const query::RangeQuery& range,
                 const query::AccuracySpec& spec,
                 units::EffectiveEpsilon attempted,
                 const dp::CoverageShortfall& shortfall = {});

  dp::PrivateRangeCounter& counter_;
  std::unique_ptr<pricing::PricingFunction> pricing_;
  BrokerConfig config_;
  /// Memoizes *pricing_ (declared after it; same lifetime).  Shared by
  /// concurrent consumers — QuoteCache carries its own mutex.
  pricing::QuoteCache quote_cache_;
  /// mutable: quote() is const but still leaves a timeline entry.
  mutable Ledger ledger_;
  std::unique_ptr<wal::WriteAheadLog> wal_;
  /// Checkpoint cadence counter: an over- or under-count by one merely
  /// shifts WHEN the next checkpoint lands, never whether a commit is
  /// durable, so a relaxed cell is enough.
  std::atomic<std::size_t> commits_since_checkpoint_{0};  // lint:allow atomic
};

}  // namespace prc::market
