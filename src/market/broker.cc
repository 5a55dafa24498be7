#include "market/broker.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <optional>
#include <system_error>
#include <utility>

#include "common/check.h"
#include "common/crash_point.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "pricing/arbitrage.h"

namespace prc::market {
namespace {

// Entries held by the broker's quote cache.  Prices are pure in the
// contract, so quote() and receipt pricing re-use earlier evaluations
// bit-identically.
constexpr std::size_t kQuoteCacheCapacity = 1024;

// Validated before the member init list dereferences it for the quote
// cache's bound reference.
std::unique_ptr<pricing::PricingFunction> require_pricing(
    std::unique_ptr<pricing::PricingFunction> pricing) {
  PRC_CHECK(pricing != nullptr) << "broker needs a pricing function";
  return pricing;
}

// Appends `value` as std::to_string(double) prints it ("%f": fixed, six
// decimals, "inf"/"nan" spelled out) without going through vsnprintf.  The
// widest finite double has 309 integer digits; with a sign, the point and
// six decimals that is 317 characters.
void append_fixed(std::string& out, double value) {
  char digits[std::numeric_limits<double>::max_exponent10 + 10];
  const auto result = std::to_chars(digits, digits + sizeof digits, value,
                                    std::chars_format::fixed, 6);
  PRC_CHECK(result.ec == std::errc()) << "refusal text overflowed its buffer";
  out.append(digits, result.ptr);
}

// BudgetExceededError's text.
std::string budget_exceeded_message(const std::string& consumer,
                                    units::EffectiveEpsilon spent,
                                    units::EffectiveEpsilon cap) {
  std::string text = "privacy budget exceeded for '";
  text += consumer;
  text += "': spent ";
  append_fixed(text, spent.value());
  text += " of ";
  append_fixed(text, cap.value());
  return text;
}

// The audit detail of a refusal (AuditEvent::detail of its kRefusal).  A
// kRepricingImpossible names its cause from the shortfall: a node that never
// reported, or a smallest p_i no widening reaches.
const char* refusal_reason(RefusalKind kind,
                           const dp::CoverageShortfall& shortfall) {
  switch (kind) {
    case RefusalKind::kAtCap:
      return "consumer already at the per-consumer epsilon cap";
    case RefusalKind::kProjectedOverCap:
      return "projected plan does not fit under the epsilon cap";
    case RefusalKind::kFinalPlanOverCap:
      return "final plan exceeds reservation and the cap refused the "
             "extension";
    case RefusalKind::kCoveragePolicy:
      return "coverage cannot support the contract; policy is refuse";
    case RefusalKind::kRepricingImpossible:
      return shortfall.coverage.min_probability > 0.0
                 ? "repricing impossible: no widening reaches the smallest "
                   "node probability"
                 : "repricing impossible: some node never reported";
  }
  return "refused";
}

// The sell() boundary's throw.  A budget refusal's message is built inside
// the exception's constructor; a coverage refusal's is formatted here.
[[noreturn]] void throw_refusal(const std::string& consumer_id,
                                const Refusal& refusal) {
  if (refusal.budget()) {
    throw BudgetExceededError(consumer_id, refusal.spent, refusal.cap);
  }
  throw InsufficientCoverageError(refusal.message(consumer_id),
                                  refusal.shortfall.coverage);
}

}  // namespace

BudgetExceededError::BudgetExceededError(const std::string& consumer,
                                         units::EffectiveEpsilon spent,
                                         units::EffectiveEpsilon cap)
    : std::runtime_error(budget_exceeded_message(consumer, spent, cap)),
      spent_(spent),
      cap_(cap) {}

std::string Refusal::message(const std::string& consumer_id) const {
  if (budget()) return budget_exceeded_message(consumer_id, spent, cap);
  if (kind == RefusalKind::kCoveragePolicy) {
    return "sale refused: " + dp::coverage_shortfall_message(shortfall);
  }
  return "repricing impossible: " + dp::coverage_shortfall_message(shortfall);
}

DataBroker::DataBroker(dp::PrivateRangeCounter& counter,
                       std::unique_ptr<pricing::PricingFunction> pricing,
                       BrokerConfig config)
    : counter_(counter),
      pricing_(require_pricing(std::move(pricing))),
      config_(config),
      quote_cache_(*pricing_, kQuoteCacheCapacity) {
  PRC_CHECK(config_.per_consumer_epsilon_cap > 0.0)
      << "per-consumer epsilon cap must be positive, got "
      << config_.per_consumer_epsilon_cap;
}

double DataBroker::quote(const query::AccuracySpec& spec) const {
  static telemetry::Counter& quotes = telemetry::counter("market.quotes");
  quotes.increment();
  const double price = quote_cache_.price(spec);
  ledger_.quote(spec, price);
  return price;
}

Refusal DataBroker::refuse(RefusalKind kind, const std::string& consumer_id,
                           const query::RangeQuery& range,
                           const query::AccuracySpec& spec,
                           units::EffectiveEpsilon attempted,
                           const dp::CoverageShortfall& shortfall) {
  const Refusal refusal{
      .kind = kind,
      .attempted = attempted,
      .spent = ledger_.refuse(consumer_id, range, spec, attempted,
                              refusal_reason(kind, shortfall)) +
               attempted,
      .cap = config_.per_consumer_epsilon_cap,
      .shortfall = shortfall};
  if (refusal.budget()) {
    static telemetry::Counter& refusals =
        telemetry::counter("market.refusals_budget");
    refusals.increment();
  } else {
    static telemetry::Counter& refusals =
        telemetry::counter("market.refusals_coverage");
    refusals.increment();
  }
  return refusal;
}

units::EffectiveEpsilon DataBroker::remaining_budget(
    const std::string& consumer_id) const {
  return std::max(0.0, config_.per_consumer_epsilon_cap -
                           ledger_.consumer_epsilon(consumer_id));
}

void DataBroker::attach_wal(const std::string& path) {
  PRC_CHECK(wal_ == nullptr) << "broker already has a wal attached";
  const auto existing = wal::read_wal(path);
  PRC_CHECK(existing.stats.records_read == 0 &&
            existing.stats.truncated_bytes == 0)
      << "wal '" << path
      << "' holds prior state; use recover_and_attach_wal instead";
  wal_ = wal::WriteAheadLog::open(path, 0, wal_sync_mode());
  // Seed the log with the current aggregates, so recovery can never know
  // less than the broker did at attach time.
  wal_->append_checkpoint(ledger_.checkpoint("wal attached: seed checkpoint"));
  commits_since_checkpoint_.store(0, std::memory_order_relaxed);
}

wal::RecoveryStats DataBroker::recover_and_attach_wal(
    const std::string& path, const pricing::VarianceModel& model) {
  PRC_CHECK(wal_ == nullptr) << "broker already has a wal attached";
  const auto pre_recovery = ledger_.snapshot();
  PRC_CHECK(pre_recovery.next_sequence == 0 && pre_recovery.consumers.empty())
      << "wal recovery requires a fresh broker";
  const auto recovery = wal::read_wal(path);
  // Fold into a scratch ledger first: replay and both audits below can
  // throw, and a failed recovery must leave the broker exactly as it was
  // (empty, retryable) — a half-restored ledger silently usable without
  // durability is worse than no recovery at all.  The fold also writes the
  // recovered timeline (base checkpoint, replayed commits, orphans, and
  // the kRecovery total that lets reconcile() balance across the crash).
  Ledger recovered;
  wal::apply_recovery(recovered, recovery);
  // Re-audit before selling anything: the recovered books must conserve
  // budget exactly (modulo fp rounding)...
  const double discrepancy = recovered.conservation_discrepancy();
  PRC_CHECK(discrepancy <= 1e-9 * (1.0 + recovered.total_epsilon() +
                                   recovered.total_revenue()))
      << "recovered ledger violates budget conservation: discrepancy "
      << discrepancy;
  // ...and the menu must still be arbitrage-free (Theorem 4.2): resuming
  // sales behind a broken menu would let Example 4.1 adversaries buy
  // around the very accounting recovery just rebuilt.
  const auto report = pricing::ArbitrageChecker(model).check(*pricing_);
  PRC_CHECK(report.arbitrage_avoiding)
      << "recovered broker refuses to reopen: pricing menu violates "
         "Theorem 4.2 (" << report.violations.size() << " violations)";
  // Every audit green: the scratch state and its timeline become the
  // broker's ledger.
  ledger_.adopt(recovered);
  // Compaction absorbs the replayed history — and the orphans just charged
  // — into one durable checkpoint, so recovering again (even crashing
  // during recovery) never double-charges an orphan.
  wal_ = wal::WriteAheadLog::compact(
      path, ledger_.checkpoint("wal compacted after recovery"),
      recovery.next_wal_sequence, wal_sync_mode());
  commits_since_checkpoint_.store(0, std::memory_order_relaxed);
  return recovery.stats;
}

dp::AnswerOutcome DataBroker::mint_answer_with_intent(
    const std::string& consumer_id, const query::RangeQuery& range,
    const query::AccuracySpec& spec, Ledger::Reservation& reservation,
    std::uint64_t& intent_sequence) {
  const auto barrier = [&](const dp::PerturbationPlan& plan) {
    // The reservation admitted a PROJECTED plan; the barrier sees the one
    // the mechanism will actually charge.  When the true epsilon' is
    // larger (degraded re-quote, coverage drift between quote and mint),
    // re-admit the sale at the real release — declining here draws no
    // noise and spends nothing, and a refused sale must not leave a
    // durable intent behind, so the extension precedes the intent append.
    if (plan.epsilon_amplified.value() > reservation.epsilon().value()) {
      const units::EffectiveEpsilon shortfall =
          plan.epsilon_amplified.value() - reservation.epsilon().value();
      if (!ledger_.try_extend(reservation, shortfall,
                              config_.per_consumer_epsilon_cap)) {
        return false;
      }
    }
    PRC_CRASH_POINT("wal.pre_intent");
    if (wal_ != nullptr) {
      intent_sequence = wal_->append_intent(
          {consumer_id, range, spec, plan.epsilon_amplified});
    }
    // The durable intent's kIntent and the kMint are appended before the
    // barrier returns — i.e. before any noise is drawn — mirroring the
    // WAL's spend-ahead discipline in the observable timeline: Sigma(mint
    // epsilon') can only ever over-count what the mechanism released,
    // never under-count it.
    ledger_.mint(consumer_id, range, spec, plan.epsilon_amplified,
                 intent_sequence);
    // Dying here is the over-count case: the intent is durable but no
    // noise was drawn, so recovery charges budget that was never spent.
    // The asymmetry is deliberate — the reverse (spent but not charged)
    // would break the pricing model's composition accounting.
    PRC_CRASH_POINT("wal.post_intent");
    return true;
  };
  return counter_.try_answer(range, spec, barrier);
}

bool DataBroker::checkpoint_due() {
  if (wal_ == nullptr || config_.wal_checkpoint_interval == 0) return false;
  const std::size_t commits =
      commits_since_checkpoint_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (commits < config_.wal_checkpoint_interval) return false;
  commits_since_checkpoint_.store(0, std::memory_order_relaxed);
  return true;
}

SaleOutcome DataBroker::try_sell(const std::string& consumer_id,
                                 const query::RangeQuery& range,
                                 const query::AccuracySpec& spec) {
  static telemetry::Counter& sale_attempts =
      telemetry::counter("market.sale_attempts");
  static telemetry::Counter& sales = telemetry::counter("market.sales");
  static telemetry::Histogram& sell_duration =
      telemetry::histogram("market.sell_duration_us");
  static telemetry::Histogram& sale_price_hist =
      telemetry::histogram("market.sale_price");
  static telemetry::Histogram& sale_epsilon_hist =
      telemetry::histogram("market.sale_epsilon");
  static telemetry::Gauge& revenue_total =
      telemetry::gauge("market.revenue_total");
  static telemetry::Gauge& epsilon_spent_total =
      telemetry::gauge("market.epsilon_spent_total");
  PRC_TRACE_SPAN("market.sell");
  telemetry::ScopedTimer sell_timer(sell_duration);
  sale_attempts.increment();
  PRC_CRASH_POINT("broker.begin_sale");
  // Check the budget against the projected plan BEFORE computing the
  // answer, so a refused sale releases nothing.  The cheap spent-vs-cap
  // read keeps an already-exhausted consumer from paying for a plan
  // projection; the reservation below is the authoritative, race-free
  // admission check.
  if (ledger_.consumer_epsilon(consumer_id) >=
      config_.per_consumer_epsilon_cap) {
    return refuse(RefusalKind::kAtCap, consumer_id, range, spec, 0.0);
  }
  const auto projected = counter_.plan_for(spec);
  // Holding the projected epsilon' until commit (or return) closes the
  // check/record race: two concurrent sales can no longer both clear the
  // cap on the strength of the same unspent headroom.
  auto reservation =
      ledger_.try_reserve(consumer_id, projected.epsilon_amplified,
                          config_.per_consumer_epsilon_cap, range, spec);
  if (!reservation.has_value()) {
    return refuse(RefusalKind::kProjectedOverCap, consumer_id, range, spec,
                  projected.epsilon_amplified);
  }

  std::uint64_t intent_sequence = 0;
  auto minted = mint_answer_with_intent(consumer_id, range, spec, *reservation,
                                        intent_sequence);
  query::AccuracySpec sold_spec = spec;
  bool degraded = false;
  if (const auto* shortfall = std::get_if<dp::CoverageShortfall>(&minted)) {
    // The counter stopped before any noise was drawn: nothing has been
    // released yet, so refusing here spends no budget.
    const units::EffectiveEpsilon held = reservation->epsilon();
    if (config_.degraded_policy == DegradedSalePolicy::kRefuse) {
      return refuse(RefusalKind::kCoveragePolicy, consumer_id, range, spec,
                    held, *shortfall);
    }
    const auto widened = counter_.degraded_spec(spec);
    if (const auto* none = std::get_if<dp::CoverageShortfall>(&widened)) {
      return refuse(RefusalKind::kRepricingImpossible, consumer_id, range,
                    spec, held, *none);
    }
    sold_spec = std::get<query::AccuracySpec>(widened);
    degraded = true;
    minted = mint_answer_with_intent(consumer_id, range, sold_spec,
                                     *reservation, intent_sequence);
    // Coverage drifted between the widening and the re-mint.
    if (const auto* again = std::get_if<dp::CoverageShortfall>(&minted)) {
      return refuse(RefusalKind::kRepricingImpossible, consumer_id, range,
                    spec, held, *again);
    }
  }
  if (const auto* declined = std::get_if<dp::MintDeclined>(&minted)) {
    return refuse(RefusalKind::kFinalPlanOverCap, consumer_id, range,
                  sold_spec, declined->plan.epsilon_amplified);
  }
  const auto& answer = std::get<dp::PrivateAnswer>(minted);

  PurchaseReceipt receipt;
  receipt.value = answer.value;
  // A degraded sale is priced at the weaker contract actually delivered —
  // through the quote cache, so an attacker's m-th copy of one weakened
  // contract costs a hash lookup and is guaranteed the exact price the
  // first copy paid.
  receipt.price = quote_cache_.price(sold_spec);
  // Lemma 4.1 precondition for everything downstream: a non-positive or
  // non-finite price breaks both the revenue accounting and the arbitrage
  // argument (a free contract can be averaged into any stronger one).
  PRC_CHECK(std::isfinite(receipt.price) && receipt.price > 0.0)
      << "pricing function returned a non-positive price "
      << receipt.price << " for " << sold_spec.to_string();
  receipt.range = range;
  receipt.spec = sold_spec;
  receipt.requested = spec;
  receipt.degraded = degraded;
  receipt.coverage = answer.coverage.coverage;
  Transaction transaction{0,
                          consumer_id,
                          range,
                          sold_spec,
                          receipt.price,
                          answer.plan.epsilon_amplified};
  transaction.coverage = answer.coverage.coverage;
  transaction.degraded = degraded;
  // Crash windows from here on: pre_record dies with a durable intent and
  // a minted answer (recovery charges the orphan); post_record dies with
  // the ledger updated in memory but no durable commit (same orphan
  // charge); post_commit dies fully durable.  A due checkpoint is taken in
  // the commit's critical section (covering this sale) and written after
  // the commit record, outside the ledger lock.
  PRC_CRASH_POINT("broker.pre_record");
  std::optional<Checkpoint> checkpoint;
  if (checkpoint_due()) checkpoint.emplace();
  receipt.transaction_id =
      ledger_.commit(std::move(*reservation), transaction, intent_sequence,
                     checkpoint ? &*checkpoint : nullptr);
  PRC_CRASH_POINT("broker.post_record");
  if (wal_ != nullptr) {
    transaction.sequence = receipt.transaction_id;
    wal_->append_commit({intent_sequence, std::move(transaction)});
    PRC_CRASH_POINT("wal.post_commit");
    if (checkpoint) {
      PRC_CRASH_POINT("wal.pre_checkpoint");
      wal_->append_checkpoint(*checkpoint);
      PRC_CRASH_POINT("wal.post_checkpoint");
    }
  }
  sales.increment();
  if (degraded) {
    // Registered on the first degraded sale, not with the statics above:
    // registering it eagerly would change which metrics appear in
    // snapshots of sessions that never degrade.
    static telemetry::Counter& degraded_sales =
        telemetry::counter("market.degraded_sales");
    degraded_sales.increment();
  }
  sale_price_hist.record(receipt.price);
  sale_epsilon_hist.record(answer.plan.epsilon_amplified);
  revenue_total.set(ledger_.total_revenue());
  epsilon_spent_total.set(ledger_.total_epsilon());
  return receipt;
}

PurchaseReceipt DataBroker::sell(const std::string& consumer_id,
                                 const query::RangeQuery& range,
                                 const query::AccuracySpec& spec) {
  SaleOutcome outcome = try_sell(consumer_id, range, spec);
  if (!outcome.sold()) throw_refusal(consumer_id, outcome.refusal());
  return std::move(outcome).receipt();
}

}  // namespace prc::market
