#include "market/ledger.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/telemetry.h"

namespace prc::market {
namespace {

void check_sale(const AuditEvent& sale) {
  PRC_CHECK(std::isfinite(sale.price) && sale.price >= 0.0)
      << "ledger: price must be >= 0, got " << sale.price;
  PRC_CHECK(std::isfinite(sale.epsilon) && sale.epsilon >= 0.0)
      << "ledger: released budget must be >= 0, got " << sale.epsilon;
  PRC_CHECK(sale.coverage >= 0.0 && sale.coverage <= 1.0)
      << "ledger: coverage must be in [0, 1], got " << sale.coverage;
}

/// A broker-level event reporting a ledger total (checkpoint, recovery).
AuditEvent total_event(AuditEventType type, units::EffectiveEpsilon total,
                       std::string detail) {
  AuditEvent event;
  event.type = type;
  event.epsilon = total;
  event.detail = std::move(detail);
  return event;
}

}  // namespace

AuditEvent sale_event(AuditEventType type, const std::string& consumer_id,
                      const query::RangeQuery& range,
                      const query::AccuracySpec& spec,
                      units::EffectiveEpsilon epsilon,
                      std::uint64_t wal_sequence, std::string detail) {
  AuditEvent event;
  event.type = type;
  event.consumer_id = consumer_id;
  event.lower = range.lower;
  event.upper = range.upper;
  event.alpha = spec.alpha;
  event.delta = spec.delta;
  event.epsilon = epsilon;
  event.wal_sequence = wal_sequence;
  event.detail = std::move(detail);
  return event;
}

AuditEvent commit_event(const Transaction& transaction,
                        std::uint64_t intent_sequence) {
  AuditEvent event = sale_event(
      AuditEventType::kCommit, transaction.consumer_id, transaction.range,
      transaction.spec, transaction.epsilon_amplified, intent_sequence,
      transaction.degraded ? "degraded sale (repriced contract)" : "");
  event.price = transaction.price;
  event.ledger_sequence = transaction.sequence;
  event.coverage = transaction.coverage;
  event.degraded = transaction.degraded;
  return event;
}

void Ledger::Reservation::release() noexcept {
  if (ledger_ == nullptr) return;
  Ledger* ledger = ledger_;
  ledger_ = nullptr;
  std::lock_guard<std::mutex> lock(ledger->mutex_);
  ledger->release_locked(account_->second, epsilon_);
}

bool Ledger::Books::empty() const noexcept {
  return next_sequence == 0 && commits == 0 && degraded_sales == 0 &&
         std::none_of(accounts.begin(), accounts.end(),
                      [](const auto& entry) { return entry.second.booked; });
}

bool Ledger::hold(Account& account, double epsilon,
                  units::EffectiveEpsilon cap) {
  if (account.epsilon + account.held + epsilon > cap.value()) return false;
  account.held += epsilon;
  return true;
}

void Ledger::release_locked(Account& account, double epsilon) {
  --live_reservations_;
  // Rounding can leave a release a hair past zero, or the last one a hair
  // above it: nothing is held once no reservation is live.
  account.held = --account.reservations == 0
                     ? 0.0
                     : std::max(0.0, account.held - epsilon);
}

void Ledger::fold_locked(AuditEvent event, Booking booking, Account* account,
                         const LedgerSnapshot* base) {
  static telemetry::Counter& ledger_transactions =
      telemetry::counter("market.ledger_transactions");
  static telemetry::Gauge& conservation_gauge =
      telemetry::gauge("market.ledger_conservation_discrepancy");
  const double epsilon = event.epsilon.value();
  switch (booking) {
    case Booking::kNothing:
      break;
    case Booking::kSale:
      books_.next_sequence = event.ledger_sequence + 1;
      ++books_.commits;
      if (event.degraded) ++books_.degraded_sales;
      books_.total_revenue += event.price;
      books_.total_epsilon += epsilon;
      account->spend += event.price;
      account->epsilon += epsilon;
      account->booked = true;
      books_.sums.consumer_spend += event.price;
      books_.sums.consumer_epsilon += epsilon;
      // Budget conservation (sequential composition audit): every epsilon'
      // released globally must be attributed to exactly one consumer.  The
      // tolerance scales with the running total because both sides
      // accumulate independent fp rounding.  The walk is debug-only; the
      // gauge reads the running sums, so a commit costs the same however
      // many consumer ids the ledger has seen.
      PRC_DCHECK(conservation_discrepancy_locked() <=
                 1e-9 * (1.0 + books_.total_epsilon + books_.total_revenue))
          << "ledger lost track of released budget: discrepancy "
          << conservation_discrepancy_locked();
      ledger_transactions.increment();
      conservation_gauge.set(
          std::abs(books_.sums.consumer_epsilon - books_.total_epsilon) +
          std::abs(books_.sums.consumer_spend - books_.total_revenue));
      break;
    case Booking::kOrphan:
      books_.total_epsilon += epsilon;
      books_.orphaned_epsilon += epsilon;
      account->epsilon += epsilon;
      account->booked = true;
      books_.sums.consumer_epsilon += epsilon;
      telemetry::gauge("market.ledger_orphaned_epsilon")
          .set(books_.orphaned_epsilon);
      break;
    case Booking::kBase:
      books_.next_sequence = base->next_sequence;
      books_.total_revenue = base->total_revenue;
      books_.total_epsilon = base->total_epsilon.value();
      books_.orphaned_epsilon = base->orphaned_epsilon.value();
      books_.degraded_sales = base->degraded_sales;
      for (const auto& totals : base->consumers) {
        Account& restored = books_.accounts[totals.consumer_id];
        restored = {totals.spend, totals.epsilon.value(), restored.held,
                    restored.reservations, true};
        books_.sums.consumer_spend += totals.spend;
        books_.sums.consumer_epsilon += totals.epsilon.value();
      }
      PRC_CHECK(conservation_discrepancy_locked() <=
                1e-9 * (1.0 + books_.total_epsilon + books_.total_revenue))
          << "restored checkpoint violates budget conservation: discrepancy "
          << conservation_discrepancy_locked();
      break;
  }
  timeline_.append_event(std::move(event));
}

void Ledger::quote(const query::AccuracySpec& spec, double price) {
  AuditEvent event = sale_event(AuditEventType::kQuote, {}, {}, spec, 0.0);
  event.price = price;
  std::lock_guard<std::mutex> lock(mutex_);
  fold_locked(std::move(event));
}

units::EffectiveEpsilon Ledger::refuse(
    const std::string& consumer_id, const query::RangeQuery& range,
    const query::AccuracySpec& spec, units::EffectiveEpsilon attempted,
    std::string reason) {
  // Attempted, NOT spent: refusals release nothing.
  std::lock_guard<std::mutex> lock(mutex_);
  fold_locked(sale_event(AuditEventType::kRefusal, consumer_id, range, spec,
                         attempted, 0, std::move(reason)));
  const auto it = books_.accounts.find(consumer_id);
  return it == books_.accounts.end() ? 0.0 : it->second.epsilon;
}

std::optional<Ledger::Reservation> Ledger::try_reserve(
    const std::string& consumer_id, units::EffectiveEpsilon epsilon,
    units::EffectiveEpsilon cap, const query::RangeQuery& range,
    const query::AccuracySpec& spec) {
  PRC_CHECK(std::isfinite(epsilon.value()) && epsilon.value() >= 0.0)
      << "ledger: reserved budget must be >= 0, got " << epsilon.value();
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [entry, inserted] = books_.accounts.try_emplace(consumer_id);
  if (!hold(entry->second, epsilon.value(), cap)) {
    // A consumer refused on its first reservation leaves no account.
    if (inserted) books_.accounts.erase(entry);
    return std::nullopt;
  }
  ++live_reservations_;
  ++entry->second.reservations;
  fold_locked(
      sale_event(AuditEventType::kReserve, consumer_id, range, spec, epsilon));
  return Reservation(this, &*entry, epsilon.value());
}

bool Ledger::try_extend(Reservation& reservation,
                        units::EffectiveEpsilon delta,
                        units::EffectiveEpsilon cap) {
  PRC_CHECK(reservation.ledger_ == this)
      << "ledger: extending a reservation released or of another ledger";
  PRC_CHECK(std::isfinite(delta.value()) && delta.value() >= 0.0)
      << "ledger: reservation extension must be >= 0, got " << delta.value();
  std::lock_guard<std::mutex> lock(mutex_);
  if (!hold(reservation.account_->second, delta.value(), cap)) return false;
  reservation.epsilon_ += delta.value();
  return true;
}

void Ledger::mint(const std::string& consumer_id,
                  const query::RangeQuery& range,
                  const query::AccuracySpec& spec,
                  units::EffectiveEpsilon epsilon,
                  std::uint64_t intent_sequence) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (intent_sequence != 0) {
    fold_locked(sale_event(AuditEventType::kIntent, consumer_id, range, spec,
                           epsilon, intent_sequence));
  }
  fold_locked(sale_event(AuditEventType::kMint, consumer_id, range, spec,
                         epsilon, intent_sequence,
                         "final plan admitted; noise draw follows"));
}

std::size_t Ledger::commit(Reservation reservation, Transaction transaction,
                           std::uint64_t wal_sequence,
                           Checkpoint* checkpoint) {
  PRC_CHECK(reservation.ledger_ == this)
      << "ledger: committing a reservation released or of another ledger";
  PRC_CHECK(reservation.account_->first == transaction.consumer_id)
      << "ledger: reservation for '" << reservation.account_->first
      << "' cannot commit a sale to '" << transaction.consumer_id << "'";
  AuditEvent sale = commit_event(transaction, wal_sequence);
  check_sale(sale);
  // The reservation was the admission check and the mint barrier extended
  // it to the final plan; anything past fp rounding here is a release the
  // cap never admitted.
  const double reserved = reservation.epsilon_;
  const bool overrun =
      sale.epsilon.value() > reserved + 1e-9 * (1.0 + reserved);
  if (overrun) {
    telemetry::counter("market.ledger_reservation_overruns").increment();
  }
  PRC_DCHECK(!overrun) << "ledger: committing epsilon' "
                       << sale.epsilon.value() << " above the reserved "
                       << reserved << " for '" << sale.consumer_id << "'";
  reservation.ledger_ = nullptr;  // consumed; no destructor-time release
  std::lock_guard<std::mutex> lock(mutex_);
  Account& account = reservation.account_->second;
  release_locked(account, reservation.epsilon_);
  if (checkpoint != nullptr) {
    // The checkpoint covers this sale, and the timeline lists it ahead of
    // the sale's commit; its total is the sum the commit's fold computes.
    checkpoint->event = total_event(
        AuditEventType::kCheckpoint,
        books_.total_epsilon + sale.epsilon.value(), "periodic wal checkpoint");
    fold_locked(checkpoint->event);
  }
  const std::size_t sequence = books_.next_sequence;
  sale.ledger_sequence = sequence;
  fold_locked(std::move(sale), Booking::kSale, &account);
  if (checkpoint != nullptr) checkpoint->snapshot = snapshot_locked();
  return sequence;
}

Checkpoint Ledger::checkpoint(std::string detail) {
  std::lock_guard<std::mutex> lock(mutex_);
  Checkpoint checkpoint{
      total_event(AuditEventType::kCheckpoint, books_.total_epsilon,
                  std::move(detail)),
      snapshot_locked()};
  fold_locked(checkpoint.event);
  return checkpoint;
}

std::vector<Transaction> Ledger::transactions_snapshot() const {
  std::vector<Transaction> transactions;
  timeline_.for_each_event([&transactions](const AuditEvent& event) {
    if (event.type != AuditEventType::kCommit) return;
    transactions.push_back(
        {static_cast<std::size_t>(event.ledger_sequence), event.consumer_id,
         {event.lower, event.upper}, {event.alpha, event.delta}, event.price,
         event.epsilon, event.coverage, event.degraded});
  });
  return transactions;
}

double Ledger::conservation_discrepancy() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return conservation_discrepancy_locked();
}

Ledger::ConsumerSums Ledger::consumer_sums() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return books_.sums;
}

double Ledger::conservation_discrepancy_locked() const {
  double epsilon_sum = 0.0;
  double spend_sum = 0.0;
  for (const auto& [consumer, account] : books_.accounts) {
    epsilon_sum += account.epsilon;
    spend_sum += account.spend;
  }
  return std::abs(epsilon_sum - books_.total_epsilon) +
         std::abs(spend_sum - books_.total_revenue);
}

double Ledger::consumer_spend(const std::string& consumer_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = books_.accounts.find(consumer_id);
  return it == books_.accounts.end() ? 0.0 : it->second.spend;
}

units::EffectiveEpsilon Ledger::consumer_epsilon(
    const std::string& consumer_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = books_.accounts.find(consumer_id);
  return it == books_.accounts.end() ? 0.0 : it->second.epsilon;
}

LedgerSnapshot Ledger::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_locked();
}

LedgerSnapshot Ledger::snapshot_locked() const {
  LedgerSnapshot snap;
  snap.next_sequence = books_.next_sequence;
  snap.total_revenue = books_.total_revenue;
  snap.total_epsilon = books_.total_epsilon;
  snap.orphaned_epsilon = books_.orphaned_epsilon;
  snap.degraded_sales = books_.degraded_sales;
  snap.consumers.reserve(books_.accounts.size());
  for (const auto& [consumer, account] : books_.accounts) {
    if (!account.booked) continue;
    snap.consumers.push_back({consumer, account.spend, account.epsilon});
  }
  std::sort(snap.consumers.begin(), snap.consumers.end(),
            [](const LedgerConsumerTotals& a, const LedgerConsumerTotals& b) {
              return a.consumer_id < b.consumer_id;
            });
  return snap;
}

void Ledger::restore(const Checkpoint& base) {
  std::lock_guard<std::mutex> lock(mutex_);
  PRC_CHECK(books_.empty())
      << "ledger restore requires an empty ledger (recovery is a birth, "
         "not a merge)";
  fold_locked(base.event, Booking::kBase, nullptr, &base.snapshot);
}

void Ledger::replay(const AuditEvent& commit) {
  check_sale(commit);
  std::lock_guard<std::mutex> lock(mutex_);
  PRC_CHECK(commit.ledger_sequence >= books_.next_sequence)
      << "ledger replay would reuse sequence " << commit.ledger_sequence
      << " (next is " << books_.next_sequence << ")";
  fold_locked(commit, Booking::kSale, &books_.accounts[commit.consumer_id]);
}

void Ledger::absorb_orphaned(AuditEvent intent) {
  PRC_CHECK(std::isfinite(intent.epsilon) && intent.epsilon >= 0.0)
      << "ledger: orphaned budget must be >= 0, got " << intent.epsilon;
  intent.detail = "orphaned intent (no commit): charged as spent";
  std::lock_guard<std::mutex> lock(mutex_);
  fold_locked(intent, Booking::kOrphan, &books_.accounts[intent.consumer_id]);
}

void Ledger::conclude_recovery(std::string detail) {
  std::lock_guard<std::mutex> lock(mutex_);
  fold_locked(total_event(AuditEventType::kRecovery, books_.total_epsilon,
                          std::move(detail)));
}

void Ledger::adopt(Ledger& other) {
  PRC_CHECK(&other != this) << "ledger cannot adopt itself";
  // One deadlock-free atomic acquisition: two sequential lock_guards would
  // invert order against a concurrent `other.adopt(*this)`.
  std::scoped_lock lock(mutex_, other.mutex_);
  PRC_CHECK(books_.empty() && live_reservations_ == 0)
      << "ledger adopt requires an empty ledger (recovery is a birth, "
         "not a merge)";
  PRC_CHECK(other.live_reservations_ == 0)
      << "ledger adopt source still holds live reservations";
  books_ = std::exchange(other.books_, Books{});
  timeline_.append_all(other.timeline_);
}

}  // namespace prc::market
