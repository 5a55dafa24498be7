#include "market/audit_log.h"

#include <cmath>
#include <iterator>
#include <limits>
#include <sstream>
#include <utility>

#include "common/json.h"
#include "market/ledger.h"

namespace prc::market {

namespace {

// Doubles are printed at max_digits10 so timeline -> JSONL -> analysis is
// lossless, matching the telemetry snapshot precision.
constexpr int kDoubleDigits = std::numeric_limits<double>::max_digits10;

void append_event_json(std::ostringstream& out, const AuditEvent& event) {
  out << "{\"index\": " << event.index << ", \"type\": \""
      << audit_event_type_name(event.type) << "\", \"degraded\": "
      << (event.degraded ? "true" : "false") << ", \"consumer\": \""
      << json_escape(event.consumer_id) << "\", \"lower\": " << event.lower
      << ", \"upper\": " << event.upper
      << ", \"alpha\": " << event.alpha.value()
      << ", \"delta\": " << event.delta.value()
      << ", \"epsilon\": " << event.epsilon.value()
      << ", \"price\": " << event.price
      << ", \"wal_sequence\": " << event.wal_sequence
      << ", \"ledger_sequence\": " << event.ledger_sequence
      << ", \"coverage\": " << event.coverage
      << ", \"detail\": \"" << json_escape(event.detail) << "\"}";
}

}  // namespace

const char* audit_event_type_name(AuditEventType type) {
  // Indexed by AuditEventType, in declaration order.
  static constexpr const char* kNames[] = {
      "quote", "reserve", "intent", "mint",
      "commit", "refusal", "recovery", "checkpoint"};
  const auto index = static_cast<std::size_t>(type);
  return index < std::size(kNames) ? kNames[index] : "unknown";
}

std::string AuditReconciliation::to_string() const {
  std::ostringstream out;
  out.precision(kDoubleDigits);
  out << "audit reconciliation: minted " << minted_epsilon << " + recovered "
      << recovered_epsilon << " vs ledger " << ledger_epsilon
      << " (discrepancy " << discrepancy << ") -> "
      << (consistent ? "CONSISTENT" : "VIOLATED");
  return out.str();
}

void AuditLog::push_locked(AuditEvent&& event) {
  event.index = static_cast<std::uint64_t>(size_++);
  const std::size_t chunk = head_ / kChunkEvents;
  const std::size_t slot = head_ % kChunkEvents;
  // Positions are used in ring order, so a position not yet constructed is
  // always the next one of the last chunk (or the first of a new one).
  if (chunk == chunks_.size()) chunks_.emplace_back().reserve(kChunkEvents);
  auto& events = chunks_[chunk];
  if (slot == events.size()) {
    events.push_back(std::move(event));
  } else {
    events[slot] = std::move(event);
  }
  head_ = (head_ + 1) % kRetainedEvents;
  if (retained_ < kRetainedEvents) ++retained_;
}

std::uint64_t AuditLog::append_event(AuditEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (event.type == AuditEventType::kMint) {
    minted_epsilon_ += event.epsilon.value();
  } else if (event.type == AuditEventType::kRecovery) {
    recovered_epsilon_ += event.epsilon.value();
  }
  push_locked(std::move(event));
  return static_cast<std::uint64_t>(size_ - 1);
}

std::size_t AuditLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return size_;
}

std::size_t AuditLog::first_retained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return size_ - retained_;
}

std::vector<AuditEvent> AuditLog::events_snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<AuditEvent> events;
  events.reserve(retained_);
  const auto copy = [&events](const AuditEvent& event) {
    events.push_back(event);
  };
  for_each_locked(copy);
  return events;
}

std::string AuditLog::to_jsonl() const {
  std::ostringstream out;
  out.precision(kDoubleDigits);
  std::lock_guard<std::mutex> lock(mutex_);
  if (const std::size_t dropped = size_ - retained_; dropped > 0) {
    out << "{\"type\": \"window\", \"dropped_events\": " << dropped
        << ", \"minted_epsilon\": " << minted_epsilon_
        << ", \"recovered_epsilon\": " << recovered_epsilon_ << "}\n";
  }
  const auto line = [&out](const AuditEvent& event) {
    append_event_json(out, event);
    out << "\n";
  };
  for_each_locked(line);
  return out.str();
}

AuditReconciliation AuditLog::reconcile(const Ledger& ledger) const {
  AuditReconciliation result;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    result.minted_epsilon = minted_epsilon_;
    result.recovered_epsilon = recovered_epsilon_;
  }
  // Read after the timeline lock is released: the ledger appends to this
  // log while holding its own lock, so taking them in the other order
  // here would invert the lock order.
  result.ledger_epsilon = ledger.total_epsilon().value();
  result.discrepancy = std::abs(
      result.ledger_epsilon -
      (result.minted_epsilon + result.recovered_epsilon));
  // The same fp-rounding tolerance the recovery conservation audit uses: the
  // terms are sums of the identical doubles, so anything beyond rounding is
  // a genuine accounting hole, not noise.
  result.consistent =
      result.discrepancy <=
      1e-9 * (1.0 + result.ledger_epsilon + result.minted_epsilon +
              result.recovered_epsilon);
  return result;
}

void AuditLog::append_all(AuditLog& other) {
  std::scoped_lock lock(mutex_, other.mutex_);
  if (const std::size_t dropped = other.size_ - other.retained_; dropped > 0) {
    // `other`'s window is full, so its retained events push every event of
    // this log's own out of the window: skip the indices it dropped.
    size_ += dropped;
    retained_ = 0;
  }
  for (std::size_t i = 0; i < other.retained_; ++i) {
    push_locked(std::move(other.slot_locked(other.position_locked(i))));
  }
  minted_epsilon_ += other.minted_epsilon_;
  recovered_epsilon_ += other.recovered_epsilon_;
  other.chunks_.clear();
  other.size_ = other.retained_ = other.head_ = 0;
  other.minted_epsilon_ = other.recovered_epsilon_ = 0.0;
}

}  // namespace prc::market
