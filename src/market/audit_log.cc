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
  if (chunks_.empty() || chunks_.back().size() == kChunkEvents) {
    chunks_.emplace_back().reserve(kChunkEvents);
  }
  event.index = static_cast<std::uint64_t>(size_++);
  chunks_.back().push_back(std::move(event));
}

std::uint64_t AuditLog::append_event(AuditEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  push_locked(std::move(event));
  return static_cast<std::uint64_t>(size_ - 1);
}

std::size_t AuditLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return size_;
}

std::vector<AuditEvent> AuditLog::events_snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<AuditEvent> events;
  events.reserve(size_);
  for (const auto& chunk : chunks_) {
    events.insert(events.end(), chunk.begin(), chunk.end());
  }
  return events;
}

std::string AuditLog::to_jsonl() const {
  std::ostringstream out;
  out.precision(kDoubleDigits);
  for_each_event([&out](const AuditEvent& event) {
    append_event_json(out, event);
    out << "\n";
  });
  return out.str();
}

AuditReconciliation AuditLog::reconcile(const Ledger& ledger) const {
  AuditReconciliation result;
  for_each_event([&result](const AuditEvent& event) {
    if (event.type == AuditEventType::kMint) {
      result.minted_epsilon += event.epsilon.value();
    } else if (event.type == AuditEventType::kRecovery) {
      result.recovered_epsilon += event.epsilon.value();
    }
  });
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
  for (auto& chunk : other.chunks_) {
    for (auto& event : chunk) push_locked(std::move(event));
  }
  other.chunks_.clear();
  other.size_ = 0;
}

}  // namespace prc::market
