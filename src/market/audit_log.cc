#include "market/audit_log.h"

#include <cmath>
#include <functional>
#include <iterator>
#include <limits>
#include <sstream>
#include <utility>

#include "common/check.h"
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

// Slots an intern table's index starts with after construction or clear().
constexpr std::size_t kInitialSlots = 16;

std::size_t hash_of(const std::string& text) {
  return std::hash<std::string>{}(text);
}

// The high half of a hash, kept in the slot (the low bits pick the slot).
std::uint32_t tag_of(std::size_t hash) {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(hash) >> 32);
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

InternTable::InternTable(const char* name, std::uint32_t max_id)
    : name_(name), max_id_(max_id) {
  clear();
}

std::uint32_t InternTable::intern(const std::string& text) {
  if (text.empty()) return 0;
  if (text == texts_[last_]) return last_;
  const std::size_t hash = hash_of(text);
  const std::uint32_t tag = tag_of(hash);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask; slots_[i].id != 0; i = (i + 1) & mask) {
    if (slots_[i].tag == tag && texts_[slots_[i].id] == text) {
      return last_ = slots_[i].id;
    }
  }
  PRC_CHECK(texts_.size() <= max_id_)
      << name_ << " table is full: " << max_id_ << " distinct strings";
  const auto id = static_cast<std::uint32_t>(texts_.size());
  texts_.push_back(text);
  if (2 * texts_.size() > slots_.size()) {
    slots_.assign(2 * slots_.size(), Slot{});
    for (std::uint32_t held = 1; held < id; ++held) {
      place(held, hash_of(texts_[held]));
    }
  }
  place(id, hash);
  return last_ = id;
}

void InternTable::place(std::uint32_t id, std::size_t hash) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash & mask;
  while (slots_[i].id != 0) i = (i + 1) & mask;
  slots_[i] = {id, tag_of(hash)};
}

void InternTable::clear() {
  texts_.assign(1, std::string());
  slots_.assign(kInitialSlots, Slot{});
  last_ = 0;
}

void AuditLog::push_locked(const AuditEvent& event) {
  // Interned first: a full table throws before the log changes.
  const Record record{
      consumers_.intern(event.consumer_id),
      static_cast<std::uint8_t>(event.type),
      event.degraded ? 1u : 0u,
      texts_.intern(event.detail) & kMaxTextId,  // intern() checks the limit
      event.lower,
      event.upper,
      event.alpha.value(),
      event.delta.value(),
      event.epsilon.value(),
      event.price,
      event.coverage,
      event.wal_sequence,
      event.ledger_sequence};
  ++size_;
  const std::size_t chunk = head_ / kChunkEvents;
  const std::size_t slot = head_ % kChunkEvents;
  // Positions are used in ring order, so a position not yet constructed is
  // always the next one of the last chunk (or the first of a new one).
  if (chunk == chunks_.size()) chunks_.emplace_back().reserve(kChunkEvents);
  auto& records = chunks_[chunk];
  if (slot == records.size()) {
    records.push_back(record);
  } else {
    records[slot] = record;
  }
  head_ = (head_ + 1) % kRetainedEvents;
  if (retained_ < kRetainedEvents) ++retained_;
}

void AuditLog::materialize_locked(std::size_t offset,
                                  AuditEvent& event) const {
  const Record& record = slot_locked(position_locked(offset));
  event.index = static_cast<std::uint64_t>(size_ - retained_ + offset);
  event.type = static_cast<AuditEventType>(record.type);
  event.degraded = record.degraded != 0;
  event.consumer_id = consumers_.text(record.consumer);
  event.lower = record.lower;
  event.upper = record.upper;
  event.alpha = record.alpha;
  event.delta = record.delta;
  event.epsilon = record.epsilon;
  event.price = record.price;
  event.wal_sequence = record.wal_sequence;
  event.ledger_sequence = record.ledger_sequence;
  event.coverage = record.coverage;
  event.detail = texts_.text(record.text);
}

std::uint64_t AuditLog::append_event(AuditEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  push_locked(event);
  if (event.type == AuditEventType::kMint) {
    minted_epsilon_ += event.epsilon.value();
  } else if (event.type == AuditEventType::kRecovery) {
    recovered_epsilon_ += event.epsilon.value();
  }
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
  std::vector<AuditEvent> events(retained_);
  for (std::size_t i = 0; i < retained_; ++i) {
    materialize_locked(i, events[i]);
  }
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
  AuditEvent event;
  for (std::size_t i = 0; i < other.retained_; ++i) {
    other.materialize_locked(i, event);
    push_locked(event);
  }
  minted_epsilon_ += other.minted_epsilon_;
  recovered_epsilon_ += other.recovered_epsilon_;
  other.chunks_.clear();
  other.consumers_.clear();
  other.texts_.clear();
  other.size_ = other.retained_ = other.head_ = 0;
  other.minted_epsilon_ = other.recovered_epsilon_ = 0.0;
}

}  // namespace prc::market
