// Privacy-budget audit timeline: JSONL export shape, live reconciliation
// (Sigma mint epsilon' == ledger released epsilon'), refusal accounting,
// under-count detection for an unrecovered crash, and a chaos sweep proving
// the recovered timeline reconciles at EVERY registered sell-path crash
// point.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/crash_point.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "data/partition.h"
#include "iot/network.h"
#include "market/audit_log.h"
#include "market/broker.h"
#include "market/wal.h"

namespace prc::market {

/// Reads where the log keeps a record, so a test can check that appends
/// never move one.
class AuditLogTestPeer {
 public:
  static const void* record_address(const AuditLog& log, std::size_t offset) {
    std::lock_guard<std::mutex> lock(log.mutex_);
    return &log.slot_locked(log.position_locked(offset));
  }
};

namespace {

constexpr std::size_t kNodes = 4;
constexpr std::size_t kTotal = 4000;
const query::RangeQuery kRange{100.5, 3000.5};
const query::AccuracySpec kSpec{0.1, 0.6};

std::vector<std::vector<double>> node_data() {
  std::vector<double> values(kTotal);
  for (std::size_t i = 0; i < kTotal; ++i) values[i] = static_cast<double>(i);
  Rng rng(3);
  return data::partition_values(values, kNodes,
                                data::PartitionStrategy::kRoundRobin, rng);
}

pricing::VarianceModel variance_model() {
  return pricing::VarianceModel(kTotal, kNodes);
}

std::unique_ptr<pricing::PricingFunction> safe_pricing() {
  return std::make_unique<pricing::InverseVariancePricing>(
      variance_model(), query::AccuracySpec{0.1, 0.5}, 100.0, 1.0);
}

std::string wal_path_for(const std::string& point) {
  std::string name = point;
  std::replace(name.begin(), name.end(), '.', '_');
  return ::testing::TempDir() + "prc_audit_" + name + ".wal";
}

struct BrokerRig {
  explicit BrokerRig(BrokerConfig config = {})
      : network(node_data()),
        counter(network),
        broker(counter, safe_pricing(), config) {}

  iot::FlatNetwork network;
  dp::PrivateRangeCounter counter;
  DataBroker broker;
};

BrokerConfig chaos_config() {
  BrokerConfig config;
  config.wal_checkpoint_interval = 1;  // checkpoints on the swept path
  return config;
}

std::size_t count_events(const std::vector<AuditEvent>& events,
                         AuditEventType type) {
  std::size_t count = 0;
  for (const auto& event : events) {
    if (event.type == type) ++count;
  }
  return count;
}

TEST(AuditLogTest, JsonlShapeAndDenseIndices) {
  BrokerRig rig;
  rig.broker.quote(kSpec);
  rig.broker.sell("alice", kRange, kSpec);

  const auto events = rig.broker.audit_log().events_snapshot();
  ASSERT_GE(events.size(), 4u);  // quote, reserve, mint, commit at least
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].index, i);  // dense, append-ordered
  }
  EXPECT_EQ(count_events(events, AuditEventType::kQuote), 1u);
  EXPECT_EQ(count_events(events, AuditEventType::kReserve), 1u);
  EXPECT_EQ(count_events(events, AuditEventType::kMint), 1u);
  EXPECT_EQ(count_events(events, AuditEventType::kCommit), 1u);

  const std::string jsonl = rig.broker.audit_log().to_jsonl();
  std::size_t lines = 0;
  std::size_t typed = 0;
  std::size_t pos = 0;
  while (pos < jsonl.size()) {
    const auto end = jsonl.find('\n', pos);
    ASSERT_NE(end, std::string::npos) << "unterminated JSONL line";
    const std::string line = jsonl.substr(pos, end - pos);
    EXPECT_EQ(line.rfind("{\"index\": ", 0), 0u) << line;
    EXPECT_EQ(line.back(), '}') << line;
    // Every AuditEvent field is printed, so two events that differ in any
    // field print different lines.
    for (const char* key :
         {"\"degraded\": ", "\"consumer\": ", "\"lower\": ", "\"upper\": ",
          "\"alpha\": ", "\"delta\": ", "\"epsilon\": ", "\"price\": ",
          "\"wal_sequence\": ", "\"ledger_sequence\": ", "\"coverage\": ",
          "\"detail\": "}) {
      EXPECT_NE(line.find(key), std::string::npos) << key << " in " << line;
    }
    if (line.find("\"type\": \"") != std::string::npos) ++typed;
    ++lines;
    pos = end + 1;
  }
  EXPECT_EQ(lines, events.size());
  EXPECT_EQ(typed, events.size());

  // coverage and degraded print their values.
  AuditLog log;
  AuditEvent degraded;
  degraded.type = AuditEventType::kCommit;
  degraded.degraded = true;
  degraded.coverage = 0.625;
  log.append_event(degraded);
  const std::string line = log.to_jsonl();
  EXPECT_NE(line.find("\"degraded\": true"), std::string::npos) << line;
  EXPECT_NE(line.find("\"coverage\": 0.625"), std::string::npos) << line;
  EXPECT_NE(jsonl.find("\"degraded\": false"), std::string::npos) << jsonl;
}

TEST(AuditLogTest, JsonlEscapesControlCharactersInConsumerIds) {
  // Consumer ids come from outside the program; every byte must survive
  // as a JSON escape, not be dropped or leave the line invalid.
  AuditLog log;
  AuditEvent sale;
  sale.type = AuditEventType::kCommit;
  sale.consumer_id = "id\x01with\nbreak";
  sale.detail = "tab\there";
  log.append_event(sale);
  const std::string line = log.to_jsonl();
  EXPECT_NE(line.find("\"consumer\": \"id\\u0001with\\nbreak\""),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"detail\": \"tab\\there\""), std::string::npos)
      << line;
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  for (std::size_t i = 0; i + 1 < line.size(); ++i) {
    EXPECT_GE(static_cast<unsigned char>(line[i]), 0x20) << "byte " << i;
  }
}

TEST(AuditLogTest, ChunkedTimelineKeepsOrderAcrossChunkBoundaries) {
  // Past two chunk boundaries and then past the wrap: indices stay dense,
  // every reader walks the chunks in append order, and no append moves a
  // record the ring keeps.
  const std::size_t count = 2 * AuditLog::kChunkEvents + 3;
  AuditLog log;
  const void* first = nullptr;
  for (std::size_t i = 0; i < count; ++i) {
    AuditEvent event;
    event.type = i % 2 == 0 ? AuditEventType::kQuote : AuditEventType::kRefusal;
    event.price = static_cast<double>(i);
    event.detail = "event " + std::to_string(i);
    EXPECT_EQ(log.append_event(std::move(event)), i);
    if (i == 0) first = AuditLogTestPeer::record_address(log, 0);
  }
  ASSERT_EQ(log.size(), count);
  EXPECT_EQ(AuditLogTestPeer::record_address(log, 0), first)
      << "an append moved event 0's record";

  std::size_t visited = 0;
  log.for_each_event([&](const AuditEvent& event) {
    EXPECT_EQ(event.index, visited);
    EXPECT_DOUBLE_EQ(event.price, static_cast<double>(visited));
    ++visited;
  });
  EXPECT_EQ(visited, count);

  const auto events = log.events_snapshot();
  ASSERT_EQ(events.size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(events[i].index, i);
    EXPECT_EQ(events[i].detail, "event " + std::to_string(i));
  }

  const std::string jsonl = log.to_jsonl();
  std::size_t line = 0;
  for (std::size_t pos = 0; pos < jsonl.size(); ++line) {
    const auto end = jsonl.find('\n', pos);
    ASSERT_NE(end, std::string::npos);
    const std::string text = jsonl.substr(pos, end - pos);
    const std::string number = std::to_string(line);
    EXPECT_EQ(text.rfind("{\"index\": " + number + ",", 0), 0u) << text;
    EXPECT_NE(text.find("\"detail\": \"event " + number + "\""),
              std::string::npos)
        << text;
    pos = end + 1;
  }
  EXPECT_EQ(line, count);

  // append_all re-indexes the moved events after the receiver's own and
  // leaves the source empty and reusable from index 0.
  AuditLog receiver;
  for (int i = 0; i < 5; ++i) receiver.append_event(AuditEvent{});
  receiver.append_all(log);
  EXPECT_EQ(log.size(), 0u);
  const auto merged = receiver.events_snapshot();
  ASSERT_EQ(merged.size(), 5 + count);
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].index, i);
    if (i >= 5) {
      EXPECT_EQ(merged[i].detail, "event " + std::to_string(i - 5));
    }
  }
  EXPECT_EQ(log.append_event(AuditEvent{}), 0u);
  EXPECT_EQ(receiver.append_event(AuditEvent{}), 5 + count);

  // Across the wrap: the record of a retained event stays where it is
  // while the ring overwrites older ones, and keeps its content.
  AuditLog ring;
  const std::size_t wrapped = AuditLog::kRetainedEvents + 7;
  for (std::size_t i = 0; i < wrapped; ++i) {
    AuditEvent event;
    event.price = static_cast<double>(i);
    event.detail = "event " + std::to_string(i);
    ring.append_event(std::move(event));
  }
  // Far enough from the oldest to survive the appends below, which cross
  // a chunk boundary.
  const std::size_t kept = AuditLog::kChunkEvents + 10;
  const std::size_t held = ring.first_retained() + kept;
  const void* address = AuditLogTestPeer::record_address(ring, kept);
  for (std::size_t i = 0; i < AuditLog::kChunkEvents + 3; ++i) {
    ring.append_event(AuditEvent{});
  }
  const std::size_t offset = held - ring.first_retained();
  EXPECT_EQ(AuditLogTestPeer::record_address(ring, offset), address)
      << "an append moved event " << held << "'s record";
  std::size_t next = ring.first_retained();
  ring.for_each_event([&next, held](const AuditEvent& event) {
    EXPECT_EQ(event.index, next);
    if (next == held) {
      EXPECT_EQ(event.price, static_cast<double>(held));
      EXPECT_EQ(event.detail, "event " + std::to_string(held));
    }
    ++next;
  });
  EXPECT_EQ(next, ring.size());
}

// Bits of a double, so a running sum can be compared with the walk it
// replaced exactly, not within a tolerance.
std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// The event mix of a long broker life: mints and recoveries carry the
/// epsilon' reconcile() sums, commits and refusals carry epsilon' it must
/// not sum.
AuditEvent mixed_event(std::size_t i) {
  AuditEvent event;
  constexpr AuditEventType kTypes[] = {
      AuditEventType::kMint, AuditEventType::kCommit,
      AuditEventType::kRefusal, AuditEventType::kRecovery};
  event.type = kTypes[i % 4];
  event.epsilon = 1e-3 * static_cast<double>(1 + i % 7) +
                  1e-9 * static_cast<double>(i);
  event.detail = "event " + std::to_string(i);
  return event;
}

TEST(AuditLogTest, WindowKeepsTheNewestEventsAndReconcilesTheWholeLife) {
  constexpr std::size_t kWindow = AuditLog::kRetainedEvents;
  const std::size_t count = kWindow + AuditLog::kChunkEvents + 5;
  AuditLog log;
  double minted = 0.0;
  double recovered = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    AuditEvent event = mixed_event(i);
    if (event.type == AuditEventType::kMint) minted += event.epsilon.value();
    if (event.type == AuditEventType::kRecovery) {
      recovered += event.epsilon.value();
    }
    ASSERT_EQ(log.append_event(std::move(event)), i);
    if (i + 1 == kWindow) {
      // Full but nothing dropped: the export has no window header.
      EXPECT_EQ(log.first_retained(), 0u);
      EXPECT_EQ(log.to_jsonl().rfind("{\"index\": 0,", 0), 0u);
    }
  }

  // size() is every event ever appended; the window is the newest ones.
  EXPECT_EQ(log.size(), count);
  const std::size_t first = count - kWindow;
  EXPECT_EQ(log.first_retained(), first);
  std::size_t next = first;
  log.for_each_event([&next](const AuditEvent& event) {
    EXPECT_EQ(event.index, next);
    EXPECT_EQ(event.detail, "event " + std::to_string(next));
    ++next;
  });
  EXPECT_EQ(next, count);
  const auto events = log.events_snapshot();
  ASSERT_EQ(events.size(), kWindow);
  EXPECT_EQ(events.front().index, first);
  EXPECT_EQ(events.back().index, count - 1);

  // reconcile() reads running sums kept in append order: bit for bit the
  // walk over every event, the dropped ones included.
  const Ledger empty;
  const auto result = log.reconcile(empty);
  EXPECT_EQ(bits(result.minted_epsilon), bits(minted));
  EXPECT_EQ(bits(result.recovered_epsilon), bits(recovered));

  // The export opens with the window header, then the retained events.
  const std::string jsonl = log.to_jsonl();
  const auto header_end = jsonl.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  const std::string header = jsonl.substr(0, header_end);
  EXPECT_EQ(header.rfind("{\"type\": \"window\", \"dropped_events\": " +
                             std::to_string(first) + ",",
                         0),
            0u)
      << header;
  EXPECT_NE(header.find("\"minted_epsilon\": "), std::string::npos) << header;
  EXPECT_NE(header.find("\"recovered_epsilon\": "), std::string::npos)
      << header;
  const std::string first_line = "{\"index\": " + std::to_string(first) + ",";
  EXPECT_EQ(jsonl.compare(header_end + 1, first_line.size(), first_line), 0);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(jsonl.begin(), jsonl.end(), '\n')),
            kWindow + 1);

  // append_all onto a log with events of its own: the dropped indices
  // advance the receiver's count, the receiver's own events leave the
  // window, and the running sums travel with the events.
  AuditLog receiver;
  for (int i = 0; i < 5; ++i) receiver.append_event(AuditEvent{});
  receiver.append_all(log);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.first_retained(), 0u);
  EXPECT_EQ(receiver.size(), 5 + count);
  EXPECT_EQ(receiver.first_retained(), 5 + first);
  next = 5 + first;
  receiver.for_each_event([&next](const AuditEvent& event) {
    EXPECT_EQ(event.index, next);
    EXPECT_EQ(event.detail, "event " + std::to_string(next - 5));
    ++next;
  });
  EXPECT_EQ(next, 5 + count);
  const auto moved = receiver.reconcile(empty);
  EXPECT_EQ(bits(moved.minted_epsilon), bits(minted));
  EXPECT_EQ(bits(moved.recovered_epsilon), bits(recovered));
  EXPECT_EQ(receiver.append_event(AuditEvent{}), 5 + count);
  EXPECT_EQ(receiver.first_retained(), 6 + first);
  EXPECT_EQ(log.append_event(AuditEvent{}), 0u);
  EXPECT_EQ(log.to_jsonl().rfind("{\"index\": 0,", 0), 0u);
}

// The JSONL line of one event, written out here so the tests pin the
// export's bytes rather than reuse its code.
std::string reference_line(const AuditEvent& event) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "{\"index\": " << event.index << ", \"type\": \""
      << audit_event_type_name(event.type) << "\", \"degraded\": "
      << (event.degraded ? "true" : "false") << ", \"consumer\": \""
      << json_escape(event.consumer_id) << "\", \"lower\": " << event.lower
      << ", \"upper\": " << event.upper << ", \"alpha\": "
      << event.alpha.value() << ", \"delta\": " << event.delta.value()
      << ", \"epsilon\": " << event.epsilon.value() << ", \"price\": "
      << event.price << ", \"wal_sequence\": " << event.wal_sequence
      << ", \"ledger_sequence\": " << event.ledger_sequence
      << ", \"coverage\": " << event.coverage << ", \"detail\": \""
      << json_escape(event.detail) << "\"}\n";
  return out.str();
}

/// The plain timeline the ring must agree with: every event appended, the
/// newest kRetainedEvents of them kept in a deque, and the running sums.
struct ReferenceWindow {
  std::deque<AuditEvent> events;
  std::uint64_t appended = 0;
  double minted = 0.0;
  double recovered = 0.0;

  void append(AuditEvent event) {
    event.index = appended++;
    if (event.type == AuditEventType::kMint) minted += event.epsilon.value();
    if (event.type == AuditEventType::kRecovery) {
      recovered += event.epsilon.value();
    }
    events.push_back(std::move(event));
    if (events.size() > AuditLog::kRetainedEvents) events.pop_front();
  }

  std::vector<AuditEvent> snapshot() const {
    return {events.begin(), events.end()};
  }

  std::string jsonl() const {
    std::ostringstream out;
    out.precision(std::numeric_limits<double>::max_digits10);
    if (const std::uint64_t dropped = appended - events.size(); dropped > 0) {
      out << "{\"type\": \"window\", \"dropped_events\": " << dropped
          << ", \"minted_epsilon\": " << minted
          << ", \"recovered_epsilon\": " << recovered << "}\n";
    }
    for (const auto& event : events) out << reference_line(event);
    return out.str();
  }
};

/// A seeded event of any type, with strings of every storage shape and
/// doubles that print unusually (-0.0, subnormals).
class EventMix {
 public:
  explicit EventMix(std::uint64_t seed) : rng_(seed) {}

  AuditEvent next() {
    static const std::string kConsumers[] = {
        "", "alice", "consumer-1234", "a-consumer-id-longer-than-sso",
        "id\x01with\nbreak\x7f"};
    static const std::string kDetails[] = {
        "", "final plan admitted; noise draw follows",
        "consumer already at the per-consumer epsilon cap",
        "projected plan does not fit under the epsilon cap",
        "final plan exceeds reservation and the cap refused the extension",
        "cache coverage below the broker floor",
        "coverage cannot support the contract; policy is refuse",
        "degraded coverage below the broker floor",
        "repricing impossible: some node never reported",
        "degraded sale (repriced contract)", "tab\there \"quoted\""};
    AuditEvent event;
    event.type = static_cast<AuditEventType>(pick(8));
    event.degraded = event.type == AuditEventType::kCommit && pick(3) == 0;
    event.consumer_id = pick(8) == 0 ? "unique consumer " + std::to_string(n_)
                                     : kConsumers[pick(std::size(kConsumers))];
    event.detail = pick(8) == 0 ? "free text " + std::to_string(n_)
                                : kDetails[pick(std::size(kDetails))];
    event.lower = value();
    event.upper = value();
    event.alpha = value();
    event.delta = value();
    event.epsilon = value();
    event.price = value();
    event.coverage = value();
    event.wal_sequence = pick(4) == 0 ? 0 : rng_();
    event.ledger_sequence =
        pick(4) == 0 ? std::numeric_limits<std::uint64_t>::max() : n_;
    ++n_;
    return event;
  }

 private:
  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }
  double value() {
    switch (pick(5)) {
      case 0: return -0.0;
      case 1:
        return std::numeric_limits<double>::denorm_min() *
               static_cast<double>(1 + pick(1000));
      case 2: return 0.0;
      default: return rng_.uniform(-1e6, 1e6);
    }
  }

  Rng rng_;
  std::size_t n_ = 0;
};

void expect_matches(const AuditLog& log, const ReferenceWindow& reference) {
  EXPECT_EQ(log.size(), reference.appended);
  EXPECT_EQ(log.first_retained(), reference.appended - reference.events.size());
  EXPECT_TRUE(log.events_snapshot() == reference.snapshot());
  EXPECT_TRUE(log.to_jsonl() == reference.jsonl());
}

TEST(AuditLogTest, RingMatchesAReferenceWindowThroughTwoWraps) {
  AuditLog log;
  ReferenceWindow reference;
  EventMix mix(20261019);
  const std::size_t count = 2 * AuditLog::kRetainedEvents + 1234;
  for (std::size_t i = 0; i < count; ++i) {
    AuditEvent event = mix.next();
    reference.append(event);
    ASSERT_EQ(log.append_event(std::move(event)), i);
    if (i + 1 == AuditLog::kChunkEvents + 5 ||
        i + 1 == AuditLog::kRetainedEvents + 17 || i + 1 == count) {
      SCOPED_TRACE("after " + std::to_string(i + 1) + " events");
      expect_matches(log, reference);
    }
  }
  std::vector<AuditEvent> visited;
  log.for_each_event(
      [&visited](const AuditEvent& event) { visited.push_back(event); });
  EXPECT_TRUE(visited == reference.snapshot());

  // append_all onto a receiver with a window of its own (whose strings
  // take other ids there): first a source that has dropped nothing, then
  // the wrapped log, which pushes the receiver's own events out.
  AuditLog receiver;
  ReferenceWindow expected;
  EventMix other_mix(7);
  for (int i = 0; i < 100; ++i) {
    AuditEvent event = other_mix.next();
    expected.append(event);
    receiver.append_event(std::move(event));
  }
  AuditLog small;
  for (int i = 0; i < 300; ++i) {
    AuditEvent event = other_mix.next();
    expected.append(event);
    small.append_event(std::move(event));
  }
  receiver.append_all(small);
  {
    SCOPED_TRACE("append_all of an unwrapped log");
    expect_matches(receiver, expected);
  }
  expected.appended += reference.appended - reference.events.size();
  for (const auto& event : reference.events) expected.append(event);
  expected.minted += reference.minted;
  expected.recovered += reference.recovered;
  receiver.append_all(log);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.to_jsonl(), "");
  {
    SCOPED_TRACE("append_all of a wrapped log");
    ASSERT_EQ(expected.events.size(), AuditLog::kRetainedEvents);
    EXPECT_TRUE(receiver.events_snapshot() == expected.snapshot());
    // The running sums add in a different order, so compare the events
    // past the window header only.
    const std::string jsonl = receiver.to_jsonl();
    const std::string reference_jsonl = expected.jsonl();
    EXPECT_TRUE(jsonl.substr(jsonl.find('\n')) ==
                reference_jsonl.substr(reference_jsonl.find('\n')));
  }
}

TEST(AuditLogTest, DistinctIdsAndTextsExportBeforeAndAfterTheWrap) {
  AuditLog log;
  ReferenceWindow reference;
  constexpr std::size_t kDistinct = 70000;
  static_assert(kDistinct > AuditLog::kRetainedEvents);
  for (std::size_t i = 0; i < kDistinct; ++i) {
    AuditEvent event;
    event.type = AuditEventType::kCommit;
    event.consumer_id = "consumer-" + std::to_string(i);
    event.detail = "distinct free text number " + std::to_string(i);
    event.ledger_sequence = i;
    reference.append(event);
    log.append_event(std::move(event));
    if (i + 1 == AuditLog::kRetainedEvents || i + 1 == kDistinct) {
      SCOPED_TRACE("after " + std::to_string(i + 1) + " events");
      expect_matches(log, reference);
    }
  }
  // A type byte outside the enum is kept as it was appended.
  AuditEvent odd;
  odd.type = static_cast<AuditEventType>(200);
  reference.append(odd);
  log.append_event(odd);
  expect_matches(log, reference);
}

TEST(AuditLogTest, InternTableGivesDenseIdsAndRefusesPastItsLimit) {
  InternTable table("test table", 3);
  EXPECT_EQ(table.intern(""), 0u);
  EXPECT_EQ(table.intern("a"), 1u);
  EXPECT_EQ(table.intern("a"), 1u);
  EXPECT_EQ(table.intern("b"), 2u);
  EXPECT_EQ(table.intern("a"), 1u);
  EXPECT_EQ(table.intern("a string longer than the sso buffer"), 3u);
  EXPECT_EQ(table.intern(""), 0u);
  EXPECT_EQ(table.text(0), "");
  EXPECT_EQ(table.text(2), "b");
  // A refused string is not stored: asking again fails again.
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      table.intern("c");
      ADD_FAILURE() << "interning past the id limit did not fail";
    } catch (const ContractViolation& violation) {
      EXPECT_NE(std::string(violation.what()).find("test table"),
                std::string::npos)
          << violation.what();
    }
  }
  // The strings it already holds keep their ids.
  EXPECT_EQ(table.intern("b"), 2u);
  EXPECT_EQ(table.text(3), "a string longer than the sso buffer");
  table.clear();
  EXPECT_EQ(table.intern("c"), 1u);
  EXPECT_EQ(table.intern("a"), 2u);
}

TEST(AuditLogTest, ConcurrentAppendsAndReadersSeeOneWindow) {
  // Four writers append events of distinct consumers while a reader
  // exports the window: every snapshot is dense and in index order, and
  // each writer's events keep their order and content.
  constexpr int kWriters = 4;
  constexpr std::size_t kPerWriter = AuditLog::kRetainedEvents / 4 + 500;
  AuditLog log;
  const auto check = [](const AuditEvent& event) {
    const auto writer = static_cast<std::size_t>(event.wal_sequence);
    EXPECT_EQ(event.consumer_id, "writer-" + std::to_string(writer) +
                                     "-consumer-" +
                                     std::to_string(event.ledger_sequence));
  };
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&log, w] {
      for (std::size_t i = 0; i < kPerWriter; ++i) {
        AuditEvent event;
        event.type = AuditEventType::kCommit;
        event.consumer_id = "writer-" + std::to_string(w) + "-consumer-" +
                            std::to_string(i);
        event.wal_sequence = static_cast<std::uint64_t>(w);
        event.ledger_sequence = i;
        if (i % 3 == 0) event.detail = "final plan admitted; noise draw follows";
        log.append_event(std::move(event));
      }
    });
  }
  int reads = 0;
  while (reads < 2 || log.size() < kWriters * kPerWriter) {
    const auto events = log.events_snapshot();
    for (std::size_t i = 1; i < events.size(); ++i) {
      EXPECT_EQ(events[i].index, events[i - 1].index + 1);
    }
    for (const auto& event : events) check(event);
    const std::string jsonl = log.to_jsonl();
    EXPECT_TRUE(jsonl.empty() || jsonl.back() == '\n');
    ++reads;
  }
  for (auto& writer : writers) writer.join();
  std::uint64_t next[kWriters] = {};
  const auto events = log.events_snapshot();
  ASSERT_EQ(events.size(), AuditLog::kRetainedEvents);
  EXPECT_EQ(events.back().index, kWriters * kPerWriter - 1);
  for (const auto& event : events) {
    check(event);
    auto& expected = next[event.wal_sequence];
    if (expected != 0) {
      EXPECT_EQ(event.ledger_sequence, expected);
    }
    expected = event.ledger_sequence + 1;
  }
}

TEST(AuditLogTest, LedgerListsTheRetainedSalesAndCountsThemAll) {
  // Each sale appends reserve, mint and commit; every 16th consumer is
  // refused first.  Enough sales to drop well past a chunk.
  constexpr std::size_t kSales = AuditLog::kRetainedEvents / 3 + 5000;
  const query::RangeQuery range{1.0, 2.0};
  Ledger ledger;
  for (std::size_t i = 0; i < kSales; ++i) {
    const std::string id = "consumer-" + std::to_string(i % 64);
    const double epsilon = 1e-4 * static_cast<double>(1 + i % 5);
    if (i % 16 == 0) ledger.refuse(id, range, kSpec, epsilon, "test refusal");
    auto reservation = ledger.try_reserve(id, epsilon, 1e9, range, kSpec);
    ASSERT_TRUE(reservation.has_value());
    ledger.mint(id, range, kSpec, epsilon, 0);
    ledger.commit(std::move(*reservation),
                  {0, id, range, kSpec, 2.0, epsilon});
  }
  ASSERT_GT(ledger.timeline().first_retained(), 0u);
  EXPECT_EQ(ledger.transaction_count(), kSales);

  // Only the commits still in the window, newest last and in order.
  std::size_t retained_commits = 0;
  ledger.timeline().for_each_event([&](const AuditEvent& event) {
    if (event.type == AuditEventType::kCommit) ++retained_commits;
  });
  const auto transactions = ledger.transactions_snapshot();
  ASSERT_EQ(transactions.size(), retained_commits);
  ASSERT_LT(transactions.size(), kSales);
  for (std::size_t i = 0; i < transactions.size(); ++i) {
    EXPECT_EQ(transactions[i].sequence, kSales - transactions.size() + i);
  }

  const auto live = ledger.timeline().reconcile(ledger);
  EXPECT_TRUE(live.consistent) << live.to_string();
  EXPECT_EQ(bits(live.minted_epsilon), bits(live.ledger_epsilon));

  // adopt() moves the windowed timeline whole: same indices, same sums.
  const std::size_t size = ledger.timeline().size();
  const std::size_t first = ledger.timeline().first_retained();
  const auto events = ledger.timeline().events_snapshot();
  Ledger adopted;
  adopted.adopt(ledger);
  EXPECT_EQ(ledger.timeline().size(), 0u);
  EXPECT_EQ(adopted.timeline().size(), size);
  EXPECT_EQ(adopted.timeline().first_retained(), first);
  EXPECT_EQ(adopted.timeline().events_snapshot(), events);
  EXPECT_EQ(adopted.transaction_count(), kSales);
  EXPECT_EQ(adopted.transactions_snapshot().size(), transactions.size());
  const auto moved = adopted.timeline().reconcile(adopted);
  EXPECT_TRUE(moved.consistent) << moved.to_string();
  EXPECT_EQ(bits(moved.minted_epsilon), bits(live.minted_epsilon));
  EXPECT_EQ(bits(moved.ledger_epsilon), bits(live.ledger_epsilon));
}

TEST(AuditLogTest, LiveBrokerReconcilesExactly) {
  BrokerRig rig;
  rig.broker.sell("alice", kRange, kSpec);
  rig.broker.sell("bob", kRange, kSpec);
  rig.broker.sell("alice", kRange, kSpec);

  const auto result = rig.broker.audit_log().reconcile(rig.broker.ledger());
  EXPECT_TRUE(result.consistent) << result.to_string();
  EXPECT_GT(result.minted_epsilon, 0.0);
  EXPECT_NEAR(result.recovered_epsilon, 0.0, 0.0);
  EXPECT_NEAR(result.minted_epsilon, result.ledger_epsilon,
              1e-9 * (1.0 + result.ledger_epsilon));
  EXPECT_NE(result.to_string().find("CONSISTENT"), std::string::npos);
}

TEST(AuditLogTest, RefusalRecordsAttemptedEpsilonWithoutSpendingIt) {
  BrokerConfig config;
  config.per_consumer_epsilon_cap = 0.02;
  BrokerRig rig(config);
  rig.broker.sell("warmup", kRange, kSpec);  // warms the plan cache

  bool refused = false;
  try {
    for (int i = 0; i < 64; ++i) rig.broker.sell("alice", kRange, kSpec);
  } catch (const BudgetExceededError&) {
    refused = true;
  }
  ASSERT_TRUE(refused) << "the 0.02 cap never bit in 64 sales";

  const auto events = rig.broker.audit_log().events_snapshot();
  const auto refusal =
      std::find_if(events.begin(), events.end(), [](const AuditEvent& e) {
        return e.type == AuditEventType::kRefusal;
      });
  ASSERT_NE(refusal, events.end());
  EXPECT_EQ(refusal->consumer_id, "alice");
  EXPECT_GT(refusal->epsilon.value(), 0.0);  // attempted, recorded
  EXPECT_FALSE(refusal->detail.empty());

  // Refusals spend nothing: the books still balance without them.
  const auto result = rig.broker.audit_log().reconcile(rig.broker.ledger());
  EXPECT_TRUE(result.consistent) << result.to_string();
}

TEST(AuditLogTest, UnrecoveredCrashAfterMintFailsReconciliation) {
  // No WAL: the mechanism dies after the mint barrier admitted the plan
  // (epsilon committed-to) but before the ledger recorded it.  The audit
  // timeline must EXPOSE that hole, not paper over it.
  auto& registry = crashpoints::Registry::instance();
  registry.disarm_all();
  BrokerRig rig;
  rig.broker.sell("alice", kRange, kSpec);
  registry.arm("dp.post_mint");
  EXPECT_THROW(rig.broker.sell("bob", kRange, kSpec),
               crashpoints::SimulatedCrash);
  registry.disarm_all();

  const auto result = rig.broker.audit_log().reconcile(rig.broker.ledger());
  EXPECT_FALSE(result.consistent) << result.to_string();
  EXPECT_GT(result.minted_epsilon, result.ledger_epsilon);
  EXPECT_NE(result.to_string().find("VIOLATED"), std::string::npos);
}

TEST(AuditLogTest, RecoveryEventsRebuildTimelineFromWal) {
  auto& registry = crashpoints::Registry::instance();
  registry.disarm_all();
  const auto path = wal_path_for("rebuild");
  std::remove(path.c_str());
  const auto is_intent = [](const AuditEvent& e) {
    return e.type == AuditEventType::kIntent;
  };
  AuditEvent live_intent;  // bob's, on the timeline that dies with the rig
  {
    BrokerRig rig;
    rig.broker.attach_wal(path);
    rig.broker.sell("alice", kRange, kSpec);
    registry.arm("dp.post_mint");
    EXPECT_THROW(rig.broker.sell("bob", kRange, kSpec),
                 crashpoints::SimulatedCrash);
    registry.disarm_all();
    const auto live = rig.broker.audit_log().events_snapshot();
    const auto bob = std::find_if(live.rbegin(), live.rend(), is_intent);
    ASSERT_NE(bob, live.rend());
    ASSERT_EQ(bob->consumer_id, "bob");
    live_intent = *bob;
  }
  const auto recovery = wal::read_wal(path);
  Ledger rebuilt;
  wal::apply_recovery(rebuilt, recovery);
  const auto events = rebuilt.timeline().events_snapshot();
  // Base checkpoint, alice's replayed commit, bob's orphaned intent, and
  // the closing recovery event.
  EXPECT_EQ(count_events(events, AuditEventType::kCheckpoint), 1u);
  EXPECT_EQ(count_events(events, AuditEventType::kCommit), 1u);
  EXPECT_EQ(count_events(events, AuditEventType::kIntent), 1u);
  EXPECT_EQ(count_events(events, AuditEventType::kRecovery), 1u);
  const auto recovered =
      std::find_if(events.begin(), events.end(), [](const AuditEvent& e) {
        return e.type == AuditEventType::kRecovery;
      });
  ASSERT_NE(recovered, events.end());
  EXPECT_GT(recovered->epsilon.value(), 0.0);
  // Bob's orphan is his durable intent as the live ledger folded it; only
  // its timeline index and its orphan detail differ.
  const auto orphan = std::find_if(events.begin(), events.end(), is_intent);
  ASSERT_NE(orphan, events.end());
  EXPECT_NE(orphan->detail, live_intent.detail);
  AuditEvent durable = *orphan;
  durable.index = live_intent.index;
  durable.detail = live_intent.detail;
  EXPECT_TRUE(durable == live_intent);
  std::remove(path.c_str());
}

TEST(AuditLogTest, ChaosSweepReconcilesAtEveryCrashPoint) {
  auto& registry = crashpoints::Registry::instance();
  registry.disarm_all();

  // Discovery pass (same as the chaos harness): one clean WAL-enabled sale
  // plus one recovery registers every sell-path crash point.
  {
    const auto path = wal_path_for("discovery");
    std::remove(path.c_str());
    BrokerRig rig(chaos_config());
    rig.broker.attach_wal(path);
    rig.broker.sell("alice", kRange, kSpec);
    BrokerRig fresh;
    fresh.broker.recover_and_attach_wal(path, variance_model());
    std::remove(path.c_str());
  }

  for (const auto& point : registry.names()) {
    if (point == "wal.pre_compact_rename") continue;  // recovery-side
    SCOPED_TRACE("crash point " + point);
    registry.disarm_all();
    const auto path = wal_path_for(point);
    std::remove(path.c_str());
    {
      BrokerRig rig(chaos_config());
      rig.broker.attach_wal(path);
      rig.broker.sell("alice", kRange, kSpec);
      registry.arm(point);
      try {
        rig.broker.sell("bob", kRange, kSpec);
      } catch (const crashpoints::SimulatedCrash&) {
      }
      registry.disarm_all();
      // The rig dies here; its in-memory audit log dies with it.
    }

    BrokerRig fresh;
    fresh.broker.recover_and_attach_wal(path, variance_model());
    // The rebuilt timeline must balance against the recovered ledger:
    // recovered epsilon' (checkpoint + replayed commits + orphans) is the
    // whole story so far.
    const auto after_recovery =
        fresh.broker.audit_log().reconcile(fresh.broker.ledger());
    EXPECT_TRUE(after_recovery.consistent) << after_recovery.to_string();
    EXPECT_GT(after_recovery.recovered_epsilon, 0.0);

    // And it keeps balancing as the recovered broker trades on: new mints
    // stack on top of the recovered base.
    fresh.broker.sell("carol", kRange, kSpec);
    const auto after_sale =
        fresh.broker.audit_log().reconcile(fresh.broker.ledger());
    EXPECT_TRUE(after_sale.consistent) << after_sale.to_string();
    EXPECT_GT(after_sale.minted_epsilon, 0.0);
    EXPECT_GT(after_sale.ledger_epsilon, after_recovery.recovered_epsilon);
    std::remove(path.c_str());
  }
}

TEST(AuditLogTest, WalAttachmentAndCheckpointsAppearInTimeline) {
  auto& registry = crashpoints::Registry::instance();
  registry.disarm_all();
  const auto path = wal_path_for("timeline");
  std::remove(path.c_str());
  BrokerRig rig(chaos_config());
  rig.broker.attach_wal(path);
  rig.broker.sell("alice", kRange, kSpec);
  const auto events = rig.broker.audit_log().events_snapshot();
  // Seed checkpoint at attach + periodic checkpoint after the commit.
  EXPECT_GE(count_events(events, AuditEventType::kCheckpoint), 2u);
  // The durable intent precedes the mint in append order.
  const auto intent_at =
      std::find_if(events.begin(), events.end(), [](const AuditEvent& e) {
        return e.type == AuditEventType::kIntent;
      });
  const auto mint_at =
      std::find_if(events.begin(), events.end(), [](const AuditEvent& e) {
        return e.type == AuditEventType::kMint;
      });
  ASSERT_NE(intent_at, events.end());
  ASSERT_NE(mint_at, events.end());
  EXPECT_LT(intent_at->index, mint_at->index);
  EXPECT_GT(intent_at->wal_sequence, 0u);
  EXPECT_EQ(intent_at->wal_sequence, mint_at->wal_sequence);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace prc::market
