// Wire messages of the flat sampling protocol, with a byte-cost model.
//
// The paper's communication claims (expected sample volume n*p; RankCounting
// piggybacks <= 16 samples per node onto heartbeats) are about bytes on the
// wire, so every message carries an explicit wire-size model the simulator
// accounts against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sampling/rank_sample.h"

namespace prc::iot {

/// Fixed per-message framing overhead (addressing, type, sequence, CRC).
inline constexpr std::size_t kMessageHeaderBytes = 20;

/// One transmitted sample: 8-byte value + 8-byte local rank.
inline constexpr std::size_t kSampleWireBytes = 16;

/// Base station -> node: raise your inclusion probability to `target_p` and
/// report the newly selected samples.
struct SampleRequest {
  int node_id = 0;
  double target_p = 0.0;

  std::size_t wire_size() const noexcept {
    return kMessageHeaderBytes + sizeof(double);
  }
};

/// Arrivals section header: base sequence (4) + base sample count (4) +
/// arrival count (4).
inline constexpr std::size_t kArrivalsHeaderBytes = 12;

/// One appended reading's insertion index (u32).
inline constexpr std::size_t kArrivalWireBytes = 4;

/// Node -> base station: newly selected samples plus the node's local data
/// cardinality n_i (a single scalar; the raw data never leaves the node).
///
/// A node that appended readings since its last acknowledged report also
/// sends an arrivals section: for each appended reading, the number of
/// samples the station holds that precede it.  The station shifts its
/// cached ranks by those gaps before merging new_samples (whose ranks are
/// already in the node's new order).  The gaps are exactly what the
/// difference of two full reports would reveal.  The section only applies
/// on top of the cache state it was computed against, which the base
/// sequence and base sample count identify.
struct SampleReport {
  int node_id = 0;
  std::size_t data_count = 0;  // n_i
  std::vector<sampling::RankedValue> new_samples;
  /// Deltas with arrivals the station has accepted from this node since
  /// its last full resync, i.e. the rank epoch the gaps index into
  /// (meaningful only with arrivals).
  std::uint32_t base_sequence = 0;
  /// Samples the station holds for this node (meaningful only with
  /// arrivals).
  std::uint32_t base_samples = 0;
  /// Non-decreasing, each <= base_samples; empty when nothing arrived.
  std::vector<std::uint32_t> arrival_gaps = {};

  bool has_arrivals() const noexcept { return !arrival_gaps.empty(); }

  std::size_t wire_size() const noexcept {
    const std::size_t arrivals =
        has_arrivals()
            ? kArrivalsHeaderBytes + arrival_gaps.size() * kArrivalWireBytes
            : 0;
    return kMessageHeaderBytes + sizeof(std::uint64_t) + arrivals +
           new_samples.size() * kSampleWireBytes;
  }
};

/// Periodic heartbeat.  The paper notes that when a node ships <= 16 samples
/// they can ride along in an ordinary heartbeat at no extra message cost;
/// the simulator models that by not charging a separate header for reports
/// small enough to piggyback.
struct Heartbeat {
  int node_id = 0;

  std::size_t wire_size() const noexcept { return kMessageHeaderBytes; }
};

/// Samples per report message; larger reports are split into multiple frames.
inline constexpr std::size_t kMaxSamplesPerFrame = 64;

/// Reports at or below this many samples piggyback on a heartbeat.
inline constexpr std::size_t kHeartbeatPiggybackSamples = 16;

}  // namespace prc::iot
