// The simulated air interface shared by both network topologies.
//
// A Link owns everything that decides whether a frame gets through: one
// channel RNG stream per node, the seeded FaultSchedule (churn, bursty
// loss, duplication), the i.i.d. frame loss probability and the per-frame
// attempt budget.  Every frame either topology sends goes through the one
// retransmission loop in transmit(), so loss, retries, backoff and the
// dropped-frame budget are charged the same way everywhere.  With
// max_attempts == 0 retransmission is unbounded and every frame is
// delivered; with a bound a frame can be abandoned and the caller's round
// completes partially.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "iot/faults.h"

namespace prc::iot {

/// Byte/message accounting, split by direction.
struct CommunicationStats {
  std::size_t downlink_messages = 0;  // base station -> nodes
  std::size_t downlink_bytes = 0;
  std::size_t uplink_messages = 0;  // nodes -> base station
  std::size_t uplink_bytes = 0;
  std::size_t retransmissions = 0;
  std::size_t corrupted_frames = 0;  // CRC-detected corruptions (byte mode)
  std::size_t samples_transferred = 0;
  std::size_t piggybacked_reports = 0;  // reports that rode on heartbeats
  std::size_t frames_attempted = 0;   // logical frames handed to the link
  std::size_t frames_delivered = 0;   // logical frames that got through
  std::size_t dropped_frames = 0;     // abandoned after max_attempts
  std::size_t duplicated_frames = 0;  // delivered twice; deduped by station
  std::size_t backoff_slots = 0;      // exponential-backoff slots waited

  std::size_t total_bytes() const noexcept {
    return downlink_bytes + uplink_bytes;
  }

  /// Accumulates another lane's counters.  Parallel rounds account each
  /// node's traffic into a private CommunicationStats and merge the lanes
  /// serially in node order afterwards.
  CommunicationStats& operator+=(const CommunicationStats& other) noexcept {
    downlink_messages += other.downlink_messages;
    downlink_bytes += other.downlink_bytes;
    uplink_messages += other.uplink_messages;
    uplink_bytes += other.uplink_bytes;
    retransmissions += other.retransmissions;
    corrupted_frames += other.corrupted_frames;
    samples_transferred += other.samples_transferred;
    piggybacked_reports += other.piggybacked_reports;
    frames_attempted += other.frames_attempted;
    frames_delivered += other.frames_delivered;
    dropped_frames += other.dropped_frames;
    duplicated_frames += other.duplicated_frames;
    backoff_slots += other.backoff_slots;
    return *this;
  }
};

/// One logical frame handed to the link.
struct Frame {
  /// Keys the channel RNG stream and the Gilbert–Elliott state the frame
  /// is drawn from (the transmitting or receiving sensor node).
  std::size_t node = 0;
  /// Bytes charged per attempt (and once more for a duplicate).
  std::size_t bytes = 0;
  bool uplink = true;
  /// Whether a delivered copy may be duplicated in flight.  The tree's
  /// downlink flood never duplicates (it draws no duplication randomness).
  bool may_duplicate = true;
};

class Link {
 public:
  /// Outcome of one logical frame.
  struct Delivery {
    std::size_t attempts = 0;
    bool delivered = false;
  };

  /// Splits one channel stream per node from `master`.  Throws
  /// std::invalid_argument unless the loss probability is in [0, 1).
  Link(double frame_loss_probability, std::size_t max_attempts,
       const FaultConfig& faults, std::size_t node_count, Rng& master);

  FaultSchedule& faults() noexcept { return faults_; }
  const FaultSchedule& faults() const noexcept { return faults_; }
  std::size_t max_attempts() const noexcept { return max_attempts_; }

  /// Sends `frame` until it is delivered or the attempt budget runs out,
  /// charging every attempt to `stats`.  An attempt that survives the
  /// i.i.d. and burst loss draws is handed to `payload_survives(rng)`
  /// (the node's channel stream), which may corrupt and check the payload;
  /// a rejected payload counts as a corrupted frame and is retransmitted.
  /// Every failed attempt that is retried waits exponential backoff.
  template <typename PayloadCheck>
  Delivery transmit(const Frame& frame, CommunicationStats& stats,
                    PayloadCheck&& payload_survives);

  Delivery transmit(const Frame& frame, CommunicationStats& stats) {
    return transmit(frame, stats, [](Rng&) { return true; });
  }

 private:
  static void charge(const Frame& frame, CommunicationStats& stats) noexcept {
    if (frame.uplink) {
      ++stats.uplink_messages;
      stats.uplink_bytes += frame.bytes;
    } else {
      ++stats.downlink_messages;
      stats.downlink_bytes += frame.bytes;
    }
  }

  /// Exponential backoff after the a-th failed attempt (1-based), capped so
  /// a long outage cannot overflow the slot counter: 1, 2, 4, ..., 1024.
  static std::size_t backoff_slots_after(std::size_t failed_attempts) {
    return std::size_t{1} << std::min<std::size_t>(failed_attempts - 1, 10);
  }

  /// One channel RNG per node, split from the network master after the k
  /// sampling streams: every node's link randomness is an independent
  /// stream, so a round is bit-identical no matter how many threads run it
  /// (see DESIGN.md "Threading model").
  std::vector<Rng> channel_rngs_;
  FaultSchedule faults_;
  double frame_loss_probability_;
  std::size_t max_attempts_;
};

template <typename PayloadCheck>
Link::Delivery Link::transmit(const Frame& frame, CommunicationStats& stats,
                              PayloadCheck&& payload_survives) {
  Rng& rng = channel_rngs_[frame.node];
  Delivery result;
  ++stats.frames_attempted;
  for (;;) {
    ++result.attempts;
    charge(frame, stats);
    // Draw the i.i.d. loss first, from the node's own channel stream.  The
    // burst channel is stepped even when the i.i.d. draw already lost the
    // frame — the fade process evolves with every attempt on the air, not
    // per delivery.
    const bool iid_lost = rng.bernoulli(frame_loss_probability_);
    const bool burst_lost = faults_.attempt_lost(frame.node);
    if (!iid_lost && !burst_lost) {
      if (payload_survives(rng)) {
        result.delivered = true;
        ++stats.frames_delivered;
        // The station discards a duplicate by sequence number, so it costs
        // bytes but is never ingested twice.
        if (frame.may_duplicate && faults_.duplicate_frame(frame.node)) {
          ++stats.duplicated_frames;
          charge(frame, stats);
        }
        return result;
      }
      ++stats.corrupted_frames;
    }
    ++stats.retransmissions;
    if (max_attempts_ != 0 && result.attempts >= max_attempts_) {
      ++stats.dropped_frames;
      return result;
    }
    stats.backoff_slots += backoff_slots_after(result.attempts);
  }
}

}  // namespace prc::iot
