// The flat IoT network simulator.
//
// Wires k sensor nodes to one base station, executes top-up sampling rounds,
// and accounts every byte that crosses the (simulated) air interface.
// Unreliable links are modeled as per-frame Bernoulli loss (optionally
// layered with a bursty Gilbert–Elliott process from a FaultSchedule) with
// retransmission: a lost frame costs its bytes again, which is how loss
// shows up in the paper's cost metric (energy/bandwidth).  With
// max_attempts == 0 retransmission is unbounded and every round completes
// fully (the seed behavior); with a bounded budget a frame can be abandoned
// and the round completes PARTIALLY — the returned RoundReport says which
// nodes actually reached the round target.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "iot/base_station.h"
#include "iot/faults.h"
#include "iot/messages.h"
#include "iot/node.h"
#include "iot/round_report.h"
#include "iot/sampling_network.h"
#include "query/range_query.h"

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

/// Publishes the frame/byte/sample deltas between two stats snapshots to
/// the metrics registry ("iot.*" catalog; see DESIGN.md "Telemetry").
/// Event counts and sizes only — no sample values cross this boundary.
/// FlatNetwork::refresh_samples() publishes its resync traffic this way.
void publish_traffic_metrics(const CommunicationStats& before,
                             const CommunicationStats& after);

/// publish_traffic_metrics() for one collection round, plus the round
/// count and the resulting coverage.  Shared by FlatNetwork and
/// TreeNetwork.
void publish_round_metrics(const CommunicationStats& before,
                           const CommunicationStats& after,
                           const RoundReport& report);

struct NetworkConfig {
  /// Per-frame loss probability on both directions (retransmitted until
  /// delivered or the attempt budget runs out; each attempt is charged).
  double frame_loss_probability = 0.0;
  /// Byte-accurate mode: every uplink report frame is really serialized
  /// through the wire codec and decoded at the base station, so the
  /// simulation exercises the actual byte format.  Heartbeat piggybacking
  /// is disabled in this mode (piggybacked deltas have no standalone frame
  /// to encode).
  bool byte_accurate = false;
  /// Per-transmission probability that one random bit of the encoded frame
  /// flips in flight (only meaningful with byte_accurate).  The CRC detects
  /// the corruption and the frame is retransmitted; every attempt is
  /// charged.
  double bit_corruption_probability = 0.0;
  /// Master seed for node sampling streams and the loss process.
  std::uint64_t seed = 7;
  /// Seeded failure processes (churn, bursty loss, duplication).  The
  /// default is disabled and draws no randomness, so a fault-free run is
  /// byte-identical to the seed simulator.
  FaultConfig faults;
  /// Per-frame transmission budget.  0 = retransmit until delivered (seed
  /// behavior; every round is complete).  With a bound, an exhausted frame
  /// is dropped, the affected node keeps its previous station-side state,
  /// and the round report records the partial outcome.
  std::size_t max_attempts = 0;
};

class FlatNetwork final : public SamplingNetwork {
 public:
  /// One entry of `node_data` per node; nodes keep their multiset private.
  FlatNetwork(std::vector<std::vector<double>> node_data,
              NetworkConfig config = {});

  std::size_t node_count() const noexcept override { return nodes_.size(); }

  /// Ground truth n = sum n_i (the simulator knows it; the base station
  /// learns it from reports).
  std::size_t total_data_count() const noexcept override {
    return total_data_count_;
  }

  const BaseStation& base_station() const noexcept override {
    return station_;
  }
  const CommunicationStats& stats() const noexcept { return stats_; }

  /// Marks a node offline/online; offline nodes ignore top-up requests.
  void set_node_online(std::size_t node, bool online);

  /// Runs a top-up round raising every node's inclusion probability to `p`.
  /// Generates no traffic when p <= the current probability.  Returns the
  /// round's report; under faults / bounded retries it may be partial.
  RoundReport ensure_sampling_probability(double p) override;

  /// The report of the most recent round (default-constructed before any).
  const RoundReport& last_round() const noexcept { return last_round_; }

  /// Continuous collection: node `node` observes new readings.  The node
  /// samples them locally at the current probability; the base station's
  /// cached copy becomes stale until the next refresh_samples() or round.
  void append_data(std::size_t node, const std::vector<double>& values);

  /// Resynchronizes every online node with unreported changes.  A node
  /// sends a delta: the insertion index of each appended reading among the
  /// samples the station holds, plus the newly sampled readings; the
  /// station shifts its cached ranks and merges.  A node whose last report
  /// was lost or rejected sends its full sample instead and the station
  /// replaces its cache.  The traffic is charged and published.  Returns
  /// the number of nodes that resynced.
  std::size_t refresh_samples();

  /// Node `node`, for inspection (its sample is what the station should
  /// hold once the node's reports are acknowledged).
  const SensorNode& node(std::size_t index) const { return nodes_.at(index); }

  /// RankCounting / BasicCounting estimates from the base station cache.
  double rank_counting_estimate(
      const query::RangeQuery& range) const override {
    return station_.rank_counting_estimate(range);
  }
  std::vector<double> rank_counting_estimate_batch(
      std::span<const query::RangeQuery> ranges) const override {
    return station_.rank_counting_estimate_batch(ranges);
  }
  double basic_counting_estimate(const query::RangeQuery& range) const {
    return station_.basic_counting_estimate(range);
  }

 private:
  /// Outcome of one logical frame on the link.
  struct Delivery {
    std::size_t attempts = 0;
    bool delivered = false;
  };

  /// Charges one logical frame, simulating i.i.d. loss + the node's burst
  /// channel, retransmitting within the attempt budget.  `node` keys both
  /// the Gilbert–Elliott state and the node's private channel RNG stream;
  /// traffic is accounted into `stats` (a per-node lane during a parallel
  /// round, stats_ on serial paths).
  Delivery transmit(std::size_t frame_bytes, bool uplink, std::size_t node,
                    CommunicationStats& stats);

  /// Sends one node's report() and applies it at the station through
  /// apply_report().  A small top-up without arrivals piggybacks on a
  /// heartbeat (never a full resync, never in byte-accurate mode); anything
  /// else is split into frames of kMaxSamplesPerFrame samples, with the
  /// arrivals section in the first.  Delivery is atomic per node: a lost
  /// frame leaves the station untouched and the node falls back to a full
  /// resync.  Returns whether the station accepted the report.
  bool send_report(SensorNode& node, const SampleReport& report,
                   CommunicationStats& stats);

  /// Delivers one report frame: models loss and (in byte-accurate mode)
  /// encode -> corrupt -> decode with CRC-triggered retransmission.
  /// On success `out` holds the frame as the base station received it.
  Delivery deliver_frame(const SampleReport& frame, SampleReport& out,
                         CommunicationStats& stats);

  /// Post-delivery duplication: charge the duplicate's bytes; the station
  /// discards it by sequence number, so it is never ingested twice.
  void maybe_duplicate(std::size_t frame_bytes, bool uplink, std::size_t node,
                       CommunicationStats& stats);

  std::vector<SensorNode> nodes_;
  BaseStation station_;
  CommunicationStats stats_;
  /// One channel RNG per node, split from the same master as the sampling
  /// streams.  Each node's link randomness (i.i.d. loss, corruption) is an
  /// independent stream, so a round is bit-identical no matter how many
  /// threads execute it.  (Replaces the shared loss_rng_; see DESIGN.md
  /// "Threading model" for the one-time seed-compat note.)
  std::vector<Rng> channel_rngs_;
  NetworkConfig config_;
  FaultSchedule faults_;
  RoundReport last_round_;
  std::size_t total_data_count_ = 0;
};

}  // namespace prc::iot
