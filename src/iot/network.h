// The flat IoT network simulator.
//
// Wires k sensor nodes to one base station, executes top-up sampling rounds,
// and accounts every byte that crosses the (simulated) air interface.  Each
// round sends every node one request and receives one report, split into
// frames, over the shared Link (see link.h): per-frame Bernoulli loss,
// optionally layered with a bursty Gilbert–Elliott process from a
// FaultSchedule, with retransmission and exponential backoff.  A lost frame
// costs its bytes again, which is how loss shows up in the paper's cost
// metric (energy/bandwidth).  In byte-accurate mode every report frame is
// really encoded, corrupted in flight and CRC-checked at the station.
// With max_attempts == 0 every round completes fully; with a bounded budget
// a frame can be abandoned and the round completes PARTIALLY — the returned
// RoundReport says which nodes actually reached the round target.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "iot/base_station.h"
#include "iot/faults.h"
#include "iot/messages.h"
#include "iot/node.h"
#include "iot/round_report.h"
#include "iot/sampling_network.h"
#include "query/range_query.h"

namespace prc::iot {

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

  /// BasicCounting estimate from the current station view.
  double basic_counting_estimate(const query::RangeQuery& range) const {
    return station_.view()->basic_counting_estimate(range);
  }

 private:
  /// Per node: the request goes down, the node tops up, and its report
  /// comes back through send_report().
  void collect(double p, const StationView& before, std::span<NodeLane> lanes,
               std::span<NodeOutcome> outcomes) override;

  /// Sends one node's report() and applies it at the station through
  /// apply_report().  A small top-up without arrivals piggybacks on a
  /// heartbeat (never a full resync, never in byte-accurate mode); anything
  /// else is split into frames of kMaxSamplesPerFrame samples, with the
  /// arrivals section in the first.  Delivery is atomic per node: a lost
  /// frame leaves the station untouched and the node falls back to a full
  /// resync.  Traffic is accounted into `stats` (a per-node lane during a
  /// parallel round, stats_ on serial paths).  Returns whether the station
  /// accepted the report.
  bool send_report(SensorNode& node, const SampleReport& report,
                   CommunicationStats& stats);

  /// Delivers one report frame over the link; in byte-accurate mode every
  /// attempt is encoded, possibly corrupted, and CRC-decoded.  On success
  /// `out` holds the frame as the base station received it.
  bool deliver_frame(const SampleReport& frame, SampleReport& out,
                     CommunicationStats& stats);

  NetworkConfig config_;
};

}  // namespace prc::iot
