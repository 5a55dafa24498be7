// A sampled IoT network, independent of its topology.
//
// The broker-side machinery (PrivateRangeCounter) only needs three
// capabilities: know the population, top up the shared sample, and
// estimate ranges from the base-station cache.  Both the flat model and
// the tree model provide them through this base, which lets the DP pipeline
// run over either (the paper's "easily extended to a general tree model"
// claim, carried through to the full private-counting stack).
//
// The base owns what the topologies share: the sensor nodes, the base
// station, the Link every frame crosses, the traffic counters, and the
// collection round itself.  A round validates p, answers a no-op request
// from the cache, runs the topology's per-node lanes (collect()), merges
// the lanes serially in node order, commits the round at the station and
// publishes its metrics.  A topology differs only in what its lanes send.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "iot/base_station.h"
#include "iot/faults.h"
#include "iot/link.h"
#include "iot/node.h"
#include "iot/round_report.h"
#include "query/range_query.h"

namespace prc::iot {

/// Publishes the frame/byte/sample deltas between two stats snapshots to
/// the metrics registry ("iot.*" catalog; see DESIGN.md "Telemetry").
/// Event counts and sizes only — no sample values cross this boundary.
/// FlatNetwork::refresh_samples() publishes its resync traffic this way.
void publish_traffic_metrics(const CommunicationStats& before,
                             const CommunicationStats& after);

class SamplingNetwork {
 public:
  virtual ~SamplingNetwork() = default;

  std::size_t node_count() const noexcept { return nodes_.size(); }

  /// Ground truth n = sum n_i (the simulator knows it; the base station
  /// learns it from reports).
  std::size_t total_data_count() const noexcept { return total_data_count_; }

  const BaseStation& base_station() const noexcept { return station_; }
  const CommunicationStats& stats() const noexcept { return stats_; }

  /// Node `index`, for inspection (its sample is what the station should
  /// hold once the node's reports are acknowledged).
  const SensorNode& node(std::size_t index) const { return nodes_.at(index); }

  /// Marks a node offline/online; offline nodes ignore top-up requests.
  void set_node_online(std::size_t node, bool online) {
    nodes_.at(node).set_online(online);
  }

  /// Runs a top-up round raising every node's inclusion probability to `p`
  /// (when p <= the current probability the cache is already good enough
  /// and no traffic is generated).  Returns the round's RoundReport; under
  /// faults or bounded retries the round may complete partially, and the
  /// report is the only honest record of which nodes actually reached `p`.
  RoundReport ensure_sampling_probability(double p);

  /// The same round for a caller that already holds a view of this
  /// network's station.  The round target only rises, so a view that meets
  /// `p` answers the no-op check without taking the station lock, counts
  /// `iot.rounds_noop` and returns false without building a report;
  /// otherwise the round runs, `view` is replaced by the view it committed
  /// and it returns true (its report is last_round()).
  bool ensure_sampling_probability(double p,
                                   std::shared_ptr<const StationView>& view);

  /// The report of the most recent round (default-constructed before any).
  const RoundReport& last_round() const noexcept { return last_round_; }

  /// RankCounting estimate from the current station view.
  double rank_counting_estimate(const query::RangeQuery& range) const {
    return station_.view()->rank_counting_estimate(range);
  }

 protected:
  /// One node's share of a round: its traffic and what it delivered.
  /// Lanes are written in parallel and merged serially in node order, so a
  /// round is bit-identical at any thread count.
  struct NodeLane {
    CommunicationStats stats;
    std::size_t new_samples = 0;
    bool refreshed = false;  // the station holds the node's report at p
    bool severed = false;    // a dead relay cut the node off (tree only)
  };

  /// One entry of `node_data` per node; nodes keep their multiset private.
  /// Node sampling streams are split from `seed` first, then the link's
  /// channel streams.
  SamplingNetwork(std::vector<std::vector<double>> node_data,
                  std::uint64_t seed, double frame_loss_probability,
                  std::size_t max_attempts, const FaultConfig& faults);
  SamplingNetwork(const SamplingNetwork&) = default;
  SamplingNetwork(SamplingNetwork&&) = default;
  SamplingNetwork& operator=(const SamplingNetwork&) = default;
  SamplingNetwork& operator=(SamplingNetwork&&) = default;

  /// The topology's part of a round to probability `p`: fills lanes[i]
  /// and outcomes[i] (preset to kDelivered) for every node.  Churn has
  /// already been stepped for the round; `before` is the station as the
  /// round found it.
  virtual void collect(double p, const StationView& before,
                       std::span<NodeLane> lanes,
                       std::span<NodeOutcome> outcomes) = 0;

  /// The outcome of a node that missed the round: kStale when the station
  /// still holds an older sample of it, kOffline when it never reported.
  static NodeOutcome absent_outcome(const StationView& before,
                                    std::size_t node) {
    return before.probabilities[node] > 0.0 ? NodeOutcome::kStale
                                            : NodeOutcome::kOffline;
  }

  // Declaration order matters: the nodes split the master seed before the
  // link does (see the constructor).
  std::vector<SensorNode> nodes_;
  Link link_;
  BaseStation station_;
  CommunicationStats stats_;
  std::size_t total_data_count_ = 0;

 private:
  SamplingNetwork(std::vector<std::vector<double>>&& node_data, Rng master,
                  double frame_loss_probability, std::size_t max_attempts,
                  const FaultConfig& faults);

  RoundReport last_round_;
};

}  // namespace prc::iot
