// Tree-model IoT network.
//
// The paper notes that "algorithms on flat models can be easily extended to
// a general tree model".  This module makes that concrete: sensor nodes are
// arranged in a balanced tree rooted at the base station, sample reports
// are relayed hop by hop toward the root, and intermediate nodes coalesce
// their children's samples into shared frames (in-network aggregation),
// which saves per-frame header bytes at the cost of no information — the
// estimator's inputs are identical to the flat model's.
//
// What changes vs FlatNetwork is ONLY the communication bill: a sample
// from a node at depth d crosses d links.  Estimates are byte-for-byte the
// topology-independent RankCounting computation at the root.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "iot/base_station.h"
#include "iot/messages.h"
#include "iot/network.h"
#include "iot/node.h"
#include "iot/sampling_network.h"
#include "query/range_query.h"

namespace prc::iot {

struct TreeConfig {
  /// Children per interior node.  Fanout 1 degenerates to a chain.
  std::size_t fanout = 4;
  /// Coalesce child frames at interior nodes (saves headers).  When false,
  /// every report is relayed as its own frame on every hop — the naive
  /// store-and-forward baseline the aggregation ablation compares against.
  bool aggregate_frames = true;
  /// Per-link frame loss probability; lost frames are retransmitted and
  /// re-charged, like FlatNetwork.
  double frame_loss_probability = 0.0;
  std::uint64_t seed = 7;
  /// Seeded failure processes; disabled by default (no randomness drawn).
  FaultConfig faults;
  /// Per-frame transmission budget; 0 = unbounded (seed behavior).
  std::size_t max_attempts = 0;
};

/// Per-depth traffic accounting.
struct TreeLevelStats {
  std::size_t links_crossed = 0;
  std::size_t bytes = 0;
};

class TreeNetwork final : public SamplingNetwork {
 public:
  /// node_data[i] is node i's local multiset; node i's tree position is
  /// breadth-first (node 0 is a child of the root base station).
  TreeNetwork(std::vector<std::vector<double>> node_data,
              TreeConfig config = {});

  std::size_t node_count() const noexcept override {
    return nodes_.size();
  }
  std::size_t total_data_count() const noexcept override {
    return total_data_count_;
  }

  /// Depth (link count to the base station) of a node; min 1.
  std::size_t depth(std::size_t node) const;

  /// Height of the tree (max depth over nodes).
  std::size_t height() const noexcept { return height_; }

  const BaseStation& base_station() const noexcept override {
    return station_;
  }
  const CommunicationStats& stats() const noexcept { return stats_; }
  const std::vector<TreeLevelStats>& level_stats() const noexcept {
    return level_stats_;
  }

  /// Node `index`, for inspection (see FlatNetwork::node).
  const SensorNode& node(std::size_t index) const { return nodes_.at(index); }

  /// Marks a sensor offline/online.  An offline LEAF just skips rounds; an
  /// offline INTERIOR node also severs its whole subtree — descendants stay
  /// alive and sample locally, but their reports cannot reach the root and
  /// are counted as severed in the round report.
  void set_node_online(std::size_t node, bool online);

  /// True when every sensor on `node`'s path to the root is offline-free
  /// (the node itself not included).
  bool route_to_root_alive(std::size_t node) const;

  /// Runs a top-up round to probability `p`, routing every report up the
  /// tree.  With faults disabled, unbounded retries, and all nodes online
  /// this is the exact seed accounting (including in-network aggregation);
  /// a degraded round falls back to per-node store-and-forward accounting so
  /// each report's delivery can succeed or fail independently.
  RoundReport ensure_sampling_probability(double p) override;

  /// The report of the most recent round (default-constructed before any).
  const RoundReport& last_round() const noexcept { return last_round_; }

  double rank_counting_estimate(
      const query::RangeQuery& range) const override {
    return station_.rank_counting_estimate(range);
  }

  std::vector<double> rank_counting_estimate_batch(
      std::span<const query::RangeQuery> ranges) const override {
    return station_.rank_counting_estimate_batch(ranges);
  }

 private:
  struct Delivery {
    std::size_t attempts = 0;
    bool delivered = false;
  };

  /// Unbounded link crossing (fault-free path); `origin` keys the
  /// transmitting node's channel RNG stream.
  std::size_t transmit_link(std::size_t frame_bytes, std::size_t level,
                            std::size_t origin);

  /// Bounded-attempt link crossing for the degraded path; `origin` keys the
  /// Gilbert–Elliott channel and channel RNG of the report's source node.
  /// Traffic is accounted into the given stats/level lanes (per-node during
  /// a parallel round).
  Delivery transmit_link_bounded(std::size_t frame_bytes, std::size_t level,
                                 std::size_t origin, CommunicationStats& stats,
                                 std::vector<TreeLevelStats>& levels);

  /// Bounded-attempt downlink frame toward `node` (not level-accounted, to
  /// match the seed's downlink flood).
  Delivery transmit_downlink_bounded(std::size_t frame_bytes, std::size_t node,
                                     CommunicationStats& stats);

  RoundReport run_degraded_round(double p);

  std::vector<SensorNode> nodes_;
  BaseStation station_;
  CommunicationStats stats_;
  std::vector<TreeLevelStats> level_stats_;
  /// Per-node channel RNG streams split from the master seed (see
  /// FlatNetwork::channel_rngs_ and DESIGN.md "Threading model").
  std::vector<Rng> channel_rngs_;
  TreeConfig config_;
  FaultSchedule faults_;
  RoundReport last_round_;
  std::size_t total_data_count_ = 0;
  std::size_t height_ = 0;
};

}  // namespace prc::iot
