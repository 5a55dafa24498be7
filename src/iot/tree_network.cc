#include "iot/tree_network.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "iot/messages.h"
#include "iot/node.h"

namespace prc::iot {
namespace {

/// Tree slots: slot 0 is the base station; sensor node i occupies slot
/// i + 1.  With fanout f, the parent of slot s (s >= 1) is slot (s-1)/f.
std::size_t parent_slot(std::size_t slot, std::size_t fanout) {
  return (slot - 1) / fanout;
}

}  // namespace

TreeNetwork::TreeNetwork(std::vector<std::vector<double>> node_data,
                         TreeConfig config)
    : SamplingNetwork(std::move(node_data), config.seed,
                      config.frame_loss_probability, config.max_attempts,
                      config.faults),
      config_(config) {
  if (config_.fanout == 0) {
    throw std::invalid_argument("tree fanout must be >= 1");
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    height_ = std::max(height_, depth(i));
  }
  level_stats_.assign(height_ + 1, TreeLevelStats{});
}

std::size_t TreeNetwork::depth(std::size_t node) const {
  if (node >= nodes_.size()) throw std::out_of_range("node index");
  std::size_t slot = node + 1;
  std::size_t d = 0;
  while (slot != 0) {
    slot = parent_slot(slot, config_.fanout);
    ++d;
  }
  return d;
}

bool TreeNetwork::route_to_root_alive(std::size_t node) const {
  if (node >= nodes_.size()) throw std::out_of_range("node index");
  std::size_t slot = parent_slot(node + 1, config_.fanout);
  while (slot != 0) {
    const std::size_t ancestor = slot - 1;
    if (!nodes_[ancestor].online() || link_.faults().node_offline(ancestor)) {
      return false;
    }
    slot = parent_slot(slot, config_.fanout);
  }
  return true;
}

Link::Delivery TreeNetwork::relay(const Frame& frame, std::size_t level,
                                 CommunicationStats& stats,
                                 std::vector<TreeLevelStats>& levels) {
  const Link::Delivery delivery = link_.transmit(frame, stats);
  levels.at(level).links_crossed += delivery.attempts;
  levels.at(level).bytes += delivery.attempts * frame.bytes;
  return delivery;
}

void TreeNetwork::collect(double p, const StationView& before,
                          std::span<NodeLane> lanes,
                          std::span<NodeOutcome> outcomes) {
  // Aggregation needs a stable topology: every relay alive and every frame
  // delivered, or a lost coalesced frame would take other nodes' reports
  // with it.
  const bool coalesce =
      config_.aggregate_frames && !link_.faults().enabled() &&
      link_.max_attempts() == 0 &&
      std::all_of(nodes_.begin(), nodes_.end(),
                  [](const SensorNode& node) { return node.online(); });
  const std::size_t request_bytes = SampleRequest{0, p}.wire_size();
  // Every stochastic draw a node makes comes from its own channel / fault
  // streams, so the lanes run in parallel.  Relay liveness
  // (route_to_root_alive) reads churn state frozen for the round — no node
  // mutates it inside the lanes.
  std::vector<std::vector<TreeLevelStats>> lane_levels(
      nodes_.size(), std::vector<TreeLevelStats>(height_ + 1));
  parallel::parallel_for_each(nodes_.size(), [&](std::size_t i) {
    auto& node = nodes_[i];
    auto& lane = lanes[i];
    if (!route_to_root_alive(i)) {
      // A dead relay cuts the node off in both directions: the request never
      // arrives and nothing the node sends can reach the root.
      lane.severed = true;
      outcomes[i] = absent_outcome(before, i);
      return;
    }
    // One downlink frame per parent->child link, drawn from the target
    // node's channel stream.
    const Link::Delivery down = link_.transmit(
        {.node = i, .bytes = request_bytes, .uplink = false,
         .may_duplicate = false},
        lane.stats);
    if (!node.online() || link_.faults().node_offline(i)) {
      outcomes[i] = absent_outcome(before, i);
      return;
    }
    if (!down.delivered) {
      // The node never heard the request; its sampler did not move.
      outcomes[i] = NodeOutcome::kDropped;
      return;
    }
    // A node left dirty by a previous drop sends its full sample (a delta
    // on top of that gap would under-count).  Tree nodes have no append
    // path, so reports never carry arrivals and the byte model charges
    // samples and n_i only.
    const SampleReport node_report = node.handle(SampleRequest{node.id(), p});
    PRC_DCHECK(!node_report.has_arrivals()) << "tree node with arrivals";
    const std::size_t samples = node_report.new_samples.size();
    const std::size_t frames = std::max<std::size_t>(
        1, (samples + kMaxSamplesPerFrame - 1) / kMaxSamplesPerFrame);
    const Frame frame{.node = i,
                      .bytes = frames * kMessageHeaderBytes +
                               samples * kSampleWireBytes +
                               sizeof(std::uint64_t)};
    // The report crosses depth(i) links, charged at levels depth(i), ...,
    // 1.  (A coalesced uplink is charged after the lanes instead.)
    bool delivered = true;
    if (!coalesce) {
      for (std::size_t level = depth(i); level >= 1 && delivered; --level) {
        delivered = relay(frame, level, lane.stats, lane_levels[i]).delivered;
      }
    }
    if (delivered && apply_report(node, {&node_report, 1}, station_)) {
      lane.new_samples = samples;
      lane.stats.samples_transferred += samples;
      lane.refreshed = true;
    } else {
      if (!delivered) node.invalidate_cached_sample();
      outcomes[i] = NodeOutcome::kDropped;
    }
  });
  for (const auto& levels : lane_levels) {
    for (std::size_t level = 0; level < levels.size(); ++level) {
      level_stats_[level].links_crossed += levels[level].links_crossed;
      level_stats_[level].bytes += levels[level].bytes;
    }
  }
  if (coalesce) convergecast(lanes);
}

void TreeNetwork::convergecast(std::span<NodeLane> lanes) {
  const std::size_t slots = nodes_.size() + 1;
  std::vector<std::size_t> subtree_samples(slots, 0);
  std::vector<std::size_t> subtree_nodes(slots, 0);
  for (std::size_t slot = slots - 1; slot >= 1; --slot) {
    const std::size_t node = slot - 1;
    subtree_samples[slot] += lanes[node].new_samples;
    subtree_nodes[slot] += 1;
    const std::size_t payload = subtree_samples[slot] * kSampleWireBytes +
                                subtree_nodes[slot] * sizeof(std::uint64_t);
    const std::size_t frames = std::max<std::size_t>(
        1, (subtree_samples[slot] + kMaxSamplesPerFrame - 1) /
               kMaxSamplesPerFrame);
    relay({.node = node, .bytes = frames * kMessageHeaderBytes + payload},
          depth(node), lanes[node].stats, level_stats_);
    const std::size_t parent = parent_slot(slot, config_.fanout);
    subtree_samples[parent] += subtree_samples[slot];
    subtree_nodes[parent] += subtree_nodes[slot];
  }
}

}  // namespace prc::iot
