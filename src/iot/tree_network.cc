#include "iot/tree_network.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "common/trace.h"

namespace prc::iot {
namespace {

/// Tree slots: slot 0 is the base station; sensor node i occupies slot
/// i + 1.  With fanout f, the parent of slot s (s >= 1) is slot (s-1)/f.
std::size_t parent_slot(std::size_t slot, std::size_t fanout) {
  return (slot - 1) / fanout;
}

std::size_t backoff_slots_after(std::size_t failed_attempts) {
  return std::size_t{1} << std::min<std::size_t>(failed_attempts - 1, 10);
}

}  // namespace

TreeNetwork::TreeNetwork(std::vector<std::vector<double>> node_data,
                         TreeConfig config)
    : station_(node_data.size()),
      config_(config),
      faults_(config.faults, node_data.size()) {
  if (node_data.empty()) {
    throw std::invalid_argument("tree network needs >= 1 node");
  }
  if (config_.fanout == 0) {
    throw std::invalid_argument("tree fanout must be >= 1");
  }
  if (config_.frame_loss_probability < 0.0 ||
      config_.frame_loss_probability >= 1.0) {
    throw std::invalid_argument("frame loss probability must be in [0, 1)");
  }
  Rng master(config.seed);
  nodes_.reserve(node_data.size());
  for (std::size_t i = 0; i < node_data.size(); ++i) {
    total_data_count_ += node_data[i].size();
    nodes_.emplace_back(static_cast<int>(i), std::move(node_data[i]),
                        master.split());
  }
  // Channel streams: same master, split after the k sampling streams (see
  // FlatNetwork's constructor for the layout rationale).
  channel_rngs_.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    channel_rngs_.push_back(master.split());
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

void TreeNetwork::set_node_online(std::size_t node, bool online) {
  nodes_.at(node).set_online(online);
}

bool TreeNetwork::route_to_root_alive(std::size_t node) const {
  if (node >= nodes_.size()) throw std::out_of_range("node index");
  std::size_t slot = parent_slot(node + 1, config_.fanout);
  while (slot != 0) {
    const std::size_t relay = slot - 1;
    if (!nodes_[relay].online() || faults_.node_offline(relay)) return false;
    slot = parent_slot(slot, config_.fanout);
  }
  return true;
}

std::size_t TreeNetwork::transmit_link(std::size_t frame_bytes,
                                       std::size_t level, std::size_t origin) {
  Rng& rng = channel_rngs_[origin];
  std::size_t attempts = 1;
  while (rng.bernoulli(config_.frame_loss_probability)) {
    ++attempts;
    ++stats_.retransmissions;
  }
  stats_.uplink_messages += attempts;
  stats_.uplink_bytes += attempts * frame_bytes;
  stats_.frames_attempted += 1;
  stats_.frames_delivered += 1;
  auto& lvl = level_stats_.at(level);
  lvl.links_crossed += attempts;
  lvl.bytes += attempts * frame_bytes;
  return attempts;
}

TreeNetwork::Delivery TreeNetwork::transmit_link_bounded(
    std::size_t frame_bytes, std::size_t level, std::size_t origin,
    CommunicationStats& stats, std::vector<TreeLevelStats>& levels) {
  Rng& rng = channel_rngs_[origin];
  Delivery result;
  ++stats.frames_attempted;
  auto& lvl = levels.at(level);
  for (;;) {
    ++result.attempts;
    ++stats.uplink_messages;
    stats.uplink_bytes += frame_bytes;
    ++lvl.links_crossed;
    lvl.bytes += frame_bytes;
    const bool iid_lost = rng.bernoulli(config_.frame_loss_probability);
    const bool burst_lost = faults_.attempt_lost(origin);
    if (!iid_lost && !burst_lost) {
      result.delivered = true;
      ++stats.frames_delivered;
      if (faults_.duplicate_frame(origin)) {
        ++stats.duplicated_frames;
        ++stats.uplink_messages;
        stats.uplink_bytes += frame_bytes;
      }
      return result;
    }
    ++stats.retransmissions;
    if (config_.max_attempts != 0 && result.attempts >= config_.max_attempts) {
      ++stats.dropped_frames;
      return result;
    }
    stats.backoff_slots += backoff_slots_after(result.attempts);
  }
}

TreeNetwork::Delivery TreeNetwork::transmit_downlink_bounded(
    std::size_t frame_bytes, std::size_t node, CommunicationStats& stats) {
  Rng& rng = channel_rngs_[node];
  Delivery result;
  ++stats.frames_attempted;
  for (;;) {
    ++result.attempts;
    ++stats.downlink_messages;
    stats.downlink_bytes += frame_bytes;
    const bool iid_lost = rng.bernoulli(config_.frame_loss_probability);
    const bool burst_lost = faults_.attempt_lost(node);
    if (!iid_lost && !burst_lost) {
      result.delivered = true;
      ++stats.frames_delivered;
      return result;
    }
    ++stats.retransmissions;
    if (config_.max_attempts != 0 && result.attempts >= config_.max_attempts) {
      ++stats.dropped_frames;
      return result;
    }
    stats.backoff_slots += backoff_slots_after(result.attempts);
  }
}

RoundReport TreeNetwork::ensure_sampling_probability(double p) {
  if (!(p > 0.0) || p > 1.0) {
    throw std::invalid_argument("sampling probability must be in (0, 1]");
  }
  if (auto noop = station_.noop_round_report(p)) {
    telemetry::counter("iot.rounds_noop").increment();
    return *std::move(noop);
  }

  const bool all_online = std::all_of(
      nodes_.begin(), nodes_.end(),
      [](const SensorNode& node) { return node.online(); });
  if (faults_.enabled() || config_.max_attempts != 0 || !all_online) {
    return run_degraded_round(p);
  }

  PRC_TRACE_SPAN("iot.round");
  telemetry::ScopedTimer round_timer(
      telemetry::histogram("iot.round_duration_us"));
  const CommunicationStats stats_before = stats_;
  RoundReport report;
  report.target_p = p;
  report.outcomes.assign(nodes_.size(), NodeOutcome::kDelivered);

  // ---- Fault-free path: the seed accounting, byte for byte. ----

  // Downlink: the request floods the tree, one frame per parent->child
  // link (k links total), each drawn from the target node's channel stream.
  const SampleRequest probe{0, p};
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    std::size_t attempts = 1;
    while (channel_rngs_[i].bernoulli(config_.frame_loss_probability)) {
      ++attempts;
      ++stats_.retransmissions;
    }
    stats_.downlink_messages += attempts;
    stats_.downlink_bytes += attempts * probe.wire_size();
    stats_.frames_attempted += 1;
    stats_.frames_delivered += 1;
  }

  // Every node tops up locally; the base station receives all payloads
  // regardless of routing (reliable links), so ingest directly.  Node
  // top-up is the compute-heavy phase and is embarrassingly parallel: each
  // node touches only its own sampler, its own slot here, and the mutexed
  // station (whose per-node entries are disjoint).
  // A node left dirty by a drop in an earlier degraded round resyncs in
  // full here (report() decides, apply_report() replaces).  Tree nodes have
  // no append path, so reports never carry arrivals and the byte model
  // below charges samples and n_i only.
  std::vector<std::size_t> new_samples_per_node(nodes_.size(), 0);
  parallel::parallel_for_each(nodes_.size(), [&](std::size_t i) {
    const SampleReport node_report =
        nodes_[i].handle(SampleRequest{static_cast<int>(i), p});
    PRC_DCHECK(!node_report.has_arrivals()) << "tree node with arrivals";
    new_samples_per_node[i] = node_report.new_samples.size();
    apply_report(nodes_[i], {&node_report, 1}, station_);
  });
  std::size_t total_new = 0;
  for (const std::size_t count : new_samples_per_node) total_new += count;
  stats_.samples_transferred += total_new;

  // Uplink accounting.
  const std::size_t retrans_before = stats_.retransmissions;
  if (config_.aggregate_frames) {
    // Coalesced convergecast: process slots bottom-up; each node forwards
    // its subtree's samples (plus one n_i scalar per subtree node) to its
    // parent in as few frames as possible.
    const std::size_t slots = nodes_.size() + 1;
    std::vector<std::size_t> subtree_samples(slots, 0);
    std::vector<std::size_t> subtree_nodes(slots, 0);
    for (std::size_t slot = slots - 1; slot >= 1; --slot) {
      const std::size_t node = slot - 1;
      subtree_samples[slot] += new_samples_per_node[node];
      subtree_nodes[slot] += 1;
      const std::size_t payload = subtree_samples[slot] * kSampleWireBytes +
                                  subtree_nodes[slot] * sizeof(std::uint64_t);
      const std::size_t frames = std::max<std::size_t>(
          1, (subtree_samples[slot] + kMaxSamplesPerFrame - 1) /
                 kMaxSamplesPerFrame);
      transmit_link(frames * kMessageHeaderBytes + payload, depth(node), node);
      const std::size_t parent = parent_slot(slot, config_.fanout);
      subtree_samples[parent] += subtree_samples[slot];
      subtree_nodes[parent] += subtree_nodes[slot];
    }
  } else {
    // Naive store-and-forward: each node's own report is relayed as its own
    // frame chain across every link on the path to the root.
    for (std::size_t node = 0; node < nodes_.size(); ++node) {
      const std::size_t samples = new_samples_per_node[node];
      const std::size_t frames = std::max<std::size_t>(
          1, (samples + kMaxSamplesPerFrame - 1) / kMaxSamplesPerFrame);
      const std::size_t bytes = frames * kMessageHeaderBytes +
                                samples * kSampleWireBytes +
                                sizeof(std::uint64_t);
      const std::size_t node_depth = depth(node);
      // The report crosses node_depth links, charged at levels
      // node_depth, node_depth-1, ..., 1.
      for (std::size_t level = node_depth; level >= 1; --level) {
        transmit_link(bytes, level, node);
      }
    }
  }
  station_.commit_round(p);
  report.new_samples = total_new;
  report.retries = stats_.retransmissions - retrans_before;
  const CoverageSummary cov = station_.coverage();
  report.coverage = cov.coverage;
  report.min_probability = cov.min_probability;
  last_round_ = report;
  publish_round_metrics(stats_before, stats_, report);
  return report;
}

RoundReport TreeNetwork::run_degraded_round(double p) {
  PRC_TRACE_SPAN("iot.round");
  telemetry::ScopedTimer round_timer(
      telemetry::histogram("iot.round_duration_us"));
  const CommunicationStats stats_before = stats_;
  RoundReport report;
  report.target_p = p;
  report.outcomes.assign(nodes_.size(), NodeOutcome::kDelivered);
  faults_.begin_round();
  const std::size_t retrans_before = stats_.retransmissions;
  const std::size_t dropped_before = stats_.dropped_frames;
  std::vector<bool> refreshed(nodes_.size(), false);

  const SampleRequest probe{0, p};
  // Per-node lanes, merged serially in node order after the parallel
  // region; every stochastic draw a node makes comes from its own channel /
  // fault streams, so the round is bit-identical at any thread count.
  // Relay liveness (route_to_root_alive) reads churn state frozen by
  // begin_round() above — no node mutates it during the round.
  struct NodeLane {
    CommunicationStats stats;
    std::vector<TreeLevelStats> levels;
    std::size_t new_samples = 0;
    bool refreshed = false;
    bool severed = false;
  };
  std::vector<NodeLane> lanes(nodes_.size());

  parallel::parallel_for_each(nodes_.size(), [&](std::size_t i) {
    auto& node = nodes_[i];
    auto& lane = lanes[i];
    lane.levels.assign(height_ + 1, TreeLevelStats{});
    const bool offline = !node.online() || faults_.node_offline(i);
    const bool severed = !route_to_root_alive(i);
    const auto prior_outcome = station_.node_probability(i) > 0.0
                                   ? NodeOutcome::kStale
                                   : NodeOutcome::kOffline;
    if (severed) {
      // A dead relay cuts the node off in both directions: the request never
      // arrives and nothing the node sends can reach the root.
      lane.severed = true;
      report.outcomes[i] = prior_outcome;
      return;
    }
    const Delivery down =
        transmit_downlink_bounded(probe.wire_size(), i, lane.stats);
    if (offline) {
      report.outcomes[i] = prior_outcome;
      return;
    }
    if (!down.delivered) {
      // The node never heard the request; its sampler did not move.
      report.outcomes[i] = NodeOutcome::kDropped;
      return;
    }
    // A node left dirty by a previous drop sends its full sample (a delta
    // on top of that gap would under-count).
    const SampleReport node_report = node.handle(SampleRequest{node.id(), p});
    // Degraded uplink: the report is relayed store-and-forward across every
    // link on the path to the root (aggregation is not attempted while the
    // topology is unstable), one bounded frame chain per link.  Delivery is
    // atomic: a drop on any link discards the whole report.
    const std::size_t samples = node_report.new_samples.size();
    const std::size_t frames = std::max<std::size_t>(
        1, (samples + kMaxSamplesPerFrame - 1) / kMaxSamplesPerFrame);
    PRC_DCHECK(!node_report.has_arrivals()) << "tree node with arrivals";
    const std::size_t bytes = frames * kMessageHeaderBytes +
                              samples * kSampleWireBytes +
                              sizeof(std::uint64_t);
    bool delivered = true;
    const std::size_t node_depth = depth(i);
    for (std::size_t level = node_depth; level >= 1 && delivered; --level) {
      delivered =
          transmit_link_bounded(bytes, level, i, lane.stats, lane.levels)
              .delivered;
    }
    if (delivered && apply_report(node, {&node_report, 1}, station_)) {
      lane.new_samples = samples;
      lane.stats.samples_transferred += samples;
      lane.refreshed = true;
    } else {
      if (!delivered) node.invalidate_cached_sample();
      report.outcomes[i] = NodeOutcome::kDropped;
    }
  });

  // Serial merge in node index order.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto& lane = lanes[i];
    stats_ += lane.stats;
    for (std::size_t level = 0; level < lane.levels.size(); ++level) {
      level_stats_[level].links_crossed += lane.levels[level].links_crossed;
      level_stats_[level].bytes += lane.levels[level].bytes;
    }
    report.new_samples += lane.new_samples;
    if (lane.severed) ++report.severed_reports;
    refreshed[i] = lane.refreshed;
  }

  station_.commit_round(p, refreshed);
  report.retries = stats_.retransmissions - retrans_before;
  report.dropped_frames = stats_.dropped_frames - dropped_before;
  const CoverageSummary cov = station_.coverage();
  report.coverage = cov.coverage;
  report.min_probability = cov.min_probability;
  last_round_ = report;
  publish_round_metrics(stats_before, stats_, report);
  return report;
}

}  // namespace prc::iot
