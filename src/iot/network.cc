#include "iot/network.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "iot/codec.h"

namespace prc::iot {

namespace {

// Exponential backoff after the a-th failed attempt (1-based), capped so a
// long outage cannot overflow the slot counter: 1, 2, 4, ..., 1024.
std::size_t backoff_slots_after(std::size_t failed_attempts) {
  return std::size_t{1} << std::min<std::size_t>(failed_attempts - 1, 10);
}

}  // namespace

void publish_traffic_metrics(const CommunicationStats& before,
                             const CommunicationStats& after) {
  auto& registry = telemetry::Telemetry::registry();
  registry.counter("iot.frames_attempted")
      .increment(after.frames_attempted - before.frames_attempted);
  registry.counter("iot.frames_delivered")
      .increment(after.frames_delivered - before.frames_delivered);
  registry.counter("iot.frames_dropped")
      .increment(after.dropped_frames - before.dropped_frames);
  registry.counter("iot.retransmissions")
      .increment(after.retransmissions - before.retransmissions);
  registry.counter("iot.uplink_bytes")
      .increment(after.uplink_bytes - before.uplink_bytes);
  registry.counter("iot.downlink_bytes")
      .increment(after.downlink_bytes - before.downlink_bytes);
  registry.counter("iot.samples_transferred")
      .increment(after.samples_transferred - before.samples_transferred);
}

void publish_round_metrics(const CommunicationStats& before,
                           const CommunicationStats& after,
                           const RoundReport& report) {
  auto& registry = telemetry::Telemetry::registry();
  registry.counter("iot.rounds").increment();
  publish_traffic_metrics(before, after);
  registry.gauge("iot.round_coverage").set(report.coverage);
  registry.gauge("iot.round_min_probability").set(report.min_probability);
  registry.histogram("iot.round_new_samples")
      .record(static_cast<double>(report.new_samples));
}

FlatNetwork::FlatNetwork(std::vector<std::vector<double>> node_data,
                         NetworkConfig config)
    : station_(node_data.size()),
      config_(config),
      faults_(config.faults, node_data.size()) {
  if (node_data.empty()) {
    throw std::invalid_argument("network needs >= 1 node");
  }
  if (config_.frame_loss_probability < 0.0 ||
      config_.frame_loss_probability >= 1.0) {
    throw std::invalid_argument("frame loss probability must be in [0, 1)");
  }
  if (config_.bit_corruption_probability < 0.0 ||
      config_.bit_corruption_probability >= 1.0) {
    throw std::invalid_argument("bit corruption probability must be in [0, 1)");
  }
  Rng master(config.seed);
  nodes_.reserve(node_data.size());
  for (std::size_t i = 0; i < node_data.size(); ++i) {
    total_data_count_ += node_data[i].size();
    nodes_.emplace_back(static_cast<int>(i), std::move(node_data[i]),
                        master.split());
  }
  // Channel streams come from the SAME master, after the k sampling splits:
  // node sampling streams keep their historical values, and every node's
  // link randomness is an independent child a parallel round can consume
  // without ordering constraints.
  channel_rngs_.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    channel_rngs_.push_back(master.split());
  }
}

void FlatNetwork::set_node_online(std::size_t node, bool online) {
  nodes_.at(node).set_online(online);
}

FlatNetwork::Delivery FlatNetwork::transmit(std::size_t frame_bytes,
                                            bool uplink, std::size_t node,
                                            CommunicationStats& stats) {
  Rng& rng = channel_rngs_[node];
  Delivery result;
  ++stats.frames_attempted;
  for (;;) {
    ++result.attempts;
    if (uplink) {
      ++stats.uplink_messages;
      stats.uplink_bytes += frame_bytes;
    } else {
      ++stats.downlink_messages;
      stats.downlink_bytes += frame_bytes;
    }
    // Draw the i.i.d. loss first, from the node's own channel stream.  The
    // burst channel is stepped even when the i.i.d. draw already lost the
    // frame — the fade process evolves with every attempt on the air, not
    // per delivery.
    const bool iid_lost = rng.bernoulli(config_.frame_loss_probability);
    const bool burst_lost = faults_.attempt_lost(node);
    if (!iid_lost && !burst_lost) {
      result.delivered = true;
      ++stats.frames_delivered;
      maybe_duplicate(frame_bytes, uplink, node, stats);
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

void FlatNetwork::maybe_duplicate(std::size_t frame_bytes, bool uplink,
                                  std::size_t node,
                                  CommunicationStats& stats) {
  if (!faults_.duplicate_frame(node)) return;
  ++stats.duplicated_frames;
  if (uplink) {
    ++stats.uplink_messages;
    stats.uplink_bytes += frame_bytes;
  } else {
    ++stats.downlink_messages;
    stats.downlink_bytes += frame_bytes;
  }
}

FlatNetwork::Delivery FlatNetwork::deliver_frame(const SampleReport& frame,
                                                 SampleReport& out,
                                                 CommunicationStats& stats) {
  const auto node = static_cast<std::size_t>(frame.node_id);
  if (!config_.byte_accurate) {
    const Delivery result =
        transmit(frame.wire_size(), /*uplink=*/true, node, stats);
    if (result.delivered) out = frame;
    return result;
  }
  // Byte-accurate path: serialize for real, lose/corrupt per attempt, and
  // keep retransmitting (within the budget) until a frame survives both the
  // channel and the CRC check.
  Rng& rng = channel_rngs_[node];
  Delivery result;
  ++stats.frames_attempted;
  for (;;) {
    auto encoded = encode(frame);
    ++result.attempts;
    stats.uplink_messages += 1;
    stats.uplink_bytes += encoded.size();
    bool failed = false;
    const bool iid_lost = rng.bernoulli(config_.frame_loss_probability);
    const bool burst_lost = faults_.attempt_lost(node);
    if (iid_lost || burst_lost) {
      ++stats.retransmissions;
      failed = true;
    } else {
      if (rng.bernoulli(config_.bit_corruption_probability)) {
        const auto byte_index = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(encoded.size()) - 1));
        const auto bit =
            static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
        encoded[byte_index] ^= bit;
      }
      try {
        out = decode_sample_report(encoded);
        result.delivered = true;
        ++stats.frames_delivered;
        maybe_duplicate(encoded.size(), /*uplink=*/true, node, stats);
        return result;
      } catch (const CodecError&) {
        ++stats.corrupted_frames;
        ++stats.retransmissions;
        failed = true;
      }
    }
    if (failed && config_.max_attempts != 0 &&
        result.attempts >= config_.max_attempts) {
      ++stats.dropped_frames;
      return result;
    }
    stats.backoff_slots += backoff_slots_after(result.attempts);
  }
}

RoundReport FlatNetwork::ensure_sampling_probability(double p) {
  if (!(p > 0.0) || p > 1.0) {
    throw std::invalid_argument("sampling probability must be in (0, 1]");
  }
  // The cache already satisfies the request: no traffic, no churn step.
  // The report says where each node stands relative to the *requested* p.
  if (auto noop = station_.noop_round_report(p)) {
    telemetry::counter("iot.rounds_noop").increment();
    return *std::move(noop);
  }
  RoundReport report;
  report.target_p = p;
  report.outcomes.assign(nodes_.size(), NodeOutcome::kDelivered);

  PRC_TRACE_SPAN("iot.round");
  telemetry::ScopedTimer round_timer(
      telemetry::histogram("iot.round_duration_us"));
  const CommunicationStats stats_before = stats_;
  faults_.begin_round();
  const std::size_t retrans_before = stats_.retransmissions;
  const std::size_t dropped_before = stats_.dropped_frames;
  std::vector<bool> refreshed(nodes_.size(), false);

  // Per-node lanes: each node's report generation + channel simulation runs
  // independently (its own channel RNG, burst state, and stats lane; the
  // station is internally mutexed and its per-node entries are disjoint),
  // so the loop parallelizes with no cross-node ordering.  Lanes are merged
  // serially in node order below, making the round bit-identical at any
  // thread count.
  struct NodeLane {
    CommunicationStats stats;
    std::size_t new_samples = 0;
    bool refreshed = false;
  };
  std::vector<NodeLane> lanes(nodes_.size());

  parallel::parallel_for_each(nodes_.size(), [&](std::size_t i) {
    auto& node = nodes_[i];
    auto& lane = lanes[i];
    const SampleRequest request{node.id(), p};
    // The station does not know which nodes crashed; the request goes out
    // regardless (and is charged), exactly like the real downlink.
    const Delivery down =
        transmit(request.wire_size(), /*uplink=*/false, i, lane.stats);
    const bool offline = !node.online() || faults_.node_offline(i);
    if (!down.delivered) {
      // The node never heard the request, so its local sampler did not move:
      // the station cache stays consistent, just older.
      report.outcomes[i] = NodeOutcome::kDropped;
      return;
    }
    if (offline) {
      PRC_LOG_DEBUG << "node " << node.id() << " offline; skipping round";
      report.outcomes[i] = station_.node_probability(i) > 0.0
                               ? NodeOutcome::kStale
                               : NodeOutcome::kOffline;
      return;
    }
    const SampleReport node_report = node.handle(request);
    if (send_report(node, node_report, lane.stats)) {
      lane.new_samples = node_report.new_samples.size();
      lane.stats.samples_transferred += node_report.new_samples.size();
      lane.refreshed = true;
    } else {
      report.outcomes[i] = NodeOutcome::kDropped;
    }
  });

  // Serial merge in node index order.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    stats_ += lanes[i].stats;
    report.new_samples += lanes[i].new_samples;
    refreshed[i] = lanes[i].refreshed;
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

bool FlatNetwork::send_report(SensorNode& node, const SampleReport& report,
                              CommunicationStats& stats) {
  const auto i = static_cast<std::size_t>(node.id());
  std::vector<SampleReport> arrived;
  // Small top-ups piggyback on the periodic heartbeat: charge only the
  // payload, not an extra frame header.  (Byte-accurate mode has no
  // standalone frame for a piggybacked report, so it always frames.)
  if (!config_.byte_accurate && !node.dirty() && !report.has_arrivals() &&
      report.new_samples.size() <= kHeartbeatPiggybackSamples) {
    if (transmit(report.wire_size() - kMessageHeaderBytes, /*uplink=*/true, i,
                 stats)
            .delivered) {
      ++stats.piggybacked_reports;
      arrived.push_back(report);
    }
  } else {
    // Split into frames of kMaxSamplesPerFrame samples, the arrivals section
    // riding in the first.  The sender aborts the burst at the first lost
    // frame.
    bool all_delivered = true;
    std::size_t offset = 0;
    do {
      const std::size_t take =
          std::min(kMaxSamplesPerFrame, report.new_samples.size() - offset);
      SampleReport frame;
      frame.node_id = report.node_id;
      frame.data_count = report.data_count;
      if (offset == 0) {
        frame.base_sequence = report.base_sequence;
        frame.base_samples = report.base_samples;
        frame.arrival_gaps = report.arrival_gaps;
      }
      frame.new_samples.assign(
          report.new_samples.begin() + static_cast<std::ptrdiff_t>(offset),
          report.new_samples.begin() +
              static_cast<std::ptrdiff_t>(offset + take));
      SampleReport delivered;
      if (!deliver_frame(frame, delivered, stats).delivered) {
        all_delivered = false;
        break;
      }
      arrived.push_back(std::move(delivered));
      offset += take;
    } while (offset < report.new_samples.size());
    if (!all_delivered) arrived.clear();
  }
  // Ingestion is atomic per node: a report is applied only when every frame
  // delivered; a half-applied report would leave the cache in no
  // well-defined probability state at all.
  if (arrived.empty()) {
    node.invalidate_cached_sample();
    return false;
  }
  return apply_report(node, arrived, station_);
}

void FlatNetwork::append_data(std::size_t node,
                              const std::vector<double>& values) {
  auto& sensor = nodes_.at(node);
  total_data_count_ += values.size();
  sensor.append_data(values);
}

std::size_t FlatNetwork::refresh_samples() {
  const CommunicationStats stats_before = stats_;
  std::size_t resynced = 0;
  for (auto& node : nodes_) {
    if (!node.has_unreported_changes()) continue;
    if (!node.online()) continue;  // resync deferred until the node rejoins
    const SampleReport report = node.report();
    if (send_report(node, report, stats_)) {
      ++resynced;
      stats_.samples_transferred += report.new_samples.size();
    }
  }
  publish_traffic_metrics(stats_before, stats_);
  return resynced;
}

}  // namespace prc::iot
