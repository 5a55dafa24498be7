#include "iot/network.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "common/logging.h"
#include "common/parallel.h"
#include "iot/codec.h"

namespace prc::iot {

FlatNetwork::FlatNetwork(std::vector<std::vector<double>> node_data,
                         NetworkConfig config)
    : SamplingNetwork(std::move(node_data), config.seed,
                      config.frame_loss_probability, config.max_attempts,
                      config.faults),
      config_(config) {
  if (config_.bit_corruption_probability < 0.0 ||
      config_.bit_corruption_probability >= 1.0) {
    throw std::invalid_argument("bit corruption probability must be in [0, 1)");
  }
}

bool FlatNetwork::deliver_frame(const SampleReport& frame, SampleReport& out,
                                CommunicationStats& stats) {
  const auto node = static_cast<std::size_t>(frame.node_id);
  if (!config_.byte_accurate) {
    if (!link_.transmit({.node = node, .bytes = frame.wire_size()}, stats)
             .delivered) {
      return false;
    }
    out = frame;
    return true;
  }
  // Byte-accurate path: serialize for real; every attempt that survives the
  // channel may have one bit flipped in flight and must pass the CRC check.
  const std::vector<std::uint8_t> encoded = encode(frame);
  const auto decodes = [&](Rng& rng) {
    std::vector<std::uint8_t> corrupted;
    const std::vector<std::uint8_t>* received = &encoded;
    if (rng.bernoulli(config_.bit_corruption_probability)) {
      corrupted = encoded;
      const auto byte_index = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(encoded.size()) - 1));
      corrupted[byte_index] ^=
          static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      received = &corrupted;
    }
    try {
      out = decode_sample_report(*received);
      return true;
    } catch (const CodecError&) {
      return false;
    }
  };
  return link_
      .transmit({.node = node, .bytes = encoded.size()}, stats, decodes)
      .delivered;
}

void FlatNetwork::collect(double p, const StationView& before,
                          std::span<NodeLane> lanes,
                          std::span<NodeOutcome> outcomes) {
  // Each node's report generation and channel simulation run independently
  // (its own channel RNG, burst state and stats lane; the station is
  // internally mutexed and its per-node entries are disjoint), so the loop
  // parallelizes with no cross-node ordering.
  parallel::parallel_for_each(nodes_.size(), [&](std::size_t i) {
    auto& node = nodes_[i];
    auto& lane = lanes[i];
    const SampleRequest request{node.id(), p};
    // The station does not know which nodes crashed; the request goes out
    // regardless (and is charged), exactly like the real downlink.
    if (!link_.transmit({.node = i, .bytes = request.wire_size(),
                         .uplink = false},
                        lane.stats)
             .delivered) {
      // The node never heard the request, so its local sampler did not move:
      // the station cache stays consistent, just older.
      outcomes[i] = NodeOutcome::kDropped;
      return;
    }
    if (!node.online() || link_.faults().node_offline(i)) {
      PRC_LOG_DEBUG << "node " << node.id() << " offline; skipping round";
      outcomes[i] = absent_outcome(before, i);
      return;
    }
    const SampleReport node_report = node.handle(request);
    if (send_report(node, node_report, lane.stats)) {
      lane.new_samples = node_report.new_samples.size();
      lane.stats.samples_transferred += node_report.new_samples.size();
      lane.refreshed = true;
    } else {
      outcomes[i] = NodeOutcome::kDropped;
    }
  });
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
    if (link_
            .transmit({.node = i,
                       .bytes = report.wire_size() - kMessageHeaderBytes},
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
      if (!deliver_frame(frame, delivered, stats)) {
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
