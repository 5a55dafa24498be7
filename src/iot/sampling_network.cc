#include "iot/sampling_network.h"

#include <stdexcept>
#include <utility>

#include "common/telemetry.h"
#include "common/trace.h"

namespace prc::iot {
namespace {

std::vector<SensorNode> make_nodes(std::vector<std::vector<double>>&& data,
                                   Rng& master) {
  if (data.empty()) throw std::invalid_argument("network needs >= 1 node");
  std::vector<SensorNode> nodes;
  nodes.reserve(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    nodes.emplace_back(static_cast<int>(i), std::move(data[i]),
                       master.split());
  }
  return nodes;
}

/// publish_traffic_metrics() for one collection round, plus the round
/// count and the resulting coverage.
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

SamplingNetwork::SamplingNetwork(std::vector<std::vector<double>> node_data,
                                 std::uint64_t seed,
                                 double frame_loss_probability,
                                 std::size_t max_attempts,
                                 const FaultConfig& faults)
    : SamplingNetwork(std::move(node_data), Rng(seed), frame_loss_probability,
                      max_attempts, faults) {}

// The k node sampling streams are split first and keep their historical
// values; the link's k channel streams come from the same master after
// them.
SamplingNetwork::SamplingNetwork(std::vector<std::vector<double>>&& node_data,
                                 Rng master, double frame_loss_probability,
                                 std::size_t max_attempts,
                                 const FaultConfig& faults)
    : nodes_(make_nodes(std::move(node_data), master)),
      link_(frame_loss_probability, max_attempts, faults, nodes_.size(),
            master),
      station_(nodes_.size()) {
  for (const auto& node : nodes_) total_data_count_ += node.data_count();
}

RoundReport SamplingNetwork::ensure_sampling_probability(double p) {
  std::shared_ptr<const StationView> view;
  if (ensure_sampling_probability(p, view)) return last_round_;
  // The report of a round that needed none says where each node stands
  // relative to the *requested* p.
  return *view->noop_round_report(p);
}

bool SamplingNetwork::ensure_sampling_probability(
    double p, std::shared_ptr<const StationView>& view) {
  if (!(p > 0.0) || p > 1.0) {
    throw std::invalid_argument("sampling probability must be in (0, 1]");
  }
  if (!view || p > view->coverage.target_p) view = station_.view();
  // The cache already satisfies the request: no traffic, no churn step.
  if (p <= view->coverage.target_p) {
    static telemetry::Counter& rounds_noop =
        telemetry::counter("iot.rounds_noop");
    rounds_noop.increment();
    return false;
  }
  PRC_TRACE_SPAN("iot.round");
  telemetry::ScopedTimer round_timer(
      telemetry::histogram("iot.round_duration_us"));
  const CommunicationStats stats_before = stats_;
  link_.faults().begin_round();

  RoundReport report;
  report.target_p = p;
  report.outcomes.assign(nodes_.size(), NodeOutcome::kDelivered);
  std::vector<NodeLane> lanes(nodes_.size());
  collect(p, *view, lanes, report.outcomes);

  std::vector<bool> refreshed(nodes_.size(), false);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    stats_ += lanes[i].stats;
    report.new_samples += lanes[i].new_samples;
    if (lanes[i].severed) ++report.severed_reports;
    refreshed[i] = lanes[i].refreshed;
  }
  station_.commit_round(p, refreshed);
  report.retries = stats_.retransmissions - stats_before.retransmissions;
  report.dropped_frames = stats_.dropped_frames - stats_before.dropped_frames;
  view = station_.view();
  report.coverage = view->coverage.coverage;
  report.min_probability = view->coverage.min_probability;
  last_round_ = std::move(report);
  publish_round_metrics(stats_before, stats_, last_round_);
  return true;
}

}  // namespace prc::iot
