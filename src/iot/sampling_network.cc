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
  static telemetry::Counter& rounds = telemetry::counter("iot.rounds");
  static telemetry::Gauge& coverage = telemetry::gauge("iot.round_coverage");
  static telemetry::Gauge& min_probability =
      telemetry::gauge("iot.round_min_probability");
  static telemetry::Histogram& new_samples =
      telemetry::histogram("iot.round_new_samples");
  rounds.increment();
  publish_traffic_metrics(before, after);
  coverage.set(report.coverage);
  min_probability.set(report.min_probability);
  new_samples.record(static_cast<double>(report.new_samples));
}

}  // namespace

void publish_traffic_metrics(const CommunicationStats& before,
                             const CommunicationStats& after) {
  static telemetry::Counter& frames_attempted =
      telemetry::counter("iot.frames_attempted");
  static telemetry::Counter& frames_delivered =
      telemetry::counter("iot.frames_delivered");
  static telemetry::Counter& frames_dropped =
      telemetry::counter("iot.frames_dropped");
  static telemetry::Counter& retransmissions =
      telemetry::counter("iot.retransmissions");
  static telemetry::Counter& uplink_bytes =
      telemetry::counter("iot.uplink_bytes");
  static telemetry::Counter& downlink_bytes =
      telemetry::counter("iot.downlink_bytes");
  static telemetry::Counter& samples_transferred =
      telemetry::counter("iot.samples_transferred");
  frames_attempted.increment(after.frames_attempted - before.frames_attempted);
  frames_delivered.increment(after.frames_delivered - before.frames_delivered);
  frames_dropped.increment(after.dropped_frames - before.dropped_frames);
  retransmissions.increment(after.retransmissions - before.retransmissions);
  uplink_bytes.increment(after.uplink_bytes - before.uplink_bytes);
  downlink_bytes.increment(after.downlink_bytes - before.downlink_bytes);
  samples_transferred.increment(after.samples_transferred -
                                before.samples_transferred);
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
  static telemetry::Histogram& round_duration =
      telemetry::histogram("iot.round_duration_us");
  telemetry::ScopedTimer round_timer(round_duration);
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
