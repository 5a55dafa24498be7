#include "iot/node.h"

#include <limits>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "common/telemetry.h"
#include "iot/base_station.h"

namespace prc::iot {

SensorNode::SensorNode(int id, std::vector<double> values, Rng rng)
    : id_(id), sampler_(std::move(values)), rng_(rng) {}

SampleReport SensorNode::handle(const SampleRequest& request) {
  if (request.node_id != id_) {
    throw std::invalid_argument("sample request routed to wrong node");
  }
  if (!online_) {  // dropout: nothing new reported
    SampleReport report;
    report.node_id = id_;
    report.data_count = sampler_.data_count();
    return report;
  }
  sampler_.raise_probability(request.target_p, rng_);
  return report();
}

SampleReport SensorNode::report() {
  if (dirty_) return full_report();
  auto delta = sampler_.delta();
  const std::size_t full_bytes =
      SampleReport{}.wire_size() + sampler_.sample_count() * kSampleWireBytes;
  SampleReport report;
  report.node_id = id_;
  report.data_count = sampler_.data_count();
  report.new_samples = std::move(delta.added);
  if (!delta.arrival_gaps.empty()) {
    PRC_CHECK(delta.base_samples <= std::numeric_limits<std::uint32_t>::max())
        << "node " << id_ << ": " << delta.base_samples
        << " samples exceed the arrivals section's u32 range";
    report.base_sequence = sequence_;
    report.base_samples = static_cast<std::uint32_t>(delta.base_samples);
    report.arrival_gaps.reserve(delta.arrival_gaps.size());
    for (const std::uint64_t gap : delta.arrival_gaps) {
      report.arrival_gaps.push_back(static_cast<std::uint32_t>(gap));
    }
  }
  if (!report.has_arrivals() || report.wire_size() < full_bytes) {
    return report;
  }
  dirty_ = true;
  return full_report();
}

void SensorNode::append_data(const std::vector<double>& values) {
  sampler_.append(values, rng_);
}

void SensorNode::acknowledge() {
  if (dirty_) {
    sequence_ = 0;
  } else if (sampler_.has_arrivals()) {
    ++sequence_;
  }
  dirty_ = false;
  sampler_.mark_reported();
}

void SensorNode::invalidate_cached_sample() {
  dirty_ = true;
  static telemetry::Counter& resync_fallbacks =
      telemetry::counter("iot.resync_fallbacks");
  resync_fallbacks.increment();
}

SampleReport SensorNode::full_report() const {
  SampleReport report;
  report.node_id = id_;
  report.data_count = sampler_.data_count();
  report.new_samples = sampler_.current_sample().samples();
  return report;
}

bool apply_report(SensorNode& node, std::span<const SampleReport> frames,
                  BaseStation& station) {
  PRC_CHECK(!frames.empty()) << "apply_report needs at least one frame";
  bool accepted = true;
  if (node.dirty()) {
    SampleReport full = frames.front();
    for (std::size_t f = 1; f < frames.size(); ++f) {
      full.new_samples.insert(full.new_samples.end(),
                              frames[f].new_samples.begin(),
                              frames[f].new_samples.end());
    }
    station.replace(full);
  } else {
    // Only the first frame can carry arrivals, so a rejection leaves the
    // cache untouched.
    for (const auto& frame : frames) {
      if (!station.ingest(frame)) {
        accepted = false;
        break;
      }
    }
  }
  if (accepted) {
    node.acknowledge();
  } else {
    node.invalidate_cached_sample();
  }
  return accepted;
}

}  // namespace prc::iot
