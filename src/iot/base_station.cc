#include "iot/base_station.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "common/byte_codec.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "estimator/basic_counting.h"
#include "iot/codec.h"

namespace prc::iot {

namespace {

std::shared_ptr<const NodeTermTable> fresh_term_table() {
  return std::make_shared<const NodeTermTable>(
      StationView::kEstimateMemoCapacity);
}

}  // namespace

BaseStation::BaseStation(std::size_t node_count)
    : entries_(node_count), node_terms_(fresh_term_table()) {
  PRC_CHECK(node_count > 0) << "base station needs >= 1 node";
}

BaseStation::BaseStation(const BaseStation& other)
    : node_terms_(fresh_term_table()) {
  std::lock_guard<std::mutex> lock(other.mutex_);
  entries_ = other.entries_;
  p_ = other.p_;
  version_counter_ = other.version_counter_;
  view_ = other.view_;
}

BaseStation& BaseStation::operator=(const BaseStation& other) {
  if (this == &other) return *this;
  // Copy out under the source lock first; never hold both mutexes at once.
  std::vector<NodeEntry> entries;
  double p = 0.0;
  std::uint64_t version_counter = 0;
  std::shared_ptr<const StationView> view;
  {
    std::lock_guard<std::mutex> lock(other.mutex_);
    entries = other.entries_;
    p = other.p_;
    version_counter = other.version_counter_;
    view = other.view_;
  }
  // This station's old table is keyed by its old versions, which the
  // copied ones may repeat with other contents.
  auto node_terms = fresh_term_table();
  std::lock_guard<std::mutex> lock(mutex_);
  entries_ = std::move(entries);
  p_ = p;
  version_counter_ = version_counter;
  node_terms_ = std::move(node_terms);
  view_ = std::move(view);
  return *this;
}

std::shared_ptr<const StationView> BaseStation::view() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (view_) return view_;
  auto view = std::make_shared<StationView>();
  const std::size_t k = entries_.size();
  view->samples.reserve(k);
  view->nodes.reserve(k);
  view->probabilities.reserve(k);
  view->reported.reserve(k);
  auto versions = std::make_shared<NodeVersions>();
  versions->reserve(k);
  CoverageSummary& cov = view->coverage;
  cov.target_p = p_;
  cov.node_count = k;
  std::size_t known_data = 0;
  std::size_t fresh_data = 0;
  bool any_unreported = false;
  double min_p = 1.0;
  for (const auto& entry : entries_) {
    view->samples.push_back(entry.samples);
    view->nodes.push_back(
        estimator::NodeSampleView{entry.samples.get(), entry.data_count});
    view->probabilities.push_back(entry.probability);
    view->reported.push_back(entry.reported);
    versions->push_back(entry.version);
    view->max_data_count = std::max(view->max_data_count, entry.data_count);
    view->total_data_count += entry.data_count;
    view->cached_samples += entry.samples->size();
    if (!entry.reported) {
      any_unreported = true;
      continue;
    }
    ++cov.reported_nodes;
    known_data += entry.data_count;
    cov.max_probability = std::max(cov.max_probability, entry.probability);
    if (entry.probability >= p_) {
      fresh_data += entry.data_count;
    } else {
      ++cov.stale_nodes;
    }
    if (entry.data_count > 0) min_p = std::min(min_p, entry.probability);
  }
  cov.min_probability =
      (any_unreported || cov.reported_nodes == 0) ? 0.0 : min_p;
  cov.coverage = known_data == 0 ? 0.0
                                 : static_cast<double>(fresh_data) /
                                       static_cast<double>(known_data);
  view->versions_ = std::move(versions);
  view->node_terms_ = node_terms_;
  view_ = std::move(view);
  return view_;
}

double StationView::rank_counting_estimate(
    const query::RangeQuery& range) const {
  PRC_CHECK(coverage.target_p > 0.0) << "no sampling round committed yet";
  const RangeKey key{std::bit_cast<std::uint64_t>(range.lower),
                     std::bit_cast<std::uint64_t>(range.upper)};
  // A hit copies only the sum out of the table; a miss copies the entry.
  std::optional<double> hit;
  std::optional<NodeTerms> old;
  node_terms_->read(key, [&](const NodeTerms& entry) {
    if (entry.versions == versions_) {
      hit = entry.sum;
    } else {
      old = entry;
    }
  });
  if (hit) return *hit;
  PRC_TRACE_SPAN("iot.station_estimate");
  const std::size_t k = nodes.size();
  const NodeVersions& versions = *versions_;
  if (old && *old->versions == versions) {
    node_terms_->replace(key, NodeTerms{versions_, old->sum, old->terms});
    return old->sum;
  }
  const auto terms = std::make_shared_for_overwrite<double[]>(k);
  const auto fill = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      terms[i] = old && (*old->versions)[i] == versions[i]
                     ? old->terms[i]
                     : estimator::rank_counting_node_term(
                           nodes[i], probabilities[i], range);
    }
  };
  // Fan out only where the estimator's own sum would (more than one reduce
  // chunk of nodes).
  if (k > parallel::kDefaultReduceChunk) {
    parallel::parallel_for(k, fill);
  } else {
    fill(0, k);
  }
  const double sum = estimator::rank_counting_term_sum({terms.get(), k});
  node_terms_->replace(key, NodeTerms{versions_, sum, terms});
  return sum;
}

double StationView::basic_counting_estimate(
    const query::RangeQuery& range) const {
  PRC_CHECK(coverage.target_p > 0.0) << "no sampling round committed yet";
  std::vector<const sampling::RankSampleSet*> sets;
  sets.reserve(nodes.size());
  for (const auto& node : nodes) sets.push_back(node.samples);
  return estimator::basic_counting_estimate(sets, coverage.target_p, range);
}

std::optional<RoundReport> StationView::noop_round_report(double p) const {
  if (p > coverage.target_p) return std::nullopt;
  RoundReport report;
  report.target_p = p;
  report.outcomes.assign(nodes.size(), NodeOutcome::kDelivered);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (probabilities[i] >= p) continue;
    report.outcomes[i] =
        reported[i] ? NodeOutcome::kStale : NodeOutcome::kOffline;
  }
  report.coverage = coverage.coverage;
  report.min_probability = coverage.min_probability;
  return report;
}

bool BaseStation::ingest(const SampleReport& report) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (report.node_id < 0 ||
      static_cast<std::size_t>(report.node_id) >= entries_.size()) {
    throw std::out_of_range("sample report from unknown node");
  }
  auto& entry = entries_[static_cast<std::size_t>(report.node_id)];
  // Build into a fresh set and swap the pointer: views holding the old
  // set keep reading it unchanged.
  if (report.has_arrivals()) {
    const auto& base = entry.samples->samples();
    if (report.base_sequence != entry.sequence ||
        report.base_samples != base.size()) {
      return false;
    }
    const auto& gaps = report.arrival_gaps;
    PRC_CHECK(std::is_sorted(gaps.begin(), gaps.end()) &&
              gaps.back() <= base.size())
        << "node " << report.node_id << ": malformed arrival gaps";
    // Every cached sample moves up by the arrivals inserted before it:
    // sample j is preceded by the arrivals whose gap is <= j.
    std::vector<sampling::RankedValue> shifted;
    shifted.reserve(base.size() + report.new_samples.size());
    std::size_t before = 0;
    for (std::size_t j = 0; j < base.size(); ++j) {
      while (before < gaps.size() && gaps[before] <= j) ++before;
      shifted.push_back(
          sampling::RankedValue{base[j].value, base[j].rank + before});
    }
    shifted.insert(shifted.end(), report.new_samples.begin(),
                   report.new_samples.end());
    entry.samples =
        std::make_shared<const sampling::RankSampleSet>(std::move(shifted));
    ++entry.sequence;
    static telemetry::Counter& deltas_applied =
        telemetry::counter("iot.station.deltas_applied");
    deltas_applied.increment();
  } else if (!report.new_samples.empty()) {
    entry.samples = std::make_shared<const sampling::RankSampleSet>(
        *entry.samples, sampling::RankSampleSet(report.new_samples));
  }
  entry.data_count = report.data_count;
  entry.reported = true;
  bump_version_locked(entry);
  view_.reset();
  static telemetry::Counter& reports_ingested =
      telemetry::counter("iot.station.reports_ingested");
  reports_ingested.increment();
  return true;
}

void BaseStation::replace(const SampleReport& full_report) {
  std::lock_guard<std::mutex> lock(mutex_);
  replace_locked(full_report);
}

void BaseStation::replace_locked(const SampleReport& full_report) {
  if (full_report.node_id < 0 ||
      static_cast<std::size_t>(full_report.node_id) >= entries_.size()) {
    throw std::out_of_range("sample report from unknown node");
  }
  auto& entry = entries_[static_cast<std::size_t>(full_report.node_id)];
  entry.data_count = full_report.data_count;
  entry.reported = true;
  entry.samples =
      std::make_shared<const sampling::RankSampleSet>(full_report.new_samples);
  entry.sequence = 0;
  bump_version_locked(entry);
  view_.reset();
  static telemetry::Counter& cache_replacements =
      telemetry::counter("iot.station.cache_replacements");
  cache_replacements.increment();
}

void BaseStation::commit_round(double p) {
  std::lock_guard<std::mutex> lock(mutex_);
  commit_round_locked(p, std::vector<bool>(entries_.size(), true));
}

void BaseStation::commit_round(double p, const std::vector<bool>& refreshed) {
  std::lock_guard<std::mutex> lock(mutex_);
  commit_round_locked(p, refreshed);
}

void BaseStation::commit_round_locked(double p,
                                      const std::vector<bool>& refreshed) {
  PRC_CHECK_PROB(p);
  // Monotone round targets are what make the cached sample reusable: the
  // incremental top-up argument (Bernoulli(p_old) extended to
  // Bernoulli(p_new)) only runs forward.
  PRC_CHECK(p >= p_) << "sampling probability cannot decrease (have " << p_
                     << ", got " << p << ")";
  PRC_CHECK(refreshed.size() == entries_.size())
      << "refreshed mask size mismatch: " << refreshed.size() << " vs "
      << entries_.size() << " nodes";
  p_ = p;
  view_.reset();
  std::size_t cached = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (refreshed[i] && entries_[i].probability < p) {
      entries_[i].probability = p;
      bump_version_locked(entries_[i]);
    }
    cached += entries_[i].samples->size();
  }
  static telemetry::Counter& rounds_committed =
      telemetry::counter("iot.station.rounds_committed");
  static telemetry::Gauge& cached_samples =
      telemetry::gauge("iot.station.cached_samples");
  static telemetry::Gauge& sampling_probability =
      telemetry::gauge("iot.station.sampling_probability");
  rounds_committed.increment();
  cached_samples.set(static_cast<double>(cached));
  sampling_probability.set(p);
}

namespace {

constexpr std::uint32_t kCheckpointMagic = 0x53435250;  // "PRCS"
// Version 2 added the per-node effective probability (v1 assumed one global
// p, which is exactly the stale-sample bias the probability field fixes).
constexpr std::uint32_t kCheckpointVersion = 2;
// A node is its reported flag, p_i, a frame length and a frame holding at
// least a header and data_count.
constexpr std::size_t kMinNodeBytes =
    1 + 8 + 4 + kMessageHeaderBytes + sizeof(std::uint64_t);

}  // namespace

std::vector<std::uint8_t> BaseStation::serialize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ByteWriter out;
  out.u32(kCheckpointMagic);
  out.u32(kCheckpointVersion);
  out.u32(static_cast<std::uint32_t>(entries_.size()));
  out.f64(p_);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const auto& entry = entries_[i];
    out.u8(entry.reported ? 1 : 0);
    out.f64(entry.probability);
    // Reuse the wire codec: one full SampleReport frame per node.
    SampleReport report;
    report.node_id = static_cast<int>(i);
    report.data_count = entry.data_count;
    report.new_samples = entry.samples->samples();
    out.blob(encode(report));
  }
  return std::move(out).take();
}

BaseStation BaseStation::deserialize(const std::vector<std::uint8_t>& bytes) {
  ByteReader<std::invalid_argument> in(bytes, "checkpoint truncated");
  if (in.u32() != kCheckpointMagic) {
    throw std::invalid_argument("checkpoint: bad magic");
  }
  if (in.u32() != kCheckpointVersion) {
    throw std::invalid_argument("checkpoint: unsupported version");
  }
  const std::uint32_t node_count =
      in.count(kMinNodeBytes, "checkpoint: node count exceeds its bytes");
  if (node_count == 0) {
    throw std::invalid_argument("checkpoint: zero nodes");
  }
  const double p = in.f64();
  // Written so that NaN fails too.
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("checkpoint: bad round probability");
  }

  BaseStation station(node_count);
  for (std::uint32_t i = 0; i < node_count; ++i) {
    const bool reported = in.u8() != 0;
    const double probability = in.f64();
    if (!(probability >= 0.0 && probability <= 1.0)) {
      throw std::invalid_argument("checkpoint: bad node probability");
    }
    const auto frame = in.blob();
    const SampleReport report = decode_sample_report(
        std::vector<std::uint8_t>(frame.begin(), frame.end()));
    if (report.node_id != static_cast<int>(i)) {
      throw std::invalid_argument("checkpoint: frame node id is not its slot");
    }
    if (reported) {
      std::lock_guard<std::mutex> lock(station.mutex_);
      station.replace_locked(report);
      station.entries_[i].probability = probability;
      station.bump_version_locked(station.entries_[i]);
    }
  }
  // Restore the round target without touching the per-node probabilities
  // that were just read back.
  {
    std::lock_guard<std::mutex> lock(station.mutex_);
    station.p_ = p;
  }
  return station;
}

}  // namespace prc::iot
