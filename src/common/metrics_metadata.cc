#include "common/metrics_metadata.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "common/prometheus.h"
#include "common/telemetry.h"

namespace prc::telemetry {

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

const std::vector<MetricMetadata>& all_metric_metadata() {
  static const std::vector<MetricMetadata> table = {
#define PRC_METRIC(metric_name, metric_kind, metric_unit, metric_help) \
  MetricMetadata{metric_name, MetricKind::metric_kind, metric_unit,    \
                 metric_help},
#include "common/metrics_metadata.inc"
#undef PRC_METRIC
  };
  return table;
}

const MetricMetadata* find_metric_metadata(const std::string& name) {
  static const std::unordered_map<std::string, const MetricMetadata*> index =
      [] {
        std::unordered_map<std::string, const MetricMetadata*> out;
        for (const auto& entry : all_metric_metadata()) {
          out.emplace(entry.name, &entry);
        }
        return out;
      }();
  auto found = index.find(name);
  return found == index.end() ? nullptr : found->second;
}

std::vector<std::string> snapshot_schema_problems(
    const TelemetrySnapshot& snapshot) {
  std::vector<std::string> problems;
  std::unordered_set<std::string> names;
  const auto check_metric = [&](const std::string& name, MetricKind kind) {
    const std::string what = std::string(metric_kind_name(kind)) + " " + name;
    if (!names.insert(name).second) {
      problems.push_back(what + " is exported more than once");
    }
    const MetricMetadata* entry = find_metric_metadata(name);
    if (entry == nullptr) {
      problems.push_back(what + " has no PRC_METRIC entry in "
                                "src/common/metrics_metadata.inc");
    } else if (entry->kind != kind) {
      problems.push_back(what + " is registered as a " +
                         metric_kind_name(entry->kind) +
                         " but exported in the " + metric_kind_name(kind) +
                         " section");
    }
  };
  for (const auto& [name, value] : snapshot.counters) {
    check_metric(name, MetricKind::kCounter);
  }
  for (const auto& [name, value] : snapshot.gauges) {
    check_metric(name, MetricKind::kGauge);
  }
  for (const auto& h : snapshot.histograms) {
    check_metric(h.name, MetricKind::kHistogram);
    const std::string what = "histogram " + h.name;
    const auto not_increasing = [](double a, double b) { return !(a < b); };
    if (h.bounds.empty() ||
        std::adjacent_find(h.bounds.begin(), h.bounds.end(),
                           not_increasing) != h.bounds.end()) {
      problems.push_back(what + ": bounds must be non-empty and strictly "
                                "increasing");
    }
    if (h.bucket_counts.size() != h.bounds.size() + 1) {
      problems.push_back(what + ": needs len(bounds)+1 bucket counts "
                                "(the last is the overflow bucket)");
    }
    const std::uint64_t total = std::accumulate(
        h.bucket_counts.begin(), h.bucket_counts.end(), std::uint64_t{0});
    if (total != h.count) {
      problems.push_back(what + ": bucket counts sum to " +
                         std::to_string(total) + " but count is " +
                         std::to_string(h.count));
    }
  }
  if (names.size() < kMinSnapshotMetrics) {
    problems.push_back("only " + std::to_string(names.size()) +
                       " metrics; expected at least " +
                       std::to_string(kMinSnapshotMetrics));
  }
  for (const char* layer : {"iot.", "dp.", "pricing.", "market."}) {
    if (!snapshot.has_prefix(layer)) {
      problems.push_back(std::string("no metrics from layer ") + layer);
    }
  }
  return problems;
}

std::vector<std::string> exposition_schema_problems(const std::string& text) {
  prometheus::ParsedExposition parsed;
  try {
    parsed = prometheus::parse_exposition(text);
  } catch (const std::invalid_argument& error) {
    return {error.what()};
  }
  if (parsed.families.empty()) return {"exposition has no metric families"};
  static const auto by_family = [] {
    std::unordered_map<std::string, const MetricMetadata*> out;
    for (const auto& entry : all_metric_metadata()) {
      out.emplace(prometheus::family_name(entry.name, entry.kind), &entry);
    }
    return out;
  }();
  std::vector<std::string> problems;
  for (const auto& family : parsed.families) {
    const auto found = by_family.find(family.name);
    if (found == by_family.end()) {
      problems.push_back("family " + family.name +
                         " has no PRC_METRIC entry in "
                         "src/common/metrics_metadata.inc");
    } else if (family.type != metric_kind_name(found->second->kind)) {
      problems.push_back("family " + family.name + " has TYPE " +
                         family.type + " but " + found->second->name +
                         " is registered as a " +
                         metric_kind_name(found->second->kind));
    }
  }
  return problems;
}

}  // namespace prc::telemetry
