// Metadata (kind, unit, help text) for every metric the process registers.
//
// The table lives in src/common/metrics_metadata.inc, compiled into
// all_metric_metadata().  It feeds the Prometheus exposition layer
// (HELP/TYPE lines) and the telemetry schema gate below, which
// `prc_query check-telemetry` runs over exported snapshots and
// expositions (a runtime metric without an entry fails CI).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace prc::telemetry {

struct TelemetrySnapshot;

enum class MetricKind { kCounter, kGauge, kHistogram };

/// "counter" / "gauge" / "histogram" (the Prometheus TYPE token).
const char* metric_kind_name(MetricKind kind);

struct MetricMetadata {
  const char* name;  ///< dotted registry name, e.g. "iot.round_duration_us"
  MetricKind kind;
  const char* unit;  ///< short unit token ("us", "bytes", ...; "1" = none)
  const char* help;  ///< one-sentence HELP text
};

/// The full table, in .inc order (sorted by name within each layer block).
const std::vector<MetricMetadata>& all_metric_metadata();

/// Lookup by dotted name; nullptr when the metric has no registered
/// metadata (the schema gate treats that as an error).
const MetricMetadata* find_metric_metadata(const std::string& name);

/// Fewest distinct metrics a full-pipeline snapshot may export.
inline constexpr std::size_t kMinSnapshotMetrics = 20;

/// Schema gate for a snapshot: every histogram has non-empty, strictly
/// increasing bounds and len(bounds)+1 bucket counts summing to its count;
/// names are unique across sections; at least kMinSnapshotMetrics metrics
/// cover the iot., dp., pricing. and market. layers; and every metric has
/// a metadata entry of the kind its section says.  One message per
/// violation; empty means valid.
std::vector<std::string> snapshot_schema_problems(
    const TelemetrySnapshot& snapshot);

/// Schema gate for an exposition: prometheus::parse_exposition() accepts
/// it, it has at least one family, and every family maps back to a
/// metadata entry whose TYPE matches (prometheus::family_name).
std::vector<std::string> exposition_schema_problems(const std::string& text);

}  // namespace prc::telemetry
