// Prometheus text exposition (format 0.0.4) for the telemetry registry —
// the export plane a stock Prometheus scrapes via metrics_http.h and the
// on-disk `.prom` artifacts benches and prc_query write next to their JSON
// snapshots.
//
// Rendering rules:
//  - dotted registry names are sanitized to the Prometheus charset and
//    prefixed "prc_": "iot.round_duration_us" -> "prc_iot_round_duration_us";
//  - counters get the conventional "_total" suffix (unless already present);
//  - histograms emit CUMULATIVE `le` buckets (the registry stores per-bucket
//    counts) ending in le="+Inf", plus `_sum` and `_count` series;
//  - every family carries `# HELP` and `# TYPE` lines sourced from the
//    metadata registry (src/common/metrics_metadata.inc); a metric without
//    metadata still renders (with a placeholder HELP) so the exposition is
//    never silently partial — the schema gate (`prc_query
//    check-telemetry`, metrics_metadata.h) is what fails the build.
//
// parse_exposition() is a promtool-style validating parser used by the
// endpoint smoke tests and the schema gate; it rejects the mistakes this layer
// could plausibly make (missing HELP/TYPE, bad names, non-cumulative or
// unsorted buckets, `+Inf` != `_count`).
//
// Exposition output obeys the telemetry.h privacy-safety rule by
// construction: it renders only what the registry already holds.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/metrics_metadata.h"
#include "common/telemetry.h"

namespace prc::telemetry::prometheus {

/// Content-Type for exposition responses and files.
inline const char* content_type() {
  return "text/plain; version=0.0.4; charset=utf-8";
}

/// Maps a dotted registry name into the Prometheus charset: every character
/// outside [a-zA-Z0-9_:] becomes '_', and the result is prefixed "prc_".
std::string sanitize_metric_name(const std::string& name);

/// Exposition family of a registry metric: sanitize_metric_name(), plus the
/// "_total" suffix for counters (unless the name already ends in it).
std::string family_name(const std::string& name, MetricKind kind);

/// Renders the snapshot in exposition format 0.0.4.  Deterministic: families
/// appear in snapshot order (counters, then gauges, then histograms, each
/// sorted by name), so output is golden-testable.
std::string render(const TelemetrySnapshot& snapshot);

/// One sample line, labels in appearance order.
struct ParsedSample {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0.0;

  /// Value of label `key`, or "" when absent.
  std::string label(const std::string& key) const;
};

/// One metric family: a TYPE declaration plus its samples.
struct ParsedFamily {
  std::string name;
  std::string help;
  std::string type;  ///< "counter", "gauge", "histogram", ...
  std::vector<ParsedSample> samples;
};

struct ParsedExposition {
  std::vector<ParsedFamily> families;

  const ParsedFamily* find(const std::string& name) const;
};

/// Validating parser for the exposition format (promtool-style strictness).
/// Throws std::invalid_argument, citing the offending line, when:
///  - a sample has no preceding `# TYPE` family or an invalid name/value;
///  - a family lacks a `# HELP` line or is declared twice;
///  - a histogram's `le` buckets are unsorted or non-cumulative, the
///    `+Inf` bucket is missing or disagrees with `_count`, or `_sum` /
///    `_count` are absent.
ParsedExposition parse_exposition(const std::string& text);

}  // namespace prc::telemetry::prometheus
