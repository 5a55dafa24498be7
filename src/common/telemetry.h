// Process-wide metrics registry: counters, gauges and fixed-bucket
// histograms, exportable as a structured TelemetrySnapshot (JSON + CSV).
//
// Every layer of the pipeline (collection -> DP -> pricing -> market)
// records what it DOES — rounds run, frames dropped, optimizer grid points
// evaluated, menus validated, sales refused — so a production operator can
// account per-query budget spend and revenue without ad-hoc prints.
//
// PRIVACY SAFETY RULE (lint-enforced: no-raw-to-sink, interproc-raw-taint):
// metric samples may only be counts of events, sizes, durations, prices,
// and already-released (perturbed or amplified) quantities.  Raw sensor values
// (`Record::value`), cached sample contents, and unperturbed estimates
// (`sampled_estimate`, `*_estimate(...)` results) must NEVER be passed to
// Counter/Gauge/Histogram record paths: telemetry is exported outside the
// trust boundary and is not covered by the DP budget accounting.
//
// Thread-safety: Counter and Gauge are lock-free atomics; Histogram and the
// registry map are mutex-protected (PRC_GUARDED_BY-annotated).  References
// returned by the registry stay valid for the process lifetime — reset()
// zeroes metrics in place, it never destroys them — so hot paths may cache
// them in function-local statics.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace prc::telemetry {

/// Monotonic event counter.
class Counter {
 public:
  void increment(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  // Relaxed monotonic monitoring cell: dashboards tolerate torn-epoch
  // reads; nothing synchronizes on a counter value.
  std::atomic<std::uint64_t> value_{0};  // lint:allow atomic
};

/// Last-value gauge with an additive form for accumulating released doubles
/// (e.g. total epsilon' spent across a session).
class Gauge {
 public:
  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(double delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  // Relaxed last-value/additive monitoring cell; see Counter::value_.
  std::atomic<double> value_{0.0};  // lint:allow atomic
};

/// Point-in-time view of one histogram, with interpolated quantiles.
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  /// Finite upper bounds; bucket_counts has one extra overflow slot.
  std::vector<double> bounds;
  std::vector<std::uint64_t> bucket_counts;

  double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Fixed-bucket latency/size histogram.  Bucket upper bounds are immutable
/// after construction; quantiles are estimated by linear interpolation
/// inside the bucket holding the requested rank (clamped to the exact
/// observed [min, max]).  A value's bucket is the first bound >= it, as
/// std::lower_bound finds it, looked up in O(1) for bounds spread over
/// binary exponents (the default 1-2-5 series has at most one per binade).
class Histogram {
 public:
  /// `bounds` must be strictly increasing and non-empty; an implicit
  /// overflow bucket covers (bounds.back(), +inf).
  explicit Histogram(std::vector<double> bounds);

  /// Records one finite value: record_all() of a batch of one.
  void record(double value);
  /// Records `values` in order under one lock: the count, sum, min, max
  /// and buckets come out as from one record() per value.  Every value must
  /// be finite; a batch holding a non-finite value records nothing.
  void record_all(std::span<const double> values);

  HistogramSnapshot snapshot() const;
  void reset();

 private:
  std::size_t bucket_of(double value) const;
  double quantile_locked(double q) const PRC_REQUIRES(mutex_);

  const std::vector<double> bounds_;  // immutable after construction
  // bucket_of's first candidate per value key (see exponent_key in
  // telemetry.cc), for the keys from the smallest bound's to the largest's:
  // index counts the bounds whose key is below the key, and bound is
  // bounds_[index].  The integers are 32-bit so that record_all's stores
  // to the 64-bit counts_ cannot alias them.
  struct Candidate {
    double bound;
    std::uint32_t index;
  };
  std::uint32_t first_key_ = 0;
  std::vector<Candidate> first_bound_;  // immutable after construction
  mutable std::mutex mutex_;
  std::vector<std::uint64_t> counts_ PRC_GUARDED_BY(mutex_);
  std::uint64_t count_ PRC_GUARDED_BY(mutex_) = 0;
  double sum_ PRC_GUARDED_BY(mutex_) = 0.0;
  double min_ PRC_GUARDED_BY(mutex_) = 0.0;
  double max_ PRC_GUARDED_BY(mutex_) = 0.0;
};

/// Whole-registry export: every metric by kind, names sorted, diffable by
/// benches and CI.
struct TelemetrySnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Distinct metric names across all kinds.
  std::size_t metric_count() const noexcept;

  /// True when some metric name starts with `prefix` (layer coverage
  /// checks: "iot.", "dp.", "pricing.", "market.").
  bool has_prefix(const std::string& prefix) const;

  /// Structured JSON: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, min, max, p50, p95, p99,
  /// bounds, bucket_counts}}}.  Doubles keep round-trip precision.
  std::string to_json() const;

  /// Flat CSV: kind,name,field,value — one row per scalar.
  std::string to_csv() const;

  /// Parses the exact dialect to_json() emits (snapshot round-trips are a
  /// tested invariant; this is not a general JSON parser).  Throws
  /// std::invalid_argument on malformed input: a count that is negative,
  /// fractional or non-finite, a histogram missing a field, or anything
  /// after the closing brace.
  static TelemetrySnapshot from_json(const std::string& json);
};

/// The default 1-2-5 log-spaced bucket bounds (1e-6 .. 1e9), wide enough
/// for microsecond latencies, byte sizes, prices and budgets alike.
const std::vector<double>& default_bounds();

/// Named-metric registry.  The process-wide instance is
/// Telemetry::registry(); lookups are by full metric name
/// ("layer.subject[_unit]", e.g. "iot.round_duration_us").
class Telemetry {
 public:
  /// The process-wide registry.
  static Telemetry& registry();

  /// Finds or creates; the returned reference lives as long as the process.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Histograms are created with default_bounds().
  Histogram& histogram(const std::string& name);

  TelemetrySnapshot snapshot() const;

  /// Zeroes every registered metric IN PLACE (references stay valid).
  void reset();

  Telemetry() = default;
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

 private:
  mutable std::mutex mutex_;
  // Values live behind unique_ptr so the references handed out stay stable
  // across rehashes.
  std::unordered_map<std::string, std::unique_ptr<Counter>> counters_
      PRC_GUARDED_BY(mutex_);
  std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges_
      PRC_GUARDED_BY(mutex_);
  std::unordered_map<std::string, std::unique_ptr<Histogram>> histograms_
      PRC_GUARDED_BY(mutex_);
};

/// Convenience accessors against the process-wide registry.
inline Counter& counter(const std::string& name) {
  return Telemetry::registry().counter(name);
}
inline Gauge& gauge(const std::string& name) {
  return Telemetry::registry().gauge(name);
}
inline Histogram& histogram(const std::string& name) {
  return Telemetry::registry().histogram(name);
}

/// The steady clock in nanoseconds: the one clock ScopedTimer and the span
/// tracer read.
std::int64_t steady_now_ns();

/// RAII wall-clock timer recording elapsed microseconds into a histogram at
/// scope exit (steady clock).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& sink);
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer();

 private:
  Histogram& sink_;
  std::int64_t start_ns_;
};

}  // namespace prc::telemetry
