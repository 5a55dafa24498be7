// A simulated smart device holding a local data multiset.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "iot/messages.h"
#include "sampling/local_sampler.h"

namespace prc::iot {

class BaseStation;

/// One sensor node in the flat network.  Owns its raw local data and its
/// sampling state; only samples (with ranks) and the local cardinality ever
/// leave the node.
class SensorNode {
 public:
  /// `rng` is this node's private stream (split from the network master).
  SensorNode(int id, std::vector<double> values, Rng rng);

  int id() const noexcept { return id_; }
  std::size_t data_count() const noexcept { return sampler_.data_count(); }
  double inclusion_probability() const noexcept {
    return sampler_.inclusion_probability();
  }
  std::size_t sample_count() const noexcept { return sampler_.sample_count(); }

  bool online() const noexcept { return online_; }
  void set_online(bool online) noexcept { online_ = online; }

  /// Handles a SampleRequest: tops the local sample up to the requested
  /// probability and returns report().  An offline node returns a report
  /// with no samples (the caller observes the dropout).
  SampleReport handle(const SampleRequest& request);

  /// What brings the station's copy up to date: the delta since the last
  /// acknowledged report (arrivals section plus newly selected samples), or
  /// the full sample when dirty().  A delta is never sent when the full
  /// sample is no larger on the wire (a batch of arrivals big relative to
  /// the sample): the node then marks itself dirty and resyncs in full.
  /// acknowledge() or invalidate_cached_sample() records the outcome.
  SampleReport report();

  /// Continuous collection: new readings arrive at the device.  Each is
  /// sampled at the current inclusion probability; the next report()
  /// carries their positions as an arrivals section.
  void append_data(const std::vector<double>& values);

  /// True when report() would carry anything: arrivals or samples the
  /// station has not acknowledged, or a pending full resync.
  bool has_unreported_changes() const noexcept {
    return dirty_ || sampler_.has_delta();
  }

  /// True when the next report() is a full resync (the station's cached
  /// copy is unusable, or the delta would not be smaller).
  bool dirty() const noexcept { return dirty_; }

  /// Marks the station's cached copy of this node as unusable, forcing a
  /// full resync on the next report.  The network calls this when a report
  /// was lost (the node's sampler already moved on, so the missing samples
  /// can only be recovered by retransmitting the whole sample) or when the
  /// station rejected a delta whose base did not match its cache.  Counted
  /// as iot.resync_fallbacks.
  void invalidate_cached_sample();

  /// The station accepted the last report(): it now holds current_sample().
  void acknowledge();

  /// The full-resync report (entire current sample + updated n_i).
  SampleReport full_report() const;

  /// The node's whole current sample (what the station holds once every
  /// report is acknowledged).
  sampling::RankSampleSet current_sample() const {
    return sampler_.current_sample();
  }

 private:
  int id_;
  sampling::LocalSampler sampler_;
  Rng rng_;
  bool online_ = true;
  bool dirty_ = false;
  /// Deltas with arrivals the station accepted since the last full resync
  /// (the rank epoch); mirrors the station's count for this node.
  std::uint32_t sequence_ = 0;
};

/// Applies the delivered frames of one node's report() at the station and
/// records the outcome at the node: a full resync replaces the cache, a
/// delta is ingested frame by frame.  Acknowledges the node when the
/// station accepts; a rejected delta (base mismatch) forces a full resync
/// instead.  Returns whether the station accepted.
bool apply_report(SensorNode& node, std::span<const SampleReport> frames,
                  BaseStation& station);

}  // namespace prc::iot
