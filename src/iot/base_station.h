// The base station: caches node samples and answers estimates from them.
//
// Holds, per node, the accumulated rank-annotated sample, the reported
// local cardinality, and the *effective inclusion probability* p_i the
// cached sample is valid for.  The "one sample, multiple queries" property
// of the paper falls out of this cache: queries are answered from it without
// touching the network, and only a request for a higher sampling
// probability triggers a top-up round.
//
// Per-node probabilities matter under degraded collection: a node that was
// offline (or whose frames were dropped) across a top-up round keeps a
// perfectly valid Bernoulli(p_old) sample while the rest of the fleet moved
// to p_new.  Estimating with one global p would bias that node's
// contribution; the station therefore records p_i per node and the
// RankCounting path applies the per-node Horvitz–Thompson correction.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/lru_memo.h"
#include "common/thread_annotations.h"
#include "estimator/rank_counting.h"
#include "iot/messages.h"
#include "iot/round_report.h"
#include "query/range_query.h"
#include "sampling/rank_sample.h"

namespace prc::iot {

/// Aggregate view of how well the cache covers the fleet; what the DP
/// session and the broker consult before asserting an accuracy contract.
struct CoverageSummary {
  /// The last committed round target.
  double target_p = 0.0;
  /// Smallest effective p_i over nodes with known data; 0 when some node
  /// has never reported (its data is entirely invisible to estimates).
  double min_probability = 0.0;
  /// Largest effective p_i (privacy amplification must use this one:
  /// the most-included node enjoys the least amplification).
  double max_probability = 0.0;
  /// Fraction of station-known data held at p_i >= target_p.  A node that
  /// never reported adds nothing to either side, so it does not lower
  /// coverage; min_probability == 0 is what shows it.
  double coverage = 0.0;
  std::size_t reported_nodes = 0;
  /// Reported nodes whose p_i lags the round target.
  std::size_t stale_nodes = 0;
  std::size_t node_count = 0;

  /// Every node reported and none lag the round target.
  bool complete() const noexcept {
    return node_count > 0 && reported_nodes == node_count && stale_nodes == 0;
  }
};

/// A range's memo key: the bit patterns of (lower, upper).
using RangeKey = std::array<std::uint64_t, 2>;
struct RangeKeyHash {
  std::size_t operator()(const RangeKey& key) const noexcept {
    return hash_words(key);
  }
};

/// Per node: the station version of its state in one view.
using NodeVersions = std::vector<std::uint64_t>;

/// One range's RankCounting estimate and its per-node terms: terms[i] was
/// computed from node i's state at station version (*versions)[i], and sum
/// is rank_counting_term_sum of the k terms.  Both arrays are published and
/// never mutated.  `versions` is the versions array of the last view that
/// asked for the range, shared with it: that view's estimate is `sum`.
struct NodeTerms {
  std::shared_ptr<const NodeVersions> versions;
  double sum = 0.0;
  std::shared_ptr<const double[]> terms;
};

/// The station's only estimate cache: NodeTerms by range, shared by every
/// view it publishes.  Not a pure function of the key (entries age as
/// nodes change), so a view writes its entry back with replace().
using NodeTermTable = LruMemo<RangeKey, NodeTerms, RangeKeyHash>;

/// One published state of the station cache: everything a reader needs
/// about the fleet, built once per change and never mutated afterwards.
/// It holds one shared pointer per node to the node's (immutable) sample
/// set, so it stays valid, and its estimates stay the same, whatever the
/// station ingests, replaces or commits after it was published.  Its
/// RankCounting estimates go through the station's NodeTermTable, which
/// locks internally; the table changes how fast a range is answered, never
/// what it returns.
struct StationView {
  /// Most distinct ranges the station's term table holds (the shipped
  /// workloads ask 28); the least recently asked one is evicted past that.
  static constexpr std::size_t kEstimateMemoCapacity = 256;

  /// Keeps every set in `nodes` alive.
  std::vector<std::shared_ptr<const sampling::RankSampleSet>> samples;
  /// Per node: the cached sample and the reported n_i.
  std::vector<estimator::NodeSampleView> nodes;
  /// Per node: effective p_i of the cached sample (0 until it delivers).
  std::vector<double> probabilities;
  /// Per node: delivered at least one report.
  std::vector<bool> reported;
  /// Coverage relative to the last committed round target, which is
  /// coverage.target_p.
  CoverageSummary coverage;
  std::size_t max_data_count = 0;    // largest n_i
  std::size_t total_data_count = 0;  // sum of n_i
  std::size_t cached_samples = 0;

  std::size_t node_count() const noexcept { return nodes.size(); }

  /// RankCounting estimate applying each node's own p_i (heterogeneous
  /// Horvitz–Thompson correction).  Requires a committed round.  Returns
  /// the same bits as estimator::rank_counting_estimate(nodes,
  /// probabilities, range).  When this view was the last to ask for the
  /// range (by the bit patterns of (lower, upper)), that is the sum the
  /// station's term table stored for it.  Otherwise the table's terms of
  /// the nodes whose version this view shares are summed with fresh terms
  /// of the rest over the estimator's chunk grid, and the entry is
  /// replaced.
  double rank_counting_estimate(const query::RangeQuery& range) const;

  /// BasicCounting baseline.  Deliberately kept at the seed-style single
  /// global probability: it is the biased baseline the degraded-operation
  /// benches compare against.  Requires a committed round.
  double basic_counting_estimate(const query::RangeQuery& range) const;

  /// The report of a round that needs no traffic: when the cache already
  /// satisfies `p` (p <= coverage.target_p), each node's standing relative
  /// to `p` (kDelivered at p_i >= p, else kStale if it has reported,
  /// kOffline if not) with the cache's coverage.  nullopt when a real round
  /// is needed.
  std::optional<RoundReport> noop_round_report(double p) const;

  /// Ranges the station's term table holds (at most
  /// kEstimateMemoCapacity).
  std::size_t memoized_estimates() const { return node_terms_->size(); }

 private:
  friend class BaseStation;

  std::shared_ptr<const NodeVersions> versions_;
  /// The publishing station's term table.
  std::shared_ptr<const NodeTermTable> node_terms_;
};

/// Thread-safety: every public method takes the internal mutex, so readers
/// and ingest/commit calls may race freely once collection goes parallel.
/// A reader takes view() once and reads everything from it: the view is
/// immutable, so what it reports (p, coverage, samples, estimates) comes
/// from one cache state by construction, and any number of threads may
/// share one view.  The exceptions are node_views() (the returned views
/// point at sets that only the view, not the caller, keeps alive: an ingest
/// or replace may drop the last owner, so keep the station quiescent while
/// an estimator consumes them, or hold view() instead) and the reference
/// returned by SamplingNetwork::base_station().
/// The PRC_GUARDED_BY annotations make clang's -Wthread-safety enforce the
/// discipline when PRC_THREAD_SAFETY_ANALYSIS is on.
///
/// Published sample sets are immutable and shared.  Each node's cached
/// sample is a shared_ptr<const RankSampleSet>: ingest() and replace()
/// build the new set into a fresh allocation and swap the pointer, and
/// never write to a set that has been published.  The view is built lazily
/// under the mutex on the first read after a change, and every later read
/// shares it until the next ingest, replace or commit_round.  The term
/// table behind its estimates outlives views: every write to a node's
/// samples, n_i or p_i gives the node a new version from the station's
/// counter, a view reuses a stored term only at the version it was
/// computed at, and a stored sum only when the entry holds the view's own
/// versions array.  A copy or an assignment target starts a fresh term
/// table, so versions are never compared across stations.
class BaseStation {
 public:
  explicit BaseStation(std::size_t node_count);

  // Copyable (checkpoint restore returns by value); the mutex and the term
  // table are never copied — each station guards its own cache and keys
  // its own table by its own versions.
  BaseStation(const BaseStation& other);
  BaseStation& operator=(const BaseStation& other);

  /// The current state of the cache (see StationView).
  std::shared_ptr<const StationView> view() const;

  // One-line reads of view(), kept for callers that want a single value.
  CoverageSummary coverage() const { return view()->coverage; }
  std::vector<estimator::NodeSampleView> node_views() const {
    return view()->nodes;
  }
  std::vector<double> node_probabilities() const {
    return view()->probabilities;
  }
  std::size_t cached_sample_count() const { return view()->cached_samples; }

  /// Ingests one node's report: shifts the cached ranks by the arrivals
  /// section (if any), then merges the new samples.  A report with arrivals
  /// applies only on top of the cache it was computed against: when its
  /// base sequence or base sample count does not match, the cache is left
  /// untouched and false is returned (the node must resync in full).
  /// Throws std::out_of_range for an unknown node and
  /// std::invalid_argument for malformed gaps.
  bool ingest(const SampleReport& report);

  /// Replaces one node's cached sample wholesale: the fallback after a lost
  /// report or a rejected delta, when the node retransmits its full sample.
  void replace(const SampleReport& full_report);

  /// Records that a top-up round to probability `p` completed with every
  /// node delivering (the fault-free convenience form).
  void commit_round(double p);

  /// Records a possibly-partial round: only nodes with refreshed[i] == true
  /// had their full report/delta delivered, so only their effective p_i is
  /// raised to `p`.  Everyone else keeps their older p_i — which is what
  /// keeps estimates unbiased when the round degrades.
  void commit_round(double p, const std::vector<bool>& refreshed);

  /// Checkpointing: serializes the whole cache (per-node samples, counts,
  /// effective probabilities, current round target) to bytes via the wire
  /// codec, so a broker can restart without a fresh collection round.
  /// deserialize() reconstructs an equivalent station; throws CodecError /
  /// std::invalid_argument on malformed input.
  std::vector<std::uint8_t> serialize() const;
  static BaseStation deserialize(const std::vector<std::uint8_t>& bytes);

 private:
  struct NodeEntry {
    // Published, never mutated; replaced wholesale by ingest/replace.
    std::shared_ptr<const sampling::RankSampleSet> samples =
        std::make_shared<const sampling::RankSampleSet>();
    std::size_t data_count = 0;
    double probability = 0.0;  // effective p_i of the cached sample
    bool reported = false;
    // Deltas with arrivals accepted since the last full resync (the rank
    // epoch); the next one must name it as its base.  Not checkpointed: a
    // restored cache starts at 0, and the base sample count catches a node
    // that moved on.
    std::uint32_t sequence = 0;
    // Station version of samples, data_count and probability; set from
    // version_counter_ on every write to any of them.
    std::uint64_t version = 0;
  };

  void bump_version_locked(NodeEntry& entry) PRC_REQUIRES(mutex_) {
    entry.version = ++version_counter_;
  }

  void replace_locked(const SampleReport& full_report) PRC_REQUIRES(mutex_);
  void commit_round_locked(double p, const std::vector<bool>& refreshed)
      PRC_REQUIRES(mutex_);

  mutable std::mutex mutex_;
  std::vector<NodeEntry> entries_ PRC_GUARDED_BY(mutex_);
  double p_ PRC_GUARDED_BY(mutex_) = 0.0;
  std::uint64_t version_counter_ PRC_GUARDED_BY(mutex_) = 0;
  // Shared with every view this station publishes.
  std::shared_ptr<const NodeTermTable> node_terms_ PRC_GUARDED_BY(mutex_);
  // Built from entries_ and p_ on the first view() after a change; every
  // mutator resets it.
  mutable std::shared_ptr<const StationView> view_ PRC_GUARDED_BY(mutex_);
};

}  // namespace prc::iot
