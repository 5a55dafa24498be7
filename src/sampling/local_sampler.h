// Per-node Bernoulli sampling with incremental top-up.
//
// The paper's protocol keeps one sample set per node and, when a query needs
// a higher sampling probability than was used so far, collects *more* samples
// rather than resampling from scratch ("if the existing samples are unable to
// satisfy the query accuracy requirement, more samples should be drawn").
// Raising the inclusion probability from p1 to p2 while keeping marginal
// inclusion Bernoulli(p2) is done by flipping each still-unsampled element
// with probability (p2 - p1) / (1 - p1).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "sampling/rank_sample.h"

namespace prc::sampling {

/// What changed in a node's sample since the last mark_reported(): the
/// position of every appended reading among the samples held at the mark,
/// and the samples selected since the mark, with their current ranks.
struct SampleDelta {
  /// Samples held at the mark (the base the gaps index into).
  std::size_t base_samples = 0;
  /// One entry per reading appended since the mark, in sorted order: the
  /// number of base samples that precede it.  Non-decreasing, each at most
  /// base_samples.
  std::vector<std::uint64_t> arrival_gaps;
  /// Samples selected since the mark (by a top-up or as an arrival).
  std::vector<RankedValue> added;
};

/// Owns one node's sorted local data and its sampling state.
class LocalSampler {
 public:
  /// Copies and sorts the node's local values.  Ranks are positions in this
  /// sorted order (1-based); duplicates get consecutive distinct ranks.
  explicit LocalSampler(std::vector<double> values);

  std::size_t data_count() const noexcept { return sorted_.size(); }

  /// Current inclusion probability (0 before the first round).
  double inclusion_probability() const noexcept { return p_; }

  /// Number of currently sampled elements.
  std::size_t sample_count() const noexcept { return sampled_count_; }

  /// Raises the inclusion probability to `p` (no-op if p <= current) and
  /// returns only the *newly* selected samples — what the node would transmit
  /// this round.  Throws std::invalid_argument unless p is in [0, 1].
  std::vector<RankedValue> raise_probability(double p, Rng& rng);

  /// Continuous collection: merges newly observed values into the local
  /// multiset, sampling each with the current inclusion probability so the
  /// marginal inclusion law stays Bernoulli(p) for every element.  The
  /// Bernoulli draws are made in arrival order, one per value.  The batch is
  /// stably sorted and merged in one backward pass (a binary search and one
  /// block move per newcomer), so a batch of m costs O(n) moves plus
  /// O(m log n) comparisons.  Tie rule: a newcomer lands after
  /// every existing element of equal value, and equal newcomers keep their
  /// arrival order, so the result is a stable sort of (old data, batch).
  /// Ranks of later elements shift; delta() reports the shift.
  void append(const std::vector<double>& values, Rng& rng);

  /// The full current sample with ranks.
  RankSampleSet current_sample() const;

  /// True when something was appended or selected since the last
  /// mark_reported().
  bool has_delta() const noexcept {
    return pending_arrivals_ != 0 || pending_added_ != 0;
  }

  /// True when something was appended since the last mark_reported().
  bool has_arrivals() const noexcept { return pending_arrivals_ != 0; }

  /// The change since the last mark_reported() (everything, before the
  /// first mark): applying it to the sample held at the mark yields
  /// current_sample() exactly.  Reads the state eight readings at a time
  /// and visits only the words holding a change, up to the last one.
  SampleDelta delta() const;

  /// Records that the current sample is now held by the receiver: the next
  /// delta() starts from here.
  void mark_reported();

  /// First (smallest) and last (largest) local values; used by the estimator
  /// cases where the predecessor/successor does not exist.  Requires
  /// data_count() > 0.
  double first_value() const;
  double last_value() const;

 private:
  // Per-element state bits.
  static constexpr std::uint8_t kSelected = 1;  // in the current sample
  static constexpr std::uint8_t kAdded = 2;     // selected since the mark
  static constexpr std::uint8_t kArrived = 4;   // appended since the mark

  std::vector<double> sorted_;
  std::vector<std::uint8_t> state_;  // parallel to sorted_
  std::size_t sampled_count_ = 0;
  std::size_t pending_arrivals_ = 0;
  std::size_t pending_added_ = 0;
  double p_ = 0.0;
};

}  // namespace prc::sampling
