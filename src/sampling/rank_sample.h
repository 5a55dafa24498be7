// Rank-annotated samples: the wire format of the RankCounting protocol.
//
// Each sensor node samples its local multiset and ships (value, local rank)
// pairs to the base station.  The rank is the element's 1-based position in
// the node's sorted local data, which lets the estimator compute exact
// interior counts between any two sampled elements.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace prc::sampling {

/// One sampled element: its value and 1-based rank within the node's sorted
/// local dataset.  Duplicated values get distinct consecutive ranks.
struct RankedValue {
  double value = 0.0;
  std::uint64_t rank = 0;  // 1-based

  friend bool operator==(const RankedValue&, const RankedValue&) = default;
};

/// A value-ordered set of rank-annotated samples from one node, supporting
/// the predecessor/successor queries of the RankCounting estimator (paper
/// §III-A).  Only merge() and assignment mutate a set; once the base
/// station publishes a set (BaseStation holds it through a
/// shared_ptr<const RankSampleSet>) it is never mutated again, so any
/// number of estimates may read it without a lock.
class RankSampleSet {
 public:
  RankSampleSet() = default;

  /// Takes samples in any order; sorts by (value, rank).  Costs O(n) for
  /// sorted input and O(n + m log m) when the last m samples follow a
  /// sorted prefix (the tail is sorted and merged into it), so rebuilding a
  /// cached set with a few new samples appended is linear.  Rank validity
  /// (1-based, collision-free) is verified only when PRC_DCHECK is on
  /// (debug / sanitizer builds), raising prc::ContractViolation (a
  /// std::invalid_argument); release builds trust the sampler/codec
  /// contracts and skip the check — it sits on the station's per-report
  /// ingest path.
  explicit RankSampleSet(std::vector<RankedValue> samples);

  /// The union of two sets, built directly into the new set (neither input
  /// is copied first).  Rank collisions are caught only when PRC_DCHECK is
  /// on, like the constructor.
  RankSampleSet(const RankSampleSet& left, const RankSampleSet& right);

  std::size_t size() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }
  const std::vector<RankedValue>& samples() const noexcept { return samples_; }

  /// 𝔭(x): the sampled element with the largest value <= x (ties: largest
  /// rank, i.e. the one closest to x in sorted order).  nullopt if none.
  std::optional<RankedValue> predecessor(double x) const;

  /// 𝔰(x): the sampled element with the smallest value > x (ties: smallest
  /// rank).  nullopt if none.
  std::optional<RankedValue> successor(double x) const;

  /// Merges additional samples (e.g. from a top-up round) into this set,
  /// with the two-set constructor's checks.
  void merge(const RankSampleSet& other);

 private:
  /// Index of the first sample whose value is > x (size() when none): the
  /// index std::upper_bound returns over samples(), ties included.
  std::size_t upper_bound_index(double x) const noexcept;

  /// Rebuilds values_ from samples_, then runs the debug-only validation.
  void finish();

  /// Debug-only full validation (see constructor comment).
  void check_invariants() const;

  std::vector<RankedValue> samples_;  // sorted by (value, rank)
  // samples_[i].value for every i: the contiguous array the predecessor
  // and successor searches probe, so a search touches 8 bytes per step
  // instead of a 16-byte pair.
  std::vector<double> values_;
};

}  // namespace prc::sampling
