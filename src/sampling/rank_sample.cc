#include "sampling/rank_sample.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"

namespace prc::sampling {
namespace {

// A function object rather than a function pointer, so the sort and merge
// calls inline the comparison.
struct ValueRankLess {
  bool operator()(const RankedValue& a, const RankedValue& b) const noexcept {
    if (a.value != b.value) return a.value < b.value;
    return a.rank < b.rank;
  }
};

constexpr ValueRankLess value_rank_less{};

}  // namespace

RankSampleSet::RankSampleSet(std::vector<RankedValue> samples)
    : samples_(std::move(samples)) {
  // Callers mostly pass a sorted run followed by a short sorted tail (the
  // station's shifted cache plus a delta's new samples) or a sorted run
  // alone, so sort only the tail past the sorted prefix and merge the two.
  // Ranks are distinct, so no two samples compare equal and the result is
  // the same as a full sort's.
  const auto tail = std::is_sorted_until(samples_.begin(), samples_.end(),
                                         value_rank_less);
  if (tail != samples_.end()) {
    std::sort(tail, samples_.end(), value_rank_less);
    std::inplace_merge(samples_.begin(), tail, samples_.end(),
                       value_rank_less);
  }
  finish();
}

RankSampleSet::RankSampleSet(const RankSampleSet& left,
                             const RankSampleSet& right) {
  samples_.reserve(left.samples_.size() + right.samples_.size());
  std::merge(left.samples_.begin(), left.samples_.end(),
             right.samples_.begin(), right.samples_.end(),
             std::back_inserter(samples_), value_rank_less);
  finish();
}

void RankSampleSet::finish() {
  values_.resize(samples_.size());
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    values_[i] = samples_[i].value;
  }
  check_invariants();
}

// Every station-side ingest constructs or merges a RankSampleSet, so this
// validation sits squarely on the collection hot path; the hash-set walk
// costs an allocation plus O(n) hashing per call (see the
// rank_sample_validation micro-benchmark).  It therefore rides PRC_DCHECK:
// debug and sanitizer builds verify every set, release builds trust the
// LocalSampler/codec contracts that produced the ranks.
void RankSampleSet::check_invariants() const {
#if PRC_DCHECK_IS_ON()
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(samples_.size());
  for (const auto& s : samples_) {
    PRC_DCHECK(s.rank != 0) << "rank sample: ranks are 1-based";
    PRC_DCHECK(seen.insert(s.rank).second)
        << "rank sample: duplicate rank " << s.rank;
  }
#endif
}

std::size_t RankSampleSet::upper_bound_index(double x) const noexcept {
  // Branchless binary search: the answer always lies in [base, base + len],
  // and each step halves len with a conditional move instead of a branch
  // the predictor would miss half the time.  The predicate is the one
  // std::upper_bound uses (!(x < value) moves right), and on a sorted
  // array the partition point is unique, so the index is the same.
  const double* base = values_.data();
  std::size_t len = values_.size();
  if (len == 0) return 0;
  while (len > 1) {
    const std::size_t half = len / 2;
    base += (x < base[half]) ? 0 : half;
    len -= half;
  }
  return static_cast<std::size_t>(base - values_.data()) +
         ((x < *base) ? 0 : 1);
}

std::optional<RankedValue> RankSampleSet::predecessor(double x) const {
  // Last element with value <= x: the one before the first value > x.
  const std::size_t index = upper_bound_index(x);
  if (index == 0) return std::nullopt;
  return samples_[index - 1];
}

std::optional<RankedValue> RankSampleSet::successor(double x) const {
  const std::size_t index = upper_bound_index(x);
  if (index == samples_.size()) return std::nullopt;
  return samples_[index];
}

void RankSampleSet::merge(const RankSampleSet& other) {
  *this = RankSampleSet(*this, other);
}

}  // namespace prc::sampling
