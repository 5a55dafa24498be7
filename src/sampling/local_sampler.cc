#include "sampling/local_sampler.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace prc::sampling {

LocalSampler::LocalSampler(std::vector<double> values)
    : sorted_(std::move(values)), state_(sorted_.size(), 0) {
  std::sort(sorted_.begin(), sorted_.end());
}

std::vector<RankedValue> LocalSampler::raise_probability(double p, Rng& rng) {
  PRC_CHECK(std::isfinite(p) && p >= 0.0 && p <= 1.0)
      << "inclusion probability must be in [0, 1], got " << p;
  std::vector<RankedValue> added;
  if (p <= p_) return added;
  // Conditional inclusion probability for elements not yet selected.
  const double conditional =
      p_ >= 1.0 ? 0.0 : (p - p_) / (1.0 - p_);
  for (std::size_t i = 0; i < sorted_.size(); ++i) {
    if (state_[i] & kSelected) continue;
    if (rng.bernoulli(conditional)) {
      state_[i] |= kSelected | kAdded;
      ++sampled_count_;
      ++pending_added_;
      added.push_back(RankedValue{sorted_[i], static_cast<std::uint64_t>(i + 1)});
    }
  }
  p_ = p;
  return added;
}

void LocalSampler::append(const std::vector<double>& values, Rng& rng) {
  if (values.empty()) return;
  // Draw each newcomer's flag in arrival order, then stable-sort the batch
  // alone: equal newcomers keep their arrival order.
  std::vector<std::pair<double, std::uint8_t>> batch;
  batch.reserve(values.size());
  for (const double v : values) {
    std::uint8_t state = kArrived;
    if (rng.bernoulli(p_)) {
      state |= kSelected | kAdded;
      ++sampled_count_;
      ++pending_added_;
    }
    batch.emplace_back(v, state);
  }
  pending_arrivals_ += values.size();
  std::stable_sort(batch.begin(), batch.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  // Merge from the back into the grown arrays, newcomers largest first:
  // the existing elements greater than a newcomer move up past it as one
  // block, and equal ones stay before it.  Elements before the first
  // insertion point never move.
  std::size_t old_end = sorted_.size();
  std::size_t out = sorted_.size() + batch.size();
  sorted_.resize(out);
  state_.resize(out);
  for (auto newcomer = batch.rbegin(); newcomer != batch.rend(); ++newcomer) {
    const auto keep = static_cast<std::size_t>(
        std::upper_bound(sorted_.begin(),
                         sorted_.begin() + static_cast<std::ptrdiff_t>(old_end),
                         newcomer->first) -
        sorted_.begin());
    const auto from = static_cast<std::ptrdiff_t>(keep);
    const auto to = static_cast<std::ptrdiff_t>(old_end);
    const auto dest = static_cast<std::ptrdiff_t>(out);
    std::move_backward(sorted_.begin() + from, sorted_.begin() + to,
                       sorted_.begin() + dest);
    std::move_backward(state_.begin() + from, state_.begin() + to,
                       state_.begin() + dest);
    out -= old_end - keep + 1;
    old_end = keep;
    sorted_[out] = newcomer->first;
    state_[out] = newcomer->second;
  }
}

RankSampleSet LocalSampler::current_sample() const {
  std::vector<RankedValue> samples;
  samples.reserve(sampled_count_);
  for (std::size_t i = 0; i < sorted_.size(); ++i) {
    if (state_[i] & kSelected) {
      samples.push_back(
          RankedValue{sorted_[i], static_cast<std::uint64_t>(i + 1)});
    }
  }
  return RankSampleSet(std::move(samples));
}

SampleDelta LocalSampler::delta() const {
  SampleDelta delta;
  delta.base_samples = sampled_count_ - pending_added_;
  if (!has_delta()) return delta;
  auto& gaps = delta.arrival_gaps;
  auto& added = delta.added;
  gaps.reserve(pending_arrivals_);
  added.reserve(pending_added_);
  std::uint64_t held = 0;  // base samples seen so far
  const auto visit = [&](std::size_t i) {
    const std::uint8_t state = state_[i];
    if (state & kArrived) gaps.push_back(held);
    if (state & kAdded) {
      added.push_back(
          RankedValue{sorted_[i], static_cast<std::uint64_t>(i + 1)});
    } else if (state & kSelected) {
      ++held;
    }
  };
  const auto done = [&] {
    return gaps.size() == pending_arrivals_ && added.size() == pending_added_;
  };
  // Eight state bytes at a time: a word with no kAdded or kArrived bit only
  // adds its selected bytes to `held`, counted by summing the bytes' low
  // bits in the top byte of one multiply (std::popcount is a libgcc call on
  // baseline x86-64).  Changed words are visited byte by byte, and the scan
  // stops after the last change.
  static_assert(kSelected == 1, "the byte sum counts bit 0 of each byte");
  constexpr std::uint64_t kLowBits = 0x0101010101010101ULL;
  constexpr std::uint64_t kChanged = kLowBits * (kAdded | kArrived);
  const std::size_t n = sorted_.size();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, state_.data() + i, sizeof word);
    if ((word & kChanged) == 0) {
      held += ((word & kLowBits) * kLowBits) >> 56;
      continue;
    }
    for (std::size_t j = i; j < i + 8; ++j) visit(j);
    if (done()) return delta;
  }
  for (; i < n; ++i) visit(i);
  return delta;
}

void LocalSampler::mark_reported() {
  if (!has_delta()) return;
  for (auto& state : state_) {
    state &= kSelected;
  }
  pending_arrivals_ = 0;
  pending_added_ = 0;
}

double LocalSampler::first_value() const {
  PRC_CHECK(!sorted_.empty()) << "first_value of empty node";
  return sorted_.front();
}

double LocalSampler::last_value() const {
  PRC_CHECK(!sorted_.empty()) << "last_value of empty node";
  return sorted_.back();
}

}  // namespace prc::sampling
