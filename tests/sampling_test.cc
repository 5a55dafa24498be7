#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "sampling/local_sampler.h"
#include "sampling/rank_sample.h"

namespace prc::sampling {
namespace {

TEST(RankSampleSetTest, SortsByValue) {
  RankSampleSet set({{3.0, 3}, {1.0, 1}, {2.0, 2}});
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set.samples()[0].value, 1.0);
  EXPECT_EQ(set.samples()[2].value, 3.0);
}

// Rank validation is PRC_DCHECK-gated (debug/sanitizer builds only); a
// release build constructs without checking.
#if PRC_DCHECK_IS_ON()
TEST(RankSampleSetTest, RejectsDuplicateOrZeroRanks) {
  EXPECT_THROW(RankSampleSet({{1.0, 2}, {3.0, 2}}), std::invalid_argument);
  EXPECT_THROW(RankSampleSet({{1.0, 0}}), std::invalid_argument);
}
#endif

TEST(RankSampleSetTest, PredecessorSuccessorBasics) {
  const RankSampleSet set({{10.0, 2}, {20.0, 5}, {30.0, 9}});
  // predecessor: largest value <= x
  EXPECT_EQ(set.predecessor(15.0)->value, 10.0);
  EXPECT_EQ(set.predecessor(10.0)->value, 10.0);  // equality counts
  EXPECT_EQ(set.predecessor(9.99), std::nullopt);
  EXPECT_EQ(set.predecessor(100.0)->value, 30.0);
  // successor: smallest value > x
  EXPECT_EQ(set.successor(15.0)->value, 20.0);
  EXPECT_EQ(set.successor(20.0)->value, 30.0);  // strictly greater
  EXPECT_EQ(set.successor(30.0), std::nullopt);
  EXPECT_EQ(set.successor(-5.0)->value, 10.0);
}

TEST(RankSampleSetTest, TiesPickNearestRank) {
  // Duplicate values: predecessor takes the largest rank among ties, the
  // successor the smallest — the samples nearest the query boundary.
  const RankSampleSet set({{5.0, 3}, {5.0, 4}, {5.0, 7}, {8.0, 9}});
  EXPECT_EQ(set.predecessor(5.0)->rank, 7u);
  EXPECT_EQ(set.successor(5.0)->rank, 9u);
  EXPECT_EQ(set.successor(4.0)->rank, 3u);
}

TEST(RankSampleSetTest, EmptySetHasNoNeighbors) {
  const RankSampleSet set;
  EXPECT_EQ(set.predecessor(1.0), std::nullopt);
  EXPECT_EQ(set.successor(1.0), std::nullopt);
}

TEST(RankSampleSetTest, MergeCombinesAndValidates) {
  RankSampleSet a({{1.0, 1}, {3.0, 3}});
  const RankSampleSet b({{2.0, 2}});
  a.merge(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.samples()[1].value, 2.0);
#if PRC_DCHECK_IS_ON()
  const RankSampleSet conflicting({{9.0, 3}});
  EXPECT_THROW(a.merge(conflicting), std::invalid_argument);
#endif
}

// predecessor()/successor() search a contiguous value array with a
// branchless binary search; they must pick exactly the element a
// std::upper_bound over samples() picks, ties included, or estimates
// would drift.
void expect_search_matches_upper_bound(const RankSampleSet& set, double x) {
  const auto& samples = set.samples();
  const auto it = std::upper_bound(
      samples.begin(), samples.end(), x,
      [](double v, const RankedValue& s) { return v < s.value; });
  const std::optional<RankedValue> pred =
      it == samples.begin() ? std::nullopt
                            : std::optional<RankedValue>(*(it - 1));
  const std::optional<RankedValue> succ =
      it == samples.end() ? std::nullopt : std::optional<RankedValue>(*it);
  EXPECT_EQ(set.predecessor(x), pred) << "x=" << x << " size=" << set.size();
  EXPECT_EQ(set.successor(x), succ) << "x=" << x << " size=" << set.size();
}

// Probes below the minimum, above the maximum, at every sampled value and
// just either side of it, plus random values across the span.
void expect_search_matches_everywhere(const RankSampleSet& set, Rng& rng) {
  expect_search_matches_upper_bound(set, -1e300);
  expect_search_matches_upper_bound(set, 1e300);
  for (const auto& s : set.samples()) {
    expect_search_matches_upper_bound(set, s.value);
    expect_search_matches_upper_bound(
        set, std::nextafter(s.value, -std::numeric_limits<double>::infinity()));
    expect_search_matches_upper_bound(
        set, std::nextafter(s.value, std::numeric_limits<double>::infinity()));
  }
  for (int i = 0; i < 32; ++i) {
    expect_search_matches_upper_bound(set, rng.uniform(-5.0, 25.0));
  }
}

// Random sets of `size` samples over few distinct values (so duplicates
// with distinct ranks are common), ranks drawn without replacement from
// [first_rank, first_rank + 4 * size).
std::vector<RankedValue> random_samples(std::size_t size,
                                        std::uint64_t first_rank, Rng& rng) {
  std::vector<std::uint64_t> ranks(4 * size);
  for (std::size_t i = 0; i < ranks.size(); ++i) ranks[i] = first_rank + i;
  std::shuffle(ranks.begin(), ranks.end(), rng);
  std::vector<RankedValue> samples;
  for (std::size_t i = 0; i < size; ++i) {
    samples.push_back({static_cast<double>(rng.uniform_int(0, 20)) * 0.5,
                       ranks[i]});
  }
  return samples;
}

TEST(RankSampleSetTest, SearchMatchesUpperBoundOnRandomSets) {
  Rng rng(2024);
  expect_search_matches_everywhere(RankSampleSet(), rng);
  expect_search_matches_everywhere(RankSampleSet({{4.0, 1}}), rng);
  // Every length up to 70 exercises each shape of the halving loop.
  for (std::size_t size = 1; size <= 70; ++size) {
    expect_search_matches_everywhere(
        RankSampleSet(random_samples(size, 1, rng)), rng);
  }
  // One value repeated: every probe is below, at or above the whole run.
  std::vector<RankedValue> flat;
  for (std::uint64_t r = 1; r <= 33; ++r) flat.push_back({2.5, r});
  expect_search_matches_everywhere(RankSampleSet(flat), rng);
}

TEST(RankSampleSetTest, SearchMatchesUpperBoundAfterMerge) {
  Rng rng(77);
  for (std::size_t size = 0; size <= 40; ++size) {
    // Disjoint rank ranges, overlapping values.
    RankSampleSet merged(random_samples(size, 1, rng));
    const RankSampleSet delta(random_samples(size / 2 + 1, 1000, rng));
    merged.merge(delta);
    ASSERT_EQ(merged.size(), size + size / 2 + 1);
    expect_search_matches_everywhere(merged, rng);
    // The two-set constructor builds the same set.
    const RankSampleSet rebuilt(merged, RankSampleSet());
    EXPECT_EQ(rebuilt.samples(), merged.samples());
    expect_search_matches_everywhere(rebuilt, rng);
  }
}

// The constructor sorts only the tail past its input's sorted prefix and
// merges the two; the set must equal a full std::sort of the input, element
// for element (sign of zero included), and answer every search the same.
std::vector<RankedValue> sorted_copy(std::vector<RankedValue> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const RankedValue& a, const RankedValue& b) {
              if (a.value != b.value) return a.value < b.value;
              return a.rank < b.rank;
            });
  return samples;
}

void expect_constructor_matches_sort(const std::vector<RankedValue>& input,
                                     Rng& rng) {
  const std::vector<RankedValue> expected = sorted_copy(input);
  const RankSampleSet set(input);
  ASSERT_EQ(set.samples(), expected) << "size=" << input.size();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(std::signbit(set.samples()[i].value),
              std::signbit(expected[i].value))
        << "index " << i;
  }
  std::vector<double> probes = {-1e300, 1e300, 0.0, -0.0};
  for (const auto& s : expected) {
    probes.push_back(s.value);
    probes.push_back(
        std::nextafter(s.value, -std::numeric_limits<double>::infinity()));
    probes.push_back(
        std::nextafter(s.value, std::numeric_limits<double>::infinity()));
  }
  for (int i = 0; i < 16; ++i) probes.push_back(rng.uniform(-5.0, 25.0));
  for (const double x : probes) {
    const auto it = std::upper_bound(
        expected.begin(), expected.end(), x,
        [](double v, const RankedValue& s) { return v < s.value; });
    const std::optional<RankedValue> pred =
        it == expected.begin() ? std::nullopt
                               : std::optional<RankedValue>(*(it - 1));
    const std::optional<RankedValue> succ =
        it == expected.end() ? std::nullopt : std::optional<RankedValue>(*it);
    EXPECT_EQ(set.predecessor(x), pred) << "x=" << x;
    EXPECT_EQ(set.successor(x), succ) << "x=" << x;
  }
}

TEST(RankSampleSetTest, ConstructorMatchesFullSort) {
  Rng rng(4242);
  expect_constructor_matches_sort({}, rng);
  expect_constructor_matches_sort({{3.5, 9}}, rng);
  for (std::size_t size = 2; size <= 70; ++size) {
    const auto random = random_samples(size, 1, rng);
    expect_constructor_matches_sort(random, rng);
    const auto sorted = sorted_copy(random);
    expect_constructor_matches_sort(sorted, rng);
    expect_constructor_matches_sort({sorted.rbegin(), sorted.rend()}, rng);
    // The shape the station's ingest builds: a sorted run with a sorted
    // run of new samples appended, values interleaved, ranks disjoint.
    auto prefix_then_tail = sorted_copy(random_samples(size, 1, rng));
    const auto tail = sorted_copy(random_samples(size / 3 + 1, 1000, rng));
    prefix_then_tail.insert(prefix_then_tail.end(), tail.begin(), tail.end());
    expect_constructor_matches_sort(prefix_then_tail, rng);
    // A sorted run with an unsorted tail.
    auto prefix_then_mess = sorted_copy(random_samples(size, 1, rng));
    const auto mess = random_samples(size / 2 + 1, 1000, rng);
    prefix_then_mess.insert(prefix_then_mess.end(), mess.begin(), mess.end());
    expect_constructor_matches_sort(prefix_then_mess, rng);
  }
  // Equal values with distinct ranks, in every arrangement of sortedness.
  std::vector<RankedValue> equal;
  for (std::uint64_t r = 1; r <= 12; ++r) equal.push_back({2.5, 13 - r});
  expect_constructor_matches_sort(equal, rng);
  std::reverse(equal.begin(), equal.end());
  expect_constructor_matches_sort(equal, rng);
  std::reverse(equal.begin() + 6, equal.end());
  expect_constructor_matches_sort(equal, rng);
  // -0.0 and +0.0 compare equal, so rank alone orders them, sign kept.
  expect_constructor_matches_sort(
      {{0.0, 4}, {-0.0, 2}, {1.0, 5}, {-0.0, 3}, {0.0, 1}, {-1.0, 6}}, rng);
  expect_constructor_matches_sort({{-0.0, 1}, {0.0, 2}, {-0.0, 3}, {0.0, 4}},
                                  rng);
  expect_constructor_matches_sort({{0.0, 1}, {-0.0, 3}, {0.0, 2}}, rng);
}

TEST(LocalSamplerTest, RanksFollowSortedOrder) {
  LocalSampler sampler({5.0, 1.0, 3.0, 2.0, 4.0});
  Rng rng(1);
  sampler.raise_probability(1.0, rng);  // take everything
  const auto set = sampler.current_sample();
  ASSERT_EQ(set.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(set.samples()[i].value, static_cast<double>(i + 1));
    EXPECT_EQ(set.samples()[i].rank, i + 1);
  }
}

TEST(LocalSamplerTest, InclusionRateMatchesProbability) {
  std::vector<double> values(20000);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i);
  }
  LocalSampler sampler(values);
  Rng rng(2);
  const auto added = sampler.raise_probability(0.3, rng);
  EXPECT_EQ(added.size(), sampler.sample_count());
  EXPECT_NEAR(static_cast<double>(sampler.sample_count()) /
                  static_cast<double>(values.size()),
              0.3, 0.02);
}

TEST(LocalSamplerTest, TopUpPreservesMarginalInclusion) {
  // Raising 0.1 -> 0.4 in two steps must leave every element included with
  // marginal probability 0.4, identical to a single-shot 0.4 draw.
  const std::size_t n = 30000;
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i);
  LocalSampler sampler(values);
  Rng rng(3);
  sampler.raise_probability(0.1, rng);
  const std::size_t after_first = sampler.sample_count();
  EXPECT_NEAR(static_cast<double>(after_first) / n, 0.1, 0.01);
  const auto added = sampler.raise_probability(0.4, rng);
  EXPECT_EQ(sampler.sample_count(), after_first + added.size());
  EXPECT_NEAR(static_cast<double>(sampler.sample_count()) / n, 0.4, 0.015);
  EXPECT_DOUBLE_EQ(sampler.inclusion_probability(), 0.4);
}

TEST(LocalSamplerTest, TopUpReturnsOnlyNewSamples) {
  std::vector<double> values(1000);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i);
  }
  LocalSampler sampler(values);
  Rng rng(4);
  const auto first = sampler.raise_probability(0.2, rng);
  const auto second = sampler.raise_probability(0.5, rng);
  for (const auto& s : second) {
    for (const auto& f : first) EXPECT_NE(s.rank, f.rank);
  }
}

TEST(LocalSamplerTest, LoweringProbabilityIsNoOp) {
  LocalSampler sampler({1.0, 2.0, 3.0});
  Rng rng(5);
  sampler.raise_probability(0.9, rng);
  const auto count = sampler.sample_count();
  EXPECT_TRUE(sampler.raise_probability(0.5, rng).empty());
  EXPECT_EQ(sampler.sample_count(), count);
  EXPECT_DOUBLE_EQ(sampler.inclusion_probability(), 0.9);
}

TEST(LocalSamplerTest, RejectsOutOfRangeProbability) {
  LocalSampler sampler({1.0});
  Rng rng(6);
  EXPECT_THROW(sampler.raise_probability(-0.1, rng), std::invalid_argument);
  EXPECT_THROW(sampler.raise_probability(1.1, rng), std::invalid_argument);
}

TEST(LocalSamplerTest, FirstLastValues) {
  LocalSampler sampler({7.0, 2.0, 9.0});
  EXPECT_EQ(sampler.first_value(), 2.0);
  EXPECT_EQ(sampler.last_value(), 9.0);
  LocalSampler empty({});
  EXPECT_THROW(empty.first_value(), std::logic_error);
}

TEST(LocalSamplerTest, ProbabilityOneTakesEverything) {
  std::vector<double> values(500, 1.0);
  LocalSampler sampler(values);
  Rng rng(7);
  sampler.raise_probability(1.0, rng);
  EXPECT_EQ(sampler.sample_count(), 500u);
  // Further raises are no-ops.
  EXPECT_TRUE(sampler.raise_probability(1.0, rng).empty());
}

}  // namespace
}  // namespace prc::sampling
