#include "dp/private_counting.h"
#include "iot/network.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "common/telemetry.h"
#include "data/partition.h"
#include "query/range_query.h"

namespace prc::dp {
namespace {

std::vector<std::vector<double>> make_node_data(std::size_t nodes,
                                                std::size_t total) {
  std::vector<double> values(total);
  for (std::size_t i = 0; i < total; ++i) values[i] = static_cast<double>(i);
  Rng rng(9);
  return data::partition_values(values, nodes,
                                data::PartitionStrategy::kRoundRobin, rng);
}

TEST(PrivateRangeCounterTest, AnswerCarriesConsistentPlan) {
  iot::FlatNetwork network(make_node_data(8, 20000));
  PrivateRangeCounter counter(network);
  const query::AccuracySpec spec{0.05, 0.8};
  const auto answer = counter.answer({1000.5, 15000.5}, spec);
  EXPECT_EQ(answer.plan.alpha, spec.alpha);
  EXPECT_EQ(answer.plan.delta, spec.delta);
  EXPECT_GT(answer.plan.epsilon_amplified, 0.0);
  // Cross-unit on purpose: the Lemma 3.4 amplification check.
  EXPECT_LT(answer.plan.epsilon_amplified.value(), answer.plan.epsilon.value());
  EXPECT_DOUBLE_EQ(answer.plan.sampling_probability,
                   network.base_station().view()->coverage.target_p);
  // Clamped to the count domain.
  EXPECT_GE(answer.value, 0.0);
  EXPECT_LE(answer.value, 20000.0);
}

TEST(PrivateRangeCounterTest, TopsUpOnlyWhenNeeded) {
  iot::FlatNetwork network(make_node_data(8, 20000));
  PrivateRangeCounter counter(network);
  counter.answer({100.5, 1000.5}, {0.10, 0.5});
  const double p_after_loose =
      network.base_station().view()->coverage.target_p;
  // A second, equally loose query reuses the cache (one sample, many
  // queries).
  const auto bytes_before = network.stats().total_bytes();
  counter.answer({2000.5, 3000.5}, {0.10, 0.5});
  EXPECT_EQ(network.stats().total_bytes(), bytes_before);
  // A stricter query forces a top-up.
  counter.answer({100.5, 1000.5}, {0.02, 0.9});
  EXPECT_GT(network.base_station().view()->coverage.target_p, p_after_loose);
}

TEST(PrivateRangeCounterTest, CachedAnswerReadsOneUnchangedView) {
  iot::FlatNetwork network(make_node_data(8, 20000));
  PrivateRangeCounter counter(network);
  const query::AccuracySpec spec{0.10, 0.5};
  counter.answer({100.5, 1000.5}, spec);
  const auto view = network.base_station().view();
  auto& noop_rounds = telemetry::counter("iot.rounds_noop");
  const auto noops_before = noop_rounds.value();

  counter.plan_for(spec);  // the broker quotes before it answers
  const auto answer = counter.answer({2000.5, 3000.5}, spec);
  // No round ran, so the station published nothing new: the sale read the
  // view built after the first answer, and its coverage is that view's.
  EXPECT_EQ(network.base_station().view(), view);
  EXPECT_EQ(noop_rounds.value(), noops_before + 1);
  EXPECT_EQ(answer.coverage.target_p, view->coverage.target_p);
  EXPECT_EQ(answer.coverage.coverage, view->coverage.coverage);
  EXPECT_EQ(answer.sampled_estimate.get(),
            view->rank_counting_estimate({2000.5, 3000.5}));
}

TEST(PrivateRangeCounterTest, InfeasibleContractThrows) {
  // 2000 items on 50 nodes: even p=1 leaves 8k/(alpha' n)^2 too big for a
  // very tight contract.
  iot::FlatNetwork network(make_node_data(50, 2000));
  PrivateRangeCounter counter(network);
  EXPECT_THROW(counter.answer({10.5, 100.5}, {0.011, 0.9}),
               std::runtime_error);
}

TEST(PrivateRangeCounterTest, PlanForQuotesWithoutNetworkTraffic) {
  iot::FlatNetwork network(make_node_data(8, 20000));
  PrivateRangeCounter counter(network);
  const auto bytes_before = network.stats().total_bytes();
  const auto plan = counter.plan_for({0.05, 0.8});
  EXPECT_EQ(network.stats().total_bytes(), bytes_before);
  EXPECT_GT(plan.epsilon, 0.0);
  // Executing afterwards uses an equally good or better plan (more samples
  // can only help).
  const auto answer = counter.answer({100.5, 15000.5}, {0.05, 0.8});
  EXPECT_LE(answer.plan.epsilon_amplified, plan.epsilon_amplified * 1.01);
}

// dp.epsilon_amplified is the epsilon' each release charges: one record per
// answer, from the final plan.  Quotes (plan_for) and degraded-spec probes
// run the optimizer too, but release nothing.
TEST(PrivateRangeCounterTest, EpsilonAmplifiedHistogramRecordsEachAnswer) {
  const telemetry::Histogram& charged_hist =
      telemetry::histogram("dp.epsilon_amplified");
  const auto before = charged_hist.snapshot();
  std::uint64_t answers = 0;
  double charged = 0.0;

  iot::FlatNetwork network(make_node_data(8, 20000));
  PrivateRangeCounter counter(network);
  for (const query::AccuracySpec spec :
       {query::AccuracySpec{0.1, 0.5}, query::AccuracySpec{0.05, 0.8},
        query::AccuracySpec{0.1, 0.5}}) {
    counter.plan_for(spec);
    charged += counter.answer({1000.5, 15000.5}, spec)
                   .plan.epsilon_amplified.value();
    ++answers;
    counter.degraded_spec(spec);
  }

  // A stale node leaves the most-included node at a higher p than the one
  // the plan was searched at, so the answer re-derives epsilon' there.
  iot::FlatNetwork stale(make_node_data(3, 1200));
  stale.ensure_sampling_probability(0.2);
  stale.set_node_online(0, false);
  stale.ensure_sampling_probability(0.4);
  PrivateRangeCounter stale_counter(stale);
  const auto rederived = stale_counter.answer({100.5, 600.5}, {0.6, 0.5});
  ASSERT_GT(rederived.coverage.max_probability,
            rederived.plan.sampling_probability);
  charged += rederived.plan.epsilon_amplified.value();
  ++answers;

  const auto after = charged_hist.snapshot();
  EXPECT_EQ(after.count - before.count, answers);
  EXPECT_NEAR(after.sum - before.sum, charged, 1e-12 * charged);
}

// End-to-end (alpha, delta) contract: the noisy answers must fall within
// alpha*n of the truth at least delta of the time.  This is the paper's
// central correctness property for the whole two-phase pipeline.
struct PipelineCase {
  double alpha;
  double delta;
};

class PrivatePipelineContract
    : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PrivatePipelineContract, ContractHolds) {
  const auto [alpha, delta] = GetParam();
  const std::size_t total = 20000;
  const query::RangeQuery range{2000.5, 17000.5};
  const double truth = 15000.0;

  const int trials = 300;
  int within = 0;
  for (int t = 0; t < trials; ++t) {
    iot::FlatNetwork network(make_node_data(8, total),
                             {.frame_loss_probability = 0.0,
                              .seed = static_cast<std::uint64_t>(t) * 31 + 1,
                              .faults = {},
                              .max_attempts = 0});
    PrivateRangeCounter counter(network, {},
                                static_cast<std::uint64_t>(t) * 17 + 3);
    const auto answer = counter.answer(range, {alpha, delta});
    if (std::abs(answer.value - truth) <= alpha * static_cast<double>(total)) {
      ++within;
    }
  }
  const double margin = 3.0 * std::sqrt(delta * (1.0 - delta) / trials);
  EXPECT_GE(static_cast<double>(within) / trials, delta - margin)
      << "alpha=" << alpha << " delta=" << delta;
}

INSTANTIATE_TEST_SUITE_P(
    ContractSweep, PrivatePipelineContract,
    ::testing::Values(PipelineCase{0.05, 0.6}, PipelineCase{0.10, 0.8},
                      PipelineCase{0.15, 0.9}, PipelineCase{0.08, 0.5}),
    [](const ::testing::TestParamInfo<PipelineCase>& case_info) {
      return "a" + std::to_string(static_cast<int>(case_info.param.alpha * 100)) +
             "_d" + std::to_string(static_cast<int>(case_info.param.delta * 100));
    });

}  // namespace
}  // namespace prc::dp
