#include "dp/workload_answerer.h"

#include <cmath>
#include <limits>

#include "common/check.h"
#include "dp/amplification.h"
#include "dp/laplace_mechanism.h"

namespace prc::dp {

WorkloadResult WorkloadAnswerer::answer(
    iot::SamplingNetwork& network, const std::vector<query::RangeQuery>& ranges,
    units::Epsilon total_epsilon, BudgetSplit split, Rng& rng,
    const std::vector<double>& weights) const {
  PRC_CHECK(!ranges.empty()) << "empty workload";
  PRC_CHECK(std::isfinite(total_epsilon) && total_epsilon > 0.0)
      << "total epsilon must be positive, got " << total_epsilon;
  const auto view = network.base_station().view();
  const double p = view->coverage.target_p;
  PRC_CHECK(p > 0.0) << "no sampling round committed yet";
  PRC_CHECK(weights.empty() || weights.size() == ranges.size())
      << "weights must match workload size";

  // Per-query budget allocation.
  std::vector<double> epsilons(ranges.size());
  switch (split) {
    case BudgetSplit::kUniform: {
      const double each = total_epsilon / static_cast<double>(ranges.size());
      for (auto& eps : epsilons) eps = each;
      break;
    }
    case BudgetSplit::kWeighted: {
      // Minimize sum_i w_i * 2 (s / eps_i)^2 subject to sum eps_i = total:
      // the stationarity condition w_i / eps_i^3 = const gives
      // eps_i proportional to w_i^{1/3}.
      double norm = 0.0;
      std::vector<double> shares(ranges.size());
      for (std::size_t i = 0; i < ranges.size(); ++i) {
        const double w = weights.empty() ? 1.0 : weights[i];
        PRC_CHECK(std::isfinite(w) && w > 0.0)
            << "weights must be positive, got " << w;
        shares[i] = std::cbrt(w);
        norm += shares[i];
      }
      for (std::size_t i = 0; i < ranges.size(); ++i) {
        epsilons[i] = total_epsilon * shares[i] / norm;
      }
      break;
    }
  }

  const double sensitivity = 1.0 / p;
  WorkloadResult result;
  result.answers.reserve(ranges.size());
  std::vector<units::EffectiveEpsilon> amplified;
  amplified.reserve(ranges.size());
  // The uniform split (and the weighted one under equal weights) hands
  // every query the same epsilon_i, so the amplification map would be
  // re-evaluated on identical inputs B times; memoize the last result
  // (bit-identical: same pure function, same argument).
  double amplified_for = std::numeric_limits<double>::quiet_NaN();
  units::EffectiveEpsilon amplified_value = 0.0;
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    const LaplaceMechanism mechanism(sensitivity, epsilons[i]);
    WorkloadAnswer answer;
    answer.range = ranges[i];
    answer.value = mechanism.perturb(
        units::Raw<double>(view->rank_counting_estimate(ranges[i])), rng);
    answer.epsilon = epsilons[i];
    // Exact != on purpose: the memo only replays on the identical double,
    // so a hit is byte-for-byte what the direct call would return.
    if (epsilons[i] != amplified_for) {  // lint:allow float-eq
      amplified_for = epsilons[i];
      amplified_value = amplified_epsilon(epsilons[i], p);
    }
    answer.epsilon_amplified = amplified_value;
    answer.noise_variance = mechanism.noise_variance();
    amplified.push_back(answer.epsilon_amplified);
    result.total_epsilon += epsilons[i];
    result.answers.push_back(answer);
  }
  result.total_epsilon_amplified = compose_sequential(amplified);
  return result;
}

}  // namespace prc::dp
