#include "dp/private_counting.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <stdexcept>

#include "common/check.h"
#include "common/crash_point.h"
#include "common/logging.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "dp/amplification.h"
#include "dp/laplace_mechanism.h"

namespace prc::dp {
namespace {

// Multiplier on the Theorem 3.3 probability when topping up, leaving
// headroom for the noise phase.
constexpr double kProbabilityHeadroom = 2.0;

}  // namespace

std::string coverage_shortfall_message(const CoverageShortfall& shortfall) {
  const auto& cov = shortfall.coverage;
  if (shortfall.reason == CoverageShortfall::Reason::kContractUnreachable) {
    return "accuracy contract " + shortfall.spec.to_string() +
           " unreachable: degraded collection left coverage at " +
           std::to_string(cov.coverage);
  }
  if (!(cov.min_probability > 0.0)) {
    return "no degraded contract exists: some node never reported at all";
  }
  return "no degraded contract exists even at alpha = 1 (effective p " +
         std::to_string(cov.min_probability) + ")";
}

PrivateRangeCounter::PrivateRangeCounter(iot::SamplingNetwork& network,
                                         PrivateCounterConfig config,
                                         std::uint64_t seed)
    : network_(network), optimizer_(config.optimizer), noise_rng_(seed) {}

std::variant<PerturbationPlan, CoverageShortfall>
PrivateRangeCounter::ensure_feasible_plan(
    const query::AccuracySpec& spec,
    std::shared_ptr<const iot::StationView>& view) {
  spec.validate();
  PRC_TRACE_SPAN("dp.ensure_feasible_plan");
  static telemetry::Counter& coverage_errors =
      telemetry::counter("dp.coverage_errors");
  static telemetry::Counter& topups = telemetry::counter("dp.topups");
  const std::size_t k = view->node_count();
  const std::size_t n = network_.total_data_count();

  double target_p = std::max<double>(
      view->coverage.target_p,
      optimizer_.minimum_feasible_probability(spec, k, n,
                                              kProbabilityHeadroom));
  for (;;) {
    network_.ensure_sampling_probability(target_p, view);
    const double p = view->coverage.target_p;
    const auto& cov = view->coverage;
    // Accuracy must be argued from the probability every node actually
    // REACHED, not the round target: a degraded round leaves stragglers at
    // an older p_i, and the Chebyshev bound is only as good as the worst of
    // them.  min_probability == 0 means some node never reported — no
    // finite accuracy statement covers its data.
    const double p_eff = cov.min_probability;
    if (p_eff > 0.0) {
      auto plan = optimizer_.optimize(spec, p_eff, k, n, view->max_data_count);
      if (plan) {
        if (cov.max_probability > p_eff) {
          // Privacy amplification is per node and weakest for the MOST
          // included node; re-derive the effective budget at max p_i (the
          // optimizer priced it at the conservative accuracy-side p_eff).
          plan->epsilon_amplified =
              amplified_epsilon(plan->epsilon, cov.max_probability);
        }
        return *plan;
      }
    }
    if (p >= 1.0) {
      coverage_errors.increment();
      if (!cov.complete()) {
        return CoverageShortfall{
            CoverageShortfall::Reason::kContractUnreachable, spec, cov};
      }
      throw std::runtime_error(
          "accuracy contract " + spec.to_string() +
          " infeasible even with every datum sampled");
    }
    // Escalate: more samples shrink alpha_lo and open the search space
    // (and re-attempts delivery to nodes that dropped out last round).
    topups.increment();
    target_p = std::min(1.0, p * 1.5);
    PRC_LOG_INFO << "contract " << spec.to_string()
                 << " infeasible at effective p=" << p_eff
                 << "; topping up to " << target_p;
  }
}

AnswerOutcome PrivateRangeCounter::try_answer(const query::RangeQuery& range,
                                              const query::AccuracySpec& spec,
                                              const MintBarrier& barrier) {
  static telemetry::Counter& answers = telemetry::counter("dp.answers");
  static telemetry::Counter& laplace_draws =
      telemetry::counter("dp.laplace_draws");
  static telemetry::Gauge& epsilon_spent_total =
      telemetry::gauge("dp.epsilon_spent_total");
  static telemetry::Histogram& laplace_scale_hist =
      telemetry::histogram("dp.laplace_scale");
  static telemetry::Histogram& epsilon_amplified_hist =
      telemetry::histogram("dp.epsilon_amplified");
  static telemetry::Histogram& answer_duration =
      telemetry::histogram("dp.answer_duration_us");
  range.validate();
  PRC_TRACE_SPAN("dp.answer");
  telemetry::ScopedTimer answer_timer(answer_duration);
  // One release at a time: the noise stream stays serial and the top-up
  // below never interleaves with another seller's.
  std::lock_guard<std::mutex> lock(mutex_);
  PrivateAnswer out;
  // The hold is load-bearing: the feasibility top-up mutates sampling
  // state, and releasing between plan and estimate would let another
  // seller's top-up interleave.
  auto view = network_.base_station().view();
  auto plan = ensure_feasible_plan(spec, view);  // lint:allow blocking
  if (auto* shortfall = std::get_if<CoverageShortfall>(&plan)) return *shortfall;
  out.plan = std::get<PerturbationPlan>(plan);
  // The plan, the coverage and the estimate all come from the view the
  // top-up above settled on; the serial noise stream below must not
  // interleave with another answer's.
  out.coverage = view->coverage;
  out.sampled_estimate = units::Raw<double>(
      view->rank_counting_estimate(range));  // lint:allow blocking

  PRC_CHECK_FINITE(out.sampled_estimate.get());
  // Durability barrier: everything above can still fail with nothing
  // released; everything below is a mint the caller promised to account
  // for.  The barrier sees the final plan, so a durable intent written
  // here carries the exact epsilon' the draw below spends.
  if (barrier && !barrier(out.plan)) return MintDeclined{out.plan};
  const LaplaceMechanism mechanism(out.plan.sensitivity, out.plan.epsilon);
  out.value = mechanism.perturb(out.sampled_estimate, noise_rng_);
  answers.increment();
  laplace_draws.increment();
  epsilon_spent_total.add(out.plan.epsilon_amplified);
  laplace_scale_hist.record(out.plan.laplace_scale);
  epsilon_amplified_hist.record(out.plan.epsilon_amplified);
  // Crash here models dying with budget spent but the sale not yet in the
  // ledger — the orphaned-intent case recovery must charge as spent.
  PRC_CRASH_POINT("dp.post_mint");
  // The release the market audits: a non-finite value or an amplified
  // budget above the base budget would void both the contract and the
  // ledger's composition accounting.
  PRC_CHECK_FINITE(out.value);
  PRC_CHECK(out.plan.epsilon_amplified <= out.plan.epsilon * (1.0 + 1e-12))
      << "amplified budget exceeds base budget: " << out.plan.to_string();
  // Clamping a released value is post-processing; re-minting it here is
  // legitimate (PrivateRangeCounter is inside the friend boundary).
  out.value = units::Released<double>(
      std::clamp(out.value.value(), 0.0,
                 static_cast<double>(network_.total_data_count())));
  return out;
}

PrivateAnswer PrivateRangeCounter::answer(const query::RangeQuery& range,
                                          const query::AccuracySpec& spec) {
  AnswerOutcome outcome = try_answer(range, spec, {});
  if (auto* shortfall = std::get_if<CoverageShortfall>(&outcome)) {
    throw CoverageError(*shortfall);
  }
  return std::get<PrivateAnswer>(std::move(outcome));
}

std::variant<query::AccuracySpec, CoverageShortfall>
PrivateRangeCounter::degraded_spec(const query::AccuracySpec& requested) const {
  requested.validate();
  std::lock_guard<std::mutex> lock(mutex_);
  const auto view = network_.base_station().view();
  const std::size_t k = view->node_count();
  const std::size_t n = network_.total_data_count();
  const auto& cov = view->coverage;
  const double p_eff = cov.min_probability;
  query::AccuracySpec spec = requested;
  // min p_i == 0 means some node never reported: no widening covers it.
  while (p_eff > 0.0) {
    if (optimizer_.optimize(spec, p_eff, k, n, view->max_data_count)) {
      return spec;
    }
    if (spec.alpha >= 1.0) break;
    spec.alpha = std::min(1.0, spec.alpha * 1.25);
  }
  return CoverageShortfall{CoverageShortfall::Reason::kNoDegradedContract,
                           requested, cov};
}

PerturbationPlan PrivateRangeCounter::plan_for(
    const query::AccuracySpec& spec) const {
  spec.validate();
  std::lock_guard<std::mutex> lock(mutex_);
  const auto view = network_.base_station().view();
  const std::size_t k = view->node_count();
  const std::size_t n = network_.total_data_count();
  double p = std::max<double>(
      view->coverage.target_p,
      optimizer_.minimum_feasible_probability(spec, k, n,
                                              kProbabilityHeadroom));
  for (;;) {
    const auto plan = optimizer_.optimize(spec, p, k, n, view->max_data_count);
    if (plan) return *plan;
    if (p >= 1.0) {
      throw std::runtime_error(
          "accuracy contract " + spec.to_string() +
          " infeasible even with every datum sampled");
    }
    p = std::min(1.0, p * 1.5);
  }
}

}  // namespace prc::dp
