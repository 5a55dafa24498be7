// End-to-end differentially private (alpha, delta)-range counting.
//
// PrivateRangeCounter glues the pipeline of paper §III together:
//   1. top up the network's sample cache until the optimizer has a feasible
//      (alpha', delta') split for the requested contract,
//   2. compute the RankCounting estimate from the cache,
//   3. perturb it with the optimizer's minimum-budget Laplace plan,
//   4. release the noisy answer together with the plan (the plan carries the
//      effective amplified budget epsilon', which the market layer audits).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <variant>

#include "common/rng.h"
#include "common/thread_annotations.h"
#include "common/units.h"
#include "dp/optimizer.h"
#include "iot/sampling_network.h"
#include "query/range_query.h"

namespace prc::dp {

/// Why the sample cache cannot support a contract, as a value: the
/// counter returns it, the broker refuses on it, and only answer() turns it
/// into a CoverageError.  kContractUnreachable: degraded collection leaves
/// `spec` unreachable even after escalating the round target to p = 1
/// (try_answer).  kNoDegradedContract: no widening of `spec` is reachable at
/// the achieved minimum per-node probability (degraded_spec).
struct CoverageShortfall {
  enum class Reason { kContractUnreachable, kNoDegradedContract };
  Reason reason = Reason::kContractUnreachable;
  /// The contract the cache could not support.
  query::AccuracySpec spec;
  /// The coverage the counter read.
  iot::CoverageSummary coverage;
};

/// A shortfall's text: "accuracy contract <spec> unreachable: degraded
/// collection left coverage at <coverage>", or "no degraded contract exists:
/// some node never reported at all", or "no degraded contract exists even at
/// alpha = 1 (effective p <min p_i>)"; numbers as std::to_string prints them.
std::string coverage_shortfall_message(const CoverageShortfall& shortfall);

/// Thrown by PrivateRangeCounter::answer for a shortfall of the degraded
/// collection (offline nodes, dropped frames), with its coverage snapshot.
class CoverageError : public std::runtime_error {
 public:
  explicit CoverageError(const CoverageShortfall& shortfall)
      : std::runtime_error(coverage_shortfall_message(shortfall)),
        coverage_(shortfall.coverage) {}

  const iot::CoverageSummary& coverage() const noexcept { return coverage_; }

 private:
  iot::CoverageSummary coverage_;
};

/// One private release.
struct PrivateAnswer {
  /// The released count, clamped to [0, n] (counts are nonnegative and
  /// clamping is post-processing, so DP is unaffected).
  /// Released<double>: minting happens only inside the DP layer, so a
  /// PrivateAnswer can never carry an unperturbed value here.
  units::Released<double> value;
  /// The pre-noise sampling estimate (internal; never released to consumers
  /// by the market layer).  Raw<double>: does not convert to double, so it
  /// cannot silently flow into a receipt, ledger entry or telemetry call.
  units::Raw<double> sampled_estimate;
  /// The plan the answer was produced under.
  PerturbationPlan plan;
  /// Cache coverage at answer time.  A complete() summary means the plan's
  /// contract holds exactly as quoted; otherwise the accuracy phase was run
  /// against the smallest effective per-node probability.
  iot::CoverageSummary coverage;
};

/// Durability hook try_answer() invokes with the FINAL perturbation plan —
/// after feasibility/top-up settles the plan, immediately before the
/// Laplace draw mints the release.  The market layer uses it to flush a
/// write-ahead intent record carrying the exact epsilon' about to be
/// spent, so a crash after the mint can only ever over-count released
/// budget.  Returning false declines the mint: try_answer() stops with
/// nothing released (no noise has been drawn yet).
using MintBarrier = std::function<bool(const PerturbationPlan&)>;

/// try_answer()'s result when the barrier declined the mint of `plan`.
struct MintDeclined {
  PerturbationPlan plan;
};

/// try_answer()'s result: the release, the shortfall that stopped it before
/// the barrier ran, or the barrier's decline.
using AnswerOutcome =
    std::variant<PrivateAnswer, CoverageShortfall, MintDeclined>;

struct PrivateCounterConfig {
  OptimizerConfig optimizer;
};

/// Thread-safety: try_answer(), plan_for() and degraded_spec() serialize on
/// an internal mutex — concurrent sellers (market::MarketSimulation's
/// concurrent-consumers mode) may share one counter.  The lock covers both
/// the shared noise stream (every Laplace draw must come from ONE serial
/// stream or the privacy accounting of the released values falls apart) and
/// the network top-ups try_answer() performs (the sample cache is mutated
/// through a plain reference).  Each call reads k, p, coverage and the
/// largest n_i from one BaseStation::view(), so an answer's plan, coverage
/// and estimate describe the same cache state.  Const readers that bypass
/// the counter are safe through base_station().view(); anything else
/// requires quiescence.
class PrivateRangeCounter {
 public:
  /// The counter drives `network` (tops up its samples); the network must
  /// outlive the counter.  `seed` feeds the noise stream.
  PrivateRangeCounter(iot::SamplingNetwork& network,
                      PrivateCounterConfig config = {},
                      std::uint64_t seed = 97);

  /// Serves one (alpha, delta)-range counting request.  Returns a
  /// CoverageShortfall when degraded collection keeps the cache from the
  /// contract (the caller may retry with degraded_spec()), and MintDeclined
  /// when `barrier`, which runs with the final plan just before the noise
  /// draw, returns false; neither releases anything.  Throws
  /// std::runtime_error if the contract is infeasible even with every datum
  /// sampled (p = 1).
  AnswerOutcome try_answer(const query::RangeQuery& range,
                           const query::AccuracySpec& spec,
                           const MintBarrier& barrier);

  /// try_answer() without a barrier, throwing CoverageError on a shortfall.
  PrivateAnswer answer(const query::RangeQuery& range,
                       const query::AccuracySpec& spec);

  /// The plan that would currently be used for `spec`, without touching the
  /// network or spending budget (for price quoting).
  PerturbationPlan plan_for(const query::AccuracySpec& spec) const;

  /// The weakest widening of `requested` (alpha grown at fixed delta) that
  /// the cache supports at its ACHIEVED minimum per-node probability.  This
  /// is what a broker re-quotes after a shortfall.  Returns a
  /// kNoDegradedContract shortfall when no finite widening helps.
  std::variant<query::AccuracySpec, CoverageShortfall> degraded_spec(
      const query::AccuracySpec& requested) const;

 private:
  /// Tops up until the optimizer has a plan, or returns the shortfall at
  /// p = 1; `view` starts as the current station view and is re-read only
  /// after a real round.
  std::variant<PerturbationPlan, CoverageShortfall> ensure_feasible_plan(
      const query::AccuracySpec& spec,
      std::shared_ptr<const iot::StationView>& view) PRC_REQUIRES(mutex_);

  mutable std::mutex mutex_;
  /// Guarded by mutex_ too: try_answer() mutates the cache via top-up
  /// rounds, and plan_for()/degraded_spec() must not observe a half-finished
  /// round.
  iot::SamplingNetwork& network_;
  PerturbationOptimizer optimizer_;
  Rng noise_rng_ PRC_GUARDED_BY(mutex_);
};

}  // namespace prc::dp
