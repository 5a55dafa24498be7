#include "dp/amplification.h"

#include <cmath>

#include "common/check.h"
#include "common/telemetry.h"

namespace prc::dp {

units::EffectiveEpsilon amplified_epsilon(units::Epsilon epsilon_in,
                                          units::Probability p_in) {
  const double epsilon = epsilon_in.value();
  const double p = p_in.value();
  // Called once per optimizer grid point; cache the registry reference
  // (stable across reset(), which zeroes in place) to keep the hot path at
  // one relaxed atomic increment.
  static telemetry::Counter& amplification_calls =
      telemetry::counter("dp.amplification_calls");
  amplification_calls.increment();
  PRC_CHECK(std::isfinite(epsilon) && epsilon >= 0.0)
      << "epsilon must be >= 0, got " << epsilon;
  PRC_CHECK(std::isfinite(p) && p >= 0.0 && p <= 1.0)
      << "p must be in [0, 1], got " << p;
  // ln(1 - p + p e^eps) = ln(1 + p (e^eps - 1)); use expm1/log1p for
  // stability when epsilon or p is tiny.  Past the expm1 overflow point
  // (~709) switch to the algebraically equal form
  //   eps + ln(p + (1 - p) e^-eps),
  // which stays finite and tends to eps + ln(p) — without it the result
  // overflows to inf and violates the Lemma 3.4 monotonicity contract.
  constexpr double kExpm1SafeMax = 700.0;
  const double amplified =
      epsilon <= kExpm1SafeMax
          ? std::log1p(p * std::expm1(epsilon))
          : (p == 0.0 ? 0.0
                      : epsilon + std::log(p + (1.0 - p) * std::exp(-epsilon)));
  // Lemma 3.4 monotonicity: subsampling can only strengthen privacy, so
  // the amplified budget never exceeds the base budget (tiny fp slack).
  PRC_DCHECK(amplified >= 0.0 &&
             amplified <= epsilon * (1.0 + 1e-12) + 1e-12)
      << "amplification must satisfy 0 <= eps' <= eps; eps=" << epsilon
      << " p=" << p << " eps'=" << amplified;
  return amplified;
}

units::Epsilon base_epsilon_for_amplified(units::EffectiveEpsilon target_in,
                                          units::Probability p_in) {
  const double target = target_in.value();
  const double p = p_in.value();
  PRC_CHECK(std::isfinite(target) && target >= 0.0)
      << "target must be >= 0, got " << target;
  PRC_CHECK_PROB(p);
  // e^eps = 1 + (e^target - 1) / p.  Past the expm1 overflow point use the
  // algebraically equal  target - ln(p) + log1p((p - 1) e^-target), which
  // stays finite (tends to target - ln p).
  constexpr double kExpm1SafeMax = 700.0;
  const double base =
      target <= kExpm1SafeMax
          ? std::log1p(std::expm1(target) / p)
          : target - std::log(p) + std::log1p((p - 1.0) * std::exp(-target));
  PRC_DCHECK(base >= target * (1.0 - 1e-12) - 1e-12)
      << "inverse amplification must not shrink the budget; target="
      << target << " p=" << p << " base=" << base;
  return base;
}

}  // namespace prc::dp
