// Privacy amplification by sampling.
//
// Lemma 3.4 (generalized from Kasiviswanathan et al.): if phi is
// epsilon-DP and S subsamples each item independently with probability p,
// then phi(S(.)) is epsilon'-DP with epsilon' = ln(1 - p + p e^epsilon).
// The optimizer minimizes this amplified budget.
#pragma once

#include "common/units.h"

namespace prc::dp {

/// epsilon' = ln(1 - p + p * e^epsilon).  Requires epsilon >= 0, p in [0, 1].
units::EffectiveEpsilon amplified_epsilon(units::Epsilon epsilon,
                                          units::Probability p);

/// Inverse: the base epsilon whose amplification at probability p equals
/// `target`.  Requires target >= 0 and p in (0, 1].
units::Epsilon base_epsilon_for_amplified(units::EffectiveEpsilon target,
                                          units::Probability p);

}  // namespace prc::dp
