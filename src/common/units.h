// Type-enforced privacy flow: strong privacy-unit types and raw/released
// taint wrappers.
//
// The paper's guarantees are carried by a handful of dimensionless doubles
// that must never be confused with one another:
//
//   Epsilon          the Laplace budget BEFORE sampling amplification —
//                    what the mechanism's noise scale is calibrated to.
//   EffectiveEpsilon the amplified budget eps' = ln(1 + p(e^eps - 1)) of
//                    Lemma 3.4 — what the ledger composes and the broker
//                    caps.  Swapping it with Epsilon silently over- or
//                    under-accounts every sale.
//   Delta            the confidence of an (alpha, delta) contract
//                    (Def. 2.2) and the optimizer's intermediate delta'.
//   Alpha            the relative error bound of the same contract.
//   Probability      a sampling / inclusion probability in (0, 1].
//
// Each alias is a distinct phantom-typed wrapper around one double
// (zero-cost: trivially copyable, same size and layout as double).  The
// rules are:
//
//   * a bare double (or literal) converts IN implicitly — that is the
//     adoption path, policed by the `unit-suffix-consistency` lint rule
//     rather than by the type system;
//   * a unit converts OUT to double implicitly (formula code reads
//     straight through), but double is a dead end: converting on to a
//     DIFFERENT unit would need a second user-defined conversion, which
//     C++ forbids.  `Epsilon e = some_delta;`, passing an
//     EffectiveEpsilon where an Epsilon parameter is declared, and
//     returning the wrong unit are all compile errors;
//   * mixed-unit arithmetic and comparisons (eps < delta, alpha + delta,
//     ...) are explicitly deleted, so they fail even though both sides
//     could decay to double.
//
// Raw<T> / Released<T> implement the raw -> released taint boundary:
// Raw wraps an unperturbed, privacy-sensitive quantity (a RankCounting
// estimate before noise) and converts to NOTHING implicitly — it cannot
// be assigned into a ledger field, a telemetry call, or a receipt without
// a visible `.get()`.  Released wraps a value that went through a
// differentially private mechanism; anyone may read it, but only the DP
// mechanisms listed as friends below can MINT one.  Removing or widening
// that friend list is detected by tests/compile_fail (the cases that
// construct a Released outside the DP layer start compiling, and the
// harness fails).
//
// The compile-fail contract tests in tests/compile_fail/ assert one case
// per forbidden conversion; tests/units_test.cc covers the runtime
// semantics (arithmetic, comparisons, plan round-trips).
#pragma once

#include <type_traits>

namespace prc::dp {
class LaplaceMechanism;
class PrivateRangeCounter;
class HierarchicalMechanism;
}  // namespace prc::dp

namespace prc::units {

/// Phantom-typed double.  `Tag` only disambiguates; it is never defined.
template <class Tag>
class Unit {
 public:
  constexpr Unit() noexcept = default;
  /// Implicit on purpose: literals and legacy doubles flow in freely (the
  /// lint layer owns naming discipline); what the type system forbids is
  /// crossing BETWEEN units.
  constexpr Unit(double value) noexcept : value_(value) {}

  /// Explicit read-out for formula code that wants to be visibly unitless.
  constexpr double value() const noexcept { return value_; }

  /// Implicit read-out: units participate in double arithmetic, streams
  /// and PRC_CHECK messages without ceremony.  The conversion cannot chain
  /// into another unit (one user-defined conversion per sequence).
  constexpr operator double() const noexcept { return value_; }

  // Same-unit accumulation (the ledger and workload totals).  The operand
  // converts through Unit, so `eps += 0.1` works while `eps += delta`
  // would need a second user-defined conversion and fails to compile.
  constexpr Unit& operator+=(Unit other) noexcept {
    value_ += other.value_;
    return *this;
  }
  constexpr Unit& operator-=(Unit other) noexcept {
    value_ -= other.value_;
    return *this;
  }

 private:
  double value_ = 0.0;
};

// Mixed-unit operations are deleted outright.  Without these, both sides
// would decay to double and the typo eps < delta would compile.
#define PRC_UNITS_DELETE_MIXED(op)                          \
  template <class T1, class T2>                             \
    requires(!std::is_same_v<T1, T2>)                       \
  void operator op(Unit<T1>, Unit<T2>) = delete
PRC_UNITS_DELETE_MIXED(+);
PRC_UNITS_DELETE_MIXED(-);
PRC_UNITS_DELETE_MIXED(*);
PRC_UNITS_DELETE_MIXED(/);
PRC_UNITS_DELETE_MIXED(<);
PRC_UNITS_DELETE_MIXED(>);
PRC_UNITS_DELETE_MIXED(<=);
PRC_UNITS_DELETE_MIXED(>=);
PRC_UNITS_DELETE_MIXED(==);
PRC_UNITS_DELETE_MIXED(!=);
#undef PRC_UNITS_DELETE_MIXED

/// Laplace budget before amplification (calibrates sensitivity / epsilon).
using Epsilon = Unit<struct EpsilonTag>;
/// Amplified budget eps' = ln(1 + p(e^eps - 1)) — Lemma 3.4.  The unit the
/// ledger composes, the broker caps, and Theorem 4.2's audit trail sees.
using EffectiveEpsilon = Unit<struct EffectiveEpsilonTag>;
/// Contract confidence delta (and the optimizer's intermediate delta').
using Delta = Unit<struct DeltaTag>;
/// Contract relative error alpha (and the intermediate alpha').
using Alpha = Unit<struct AlphaTag>;
/// Sampling / inclusion probability in (0, 1] (Theorem 3.3's p).
using Probability = Unit<struct ProbabilityTag>;

static_assert(sizeof(Epsilon) == sizeof(double) &&
                  std::is_trivially_copyable_v<Epsilon>,
              "units must stay zero-cost wrappers");

/// An unperturbed, privacy-sensitive value (e.g. the pre-noise
/// RankCounting estimate).  No implicit conversions in or out: every read
/// is a visible `.get()`, which the `no-raw-to-sink` lint rule tracks
/// through assignments into telemetry / ledger / serialization sinks.
template <class T>
class Raw {
 public:
  constexpr Raw() noexcept = default;
  constexpr explicit Raw(T value) noexcept(
      std::is_nothrow_move_constructible_v<T>)
      : value_(static_cast<T&&>(value)) {}

  /// The only way out.  Callers take responsibility for where it flows.
  constexpr const T& get() const noexcept { return value_; }

 private:
  T value_{};
};

/// A value that has passed through a differentially private mechanism.
/// Freely readable (implicit conversion to T), but constructible from a
/// value only by the DP mechanisms below — the single Raw -> Released
/// boundary the type system enforces.  tests/compile_fail/ guards the
/// boundary itself: widening this friend list (or making the constructor
/// public) flips a compile-fail case to compiling and fails the harness.
template <class T>
class Released {
 public:
  /// A default Released carries the zero value; aggregates holding one
  /// (PrivateAnswer, WorkloadAnswer) stay default-constructible.
  constexpr Released() noexcept = default;

  constexpr const T& value() const noexcept { return value_; }
  constexpr operator T() const noexcept { return value_; }

 private:
  constexpr explicit Released(T value) noexcept(
      std::is_nothrow_move_constructible_v<T>)
      : value_(static_cast<T&&>(value)) {}

  friend class ::prc::dp::LaplaceMechanism;
  friend class ::prc::dp::PrivateRangeCounter;
  friend class ::prc::dp::HierarchicalMechanism;

  T value_{};
};

}  // namespace prc::units

namespace prc {
using units::Alpha;
using units::Delta;
using units::EffectiveEpsilon;
using units::Epsilon;
using units::Probability;
using units::Raw;
using units::Released;
}  // namespace prc
