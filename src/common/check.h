// Runtime contract checking for the paper's guarantees.
//
// The privacy, accuracy and pricing theorems this repo reproduces are
// global properties that silent numeric bugs erode without failing a
// single unit test: a Horvitz–Thompson estimate fed a p outside (0, 1],
// a Laplace mechanism with non-positive scale, a ledger that loses track
// of released epsilon', or a pricing menu that drifts out of the
// Theorem 4.2 family.  Every layer therefore guards its invariants with
// the macros below instead of ad-hoc `throw` statements:
//
//   PRC_CHECK(cond) << "detail " << value;   always on
//   PRC_DCHECK(cond) << "detail";            debug / PRC_DCHECK_ALWAYS_ON
//   PRC_CHECK_PROB(p);                       p finite and in (0, 1]
//   PRC_CHECK_FINITE(x);                     x finite (no NaN/inf)
//
// A violation throws prc::ContractViolation.  It derives from
// std::invalid_argument (hence std::logic_error), so callers and tests
// written against the standard hierarchy keep working.
//
// Notes:
//  - The value macros (PRC_CHECK_PROB / PRC_CHECK_FINITE) may evaluate
//    their argument twice; pass idempotent expressions.
//  - A PRC_CHECK that fires while another exception is unwinding
//    terminates, like any throwing cleanup; do not place checks in
//    destructors of stack objects that outlive a throw.
#pragma once

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

namespace prc {

/// Thrown when a PRC_CHECK fails.  Derives from std::invalid_argument so
/// pre-contract call sites that threw the standard exception remain drop-in
/// compatible.
class ContractViolation : public std::invalid_argument {
 public:
  explicit ContractViolation(const std::string& what)
      : std::invalid_argument(what) {}
};

namespace contracts {

/// Formats one contract violation and throws it as a ContractViolation.
[[noreturn]] void raise_violation(const char* file, int line,
                                  const char* expression,
                                  const std::string& detail);

/// Collects the streamed detail of a failing check; its destructor raises
/// the violation once the full message has been assembled.
class Failure {
 public:
  Failure(const char* file, int line, const char* expression)
      : file_(file), line_(line), expression_(expression) {}
  Failure(const Failure&) = delete;
  Failure& operator=(const Failure&) = delete;

  ~Failure() noexcept(false) {
    raise_violation(file_, line_, expression_, stream_.str());
  }

  template <typename T>
  Failure& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  const char* file_;
  int line_;
  const char* expression_;
  std::ostringstream stream_;
};

/// Lower-precedence-than-<< sink that gives the check macros a void type.
struct Voidify {
  void operator&(const Failure&) const noexcept {}
};

/// Swallows the streamed detail of a compiled-out PRC_DCHECK.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) noexcept {
    return *this;
  }
};

inline bool is_probability(double value) noexcept {
  return std::isfinite(value) && value > 0.0 && value <= 1.0;
}

}  // namespace contracts
}  // namespace prc

/// Always-on invariant check with a stream-style message:
///   PRC_CHECK(p > 0.0) << "p=" << p;
#define PRC_CHECK(condition)                                         \
  (condition) ? (void)0                                              \
              : ::prc::contracts::Voidify() &                        \
                    ::prc::contracts::Failure(__FILE__, __LINE__, #condition)

// PRC_DCHECK guards invariants that are too hot to verify in release
// builds (per-byte codec bounds, per-record ledger audits).  It compiles
// to the full PRC_CHECK in debug builds and whenever PRC_DCHECK_ALWAYS_ON
// is defined (the sanitizer CI jobs build Debug, so they always check).
#if !defined(NDEBUG) || defined(PRC_DCHECK_ALWAYS_ON)
#define PRC_DCHECK_IS_ON() 1
#define PRC_DCHECK(condition) PRC_CHECK(condition)
#else
#define PRC_DCHECK_IS_ON() 0
#define PRC_DCHECK(condition)                      \
  while (false && static_cast<bool>(condition))    \
  ::prc::contracts::NullStream()
#endif

/// Sampling / inclusion probabilities must be finite and in (0, 1].
#define PRC_CHECK_PROB(value)                                  \
  PRC_CHECK(::prc::contracts::is_probability(value))           \
      << #value " must be a probability in (0, 1], got " << (value)

/// NaN and infinity poison every estimate and price downstream.
#define PRC_CHECK_FINITE(value)                     \
  PRC_CHECK(std::isfinite(value))                   \
      << #value " must be finite, got " << (value)
