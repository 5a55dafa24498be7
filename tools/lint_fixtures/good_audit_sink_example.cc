// Correct-usage twin of bad_audit_sink_example.cc: the audit timeline only
// ever records budget arithmetic — epsilon amounts, prices, sequence
// numbers — never estimates, whether appended directly or through the
// ledger's fold.  Zero findings expected.  NOT compiled.

#include <mutex>

#include "common/thread_annotations.h"
#include "common/units.h"
#include "market/audit_log.h"

namespace prc_lint_fixture {

prc::market::AuditEvent make_mint_event(prc::units::EffectiveEpsilon epsilon);

// The ledger shape: the fold is the single append point.
class CleanLedger {
 public:
  void mint(prc::units::EffectiveEpsilon epsilon) {
    std::lock_guard<std::mutex> lock(mutex_);
    fold_locked(make_mint_event(epsilon));
  }

 private:
  void fold_locked(prc::market::AuditEvent event) PRC_REQUIRES(mutex_) {
    timeline_.append_event(event);
  }

  std::mutex mutex_;
  prc::market::AuditLog timeline_;
};

// Epsilon amounts and prices are budget metadata, always auditable.
void clean_audit_mint(prc::market::AuditLog& audit,
                      prc::units::EffectiveEpsilon epsilon, double price) {
  prc::market::AuditEvent event;
  event.type = prc::market::AuditEventType::kMint;
  event.epsilon = epsilon;
  event.price = price;
  audit.append_event(event);
}

// A released (post-noise) value may inform the detail string's shape
// without its raw precursor ever reaching the sink.
void clean_audit_release(prc::market::AuditLog& audit,
                         prc::units::Released<double> released) {
  prc::market::AuditEvent event;
  event.type = prc::market::AuditEventType::kCommit;
  event.price = released.value();
  audit.append_event(event);
}

// The plan's epsilon' reaches the timeline through the ledger's fold.
void clean_ledger_mint(CleanLedger& ledger,
                       prc::units::EffectiveEpsilon epsilon) {
  ledger.mint(epsilon);
}

}  // namespace prc_lint_fixture
