// Deliberately broken audit-sink fixture for `prc_lint --self-test`.
//
// The privacy-budget audit timeline (market/audit_log.h) is exported as
// JSONL, so AuditLog::append_event is a sink.  The ledger owns the
// timeline and appends every budget fact through one private fold, so a
// pre-noise estimate handed to a ledger entry point reaches the sink one
// call down, exactly like one stored in an event field directly.
// NOT compiled.

#include <mutex>

#include "common/thread_annotations.h"
#include "common/units.h"
#include "market/audit_log.h"

namespace prc_lint_fixture {

struct FakeNetwork {
  double rank_counting_estimate(int range) const;
};

prc::market::AuditEvent make_price_event(double price);

// The ledger shape: public entry points reach the timeline only through
// the fold, which forwards the event it is given to append_event.
class FakeLedger {
 public:
  void record_sale(double price) {
    std::lock_guard<std::mutex> lock(mutex_);
    fold_locked(make_price_event(price));
  }

 private:
  void fold_locked(prc::market::AuditEvent event) PRC_REQUIRES(mutex_) {
    timeline_.append_event(event);
  }

  std::mutex mutex_;
  prc::market::AuditLog timeline_;
};

// no-raw-to-sink: the un-noised estimate flows through a renamed local
// straight into the audit sink's payload.
void leak_estimate_into_audit(const FakeNetwork& network,
                              prc::market::AuditLog& audit) {
  const double estimate = network.rank_counting_estimate(3);
  const double payload = estimate;
  audit.append_event(make_price_event(payload));
}

// no-raw-to-sink: a units::Raw<...> sample read out with .get() and handed
// to the audit sink directly.
void leak_raw_into_audit(const prc::units::Raw<double>& sample,
                         prc::market::AuditLog& audit) {
  prc::units::Raw<double> held(sample.get());
  const double leaked = held.get();
  audit.append_event(make_price_event(leaked));
}

// interproc-raw-taint: the estimate is "charged" as a price through a
// ledger entry point; the fold appends it to the timeline two calls down.
void leak_estimate_through_ledger(const FakeNetwork& network,
                                  FakeLedger& ledger) {
  const double estimate = network.rank_counting_estimate(5);
  ledger.record_sale(estimate);
}

}  // namespace prc_lint_fixture
