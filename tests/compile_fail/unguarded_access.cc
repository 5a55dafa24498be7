// Clang thread-safety analysis must reject both halves of the locking
// discipline: touching a PRC_GUARDED_BY field without its mutex, and
// calling a PRC_REQUIRES (`*_locked`) helper without holding the mutex.
// An unannotated `*_locked` helper fails in its own body the same way the
// first class does.  Registered only with PRC_THREAD_SAFETY_ANALYSIS=ON:
// under GCC the annotation macros are empty.
// compile-flags: -Wthread-safety -Werror=thread-safety
// expect-error-regex: reading variable .* requires holding mutex
// expect-error-regex: calling function .* requires holding mutex
#include "common/thread_annotations.h"

// A minimal annotated capability, so the case does not depend on whether
// the standard library annotates std::mutex.
class PRC_CAPABILITY("mutex") Mutex {};

class BadCounterBox {
 public:
  // Reads the guarded field with no lock in sight.
  long unguarded_total() const { return total_; }

 private:
  Mutex mutex_;
  long total_ PRC_GUARDED_BY(mutex_) = 0;
};

class BadHelperCaller {
 public:
  // The `_locked` suffix is a contract that the caller holds mutex_; this
  // caller never acquires it.
  void unguarded_refresh() { rebuild_cache_locked(); }

 private:
  void rebuild_cache_locked() PRC_REQUIRES(mutex_) { ++cache_epoch_; }

  Mutex mutex_;
  long cache_epoch_ PRC_GUARDED_BY(mutex_) = 0;
};
