// A bounded, thread-safe LRU memo for pure functions keyed by bit patterns.
//
// The planner and the broker both memoize a pure function of a few doubles
// and counts (dp::PlanCache over the (alpha', delta') search,
// pricing::QuoteCache over psi(V)).  Keys are the bit patterns of those
// values, so "the same input" means exactly the same bytes and a hit
// returns exactly the value the miss computed.  Because the value is a
// deterministic function of the key, two racing misses store identical
// bytes: put() keeps the incumbent, and which racer wins is unobservable —
// callers stay bit-identical at any thread count.  Callers count their own
// hits and misses (each memo has its own metric names).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/thread_annotations.h"

namespace prc {

/// A multiply-xorshift mix of a key's 64-bit words, one word per step:
/// cheap, stable across platforms, and spreads the low and high bits of
/// every word (a double's bit pattern often has all-zero low bits) over
/// the whole hash.  libstdc++ does not cache the hash codes of these
/// hashers, so lookups re-hash neighbouring nodes too and its cost counts.
template <std::size_t N>
std::size_t hash_words(const std::array<std::uint64_t, N>& words) noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const std::uint64_t word : words) {
    h = (h ^ word) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
  }
  h *= 0x94d049bb133111ebULL;
  return static_cast<std::size_t>(h ^ (h >> 29));
}

/// Bounded LRU map from `Key` to `Value`.  All methods take the internal
/// mutex, so callers must not hold it (PRC_EXCLUDES); the memoized
/// function is evaluated by the caller, outside the lock.
template <typename Key, typename Value, typename Hash>
class LruMemo {
 public:
  /// `capacity` == 0 disables the memo: every lookup misses and puts are
  /// dropped.
  explicit LruMemo(std::size_t capacity) : capacity_(capacity) {}

  LruMemo(const LruMemo&) = delete;
  LruMemo& operator=(const LruMemo&) = delete;

  /// The memoized value for `key`, refreshing its recency, or nullopt.
  std::optional<Value> lookup(const Key& key) const PRC_EXCLUDES(mutex_) {
    std::optional<Value> value;
    read(key, [&value](const Value& stored) { value = stored; });
    return value;
  }

  /// Calls `reader` with the value for `key` under the lock, refreshing its
  /// recency; returns false, without calling it, when `key` is absent.  For
  /// a caller that needs only part of a value that is costly to copy out.
  /// `reader` must not call back into this memo.
  template <typename Reader>
  bool read(const Key& key, Reader&& reader) const PRC_EXCLUDES(mutex_) {
    if (capacity_ == 0) return false;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) return false;
    entries_.splice(entries_.begin(), entries_, it->second);
    reader(std::as_const(it->second->second));
    return true;
  }

  /// Stores `value` unless `key` is already present (a racing put keeps
  /// the incumbent), evicting the least recently used entry when full.
  /// Returns true when an entry was evicted.
  bool put(const Key& key, const Value& value) const PRC_EXCLUDES(mutex_) {
    return store(key, value, /*replace=*/false);
  }

  /// Like put(), but an incumbent for `key` takes `value` and becomes the
  /// most recently used: for values that are not a pure function of the
  /// key alone, where the newer value is the one to keep.
  bool replace(const Key& key, const Value& value) const PRC_EXCLUDES(mutex_) {
    return store(key, value, /*replace=*/true);
  }

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const PRC_EXCLUDES(mutex_) {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

 private:
  using EntryList = std::list<std::pair<Key, Value>>;

  bool store(const Key& key, const Value& value, bool replace) const
      PRC_EXCLUDES(mutex_) {
    if (capacity_ == 0) return false;
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = index_.find(key); it != index_.end()) {
      if (replace) {
        it->second->second = value;
        entries_.splice(entries_.begin(), entries_, it->second);
      }
      return false;
    }
    if (entries_.size() < capacity_) {
      entries_.emplace_front(key, value);
      index_.emplace(key, entries_.begin());
      return false;
    }
    // Full: the least recently used entry's list and index nodes are
    // reused for the new one, so a put at capacity allocates nothing.
    auto node = index_.extract(entries_.back().first);
    entries_.splice(entries_.begin(), entries_, std::prev(entries_.end()));
    entries_.front().first = key;
    entries_.front().second = value;
    node.key() = key;
    index_.insert(std::move(node));
    return true;
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  /// Front = most recently used; back = eviction candidate.
  mutable EntryList entries_ PRC_GUARDED_BY(mutex_);
  mutable std::unordered_map<Key, typename EntryList::iterator, Hash> index_
      PRC_GUARDED_BY(mutex_);
};

}  // namespace prc
