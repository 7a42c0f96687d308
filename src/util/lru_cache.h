#ifndef KBQA_UTIL_LRU_CACHE_H_
#define KBQA_UTIL_LRU_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace kbqa {

/// Memory-budgeted, sharded LRU cache.
///
/// The key space is hash-partitioned over N independent shards (N rounded
/// up to a power of two), each guarded by its own shared mutex and holding
/// its own recency list, so concurrent lookups on different shards never
/// contend.
/// Every entry is byte-accounted as `sizeof(Key) + payload_bytes` (the
/// caller states the payload size at insert time).
///
/// Budget: each shard owns `budget_bytes / N` bytes and keeps its own books
/// within that slice under its own lock, so `GetStats().bytes <=
/// budget_bytes()` holds at every instant. An insert evicts only from its
/// key's shard, and an entry larger than one slice is not cached. A budget
/// of 0 means unbounded: nothing is ever evicted and the cache degenerates
/// to a sharded memo table.
///
/// Recency: `Get` takes its shard lock exclusively and promotes the entry
/// to the front of the list. `Visit` takes it shared, so hits on one hot
/// shard run side by side; it cannot splice the list there, so it marks
/// the entry instead (a reference bit, written only when clear, so a hot
/// entry's line is not re-dirtied on every hit). Eviction, under the
/// exclusive lock, gives a marked tail one second chance: it clears the
/// mark, moves the entry to the front and looks at the next tail. Order is
/// therefore exact LRU for a shard read only through `Get`, CLOCK-like for
/// one read through `Visit`, and per shard, not across shards.
///
/// Lookups are copy-out: `Get` copies the stored value into the caller's
/// buffer under the shard lock, and `Visit` lets the caller check the
/// entry and copy out what it needs there. Returning references would pin
/// entries against eviction (or dangle after one); copying keeps the
/// locking trivial. Values are expected to be small (e.g. the
/// per-(entity, path) value vectors and the answers of the online engine).
///
/// Thread safety: all methods are safe to call concurrently, and each
/// takes at most one shard lock at a time.
template <typename Key, typename Value>
class ShardedLruCache {
 public:
  struct Stats {
    uint64_t entries = 0;
    uint64_t bytes = 0;      // summed entry charges currently resident
    uint64_t evictions = 0;  // entries dropped to make room since creation
  };

  /// `budget_bytes == 0` means unbounded. `num_shards` is rounded up to a
  /// power of two (minimum 1).
  explicit ShardedLruCache(uint64_t budget_bytes, size_t num_shards = 16)
      : budget_bytes_(budget_bytes) {
    size_t shards = 1;
    while (shards < num_shards) shards <<= 1;
    shards_ = std::vector<Shard>(shards);
    slice_bytes_ = budget_bytes / shards;
  }

  /// Copies the value for `key` into `*out` and promotes the entry to
  /// most-recently-used, under the exclusive shard lock. Returns false
  /// (leaving `*out` untouched) when the key is absent.
  bool Get(const Key& key, Value* out) {
    Shard& shard = ShardFor(key);
    WriterMutexLock lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) return false;
    *out = it->second->value;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return true;
  }

  /// Calls `visit(const Value&)` on the entry for `key` under its shard
  /// lock held shared, so visits of one key run concurrently — one lookup
  /// to check an entry and copy out what the caller needs. When `visit`
  /// returns true the entry is marked for a second chance at eviction and
  /// Visit returns true; it returns false when the key is absent or
  /// `visit` rejected the entry. `visit` may run on several threads at
  /// once and must not call back into the cache.
  template <typename Visitor>
  bool Visit(const Key& key, Visitor&& visit) {
    Shard& shard = ShardFor(key);
    ReaderMutexLock lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) return false;
    Entry& entry = *it->second;
    if (!visit(std::as_const(entry.value))) return false;
    if (!entry.referenced.load(std::memory_order_relaxed)) {
      entry.referenced.store(true, std::memory_order_relaxed);
    }
    return true;
  }

  /// Inserts `value` under `key` under its shard lock, held exclusively,
  /// and returns how many entries were evicted to make room. A present
  /// entry of the key is dropped first, so a same-key insert REPLACES the
  /// value and the books carry only the new charge, `sizeof(Key) +
  /// payload_bytes`. Tail entries of this shard are then evicted until
  /// the charge fits its slice. An entry whose charge alone exceeds the
  /// slice is not cached, and the key is left absent.
  uint64_t Insert(const Key& key, Value value, uint64_t payload_bytes) {
    const uint64_t charge = sizeof(Key) + payload_bytes;
    Shard& shard = ShardFor(key);
    WriterMutexLock lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.bytes -= it->second->charge;
      shard.lru.erase(it->second);
      shard.index.erase(it);
    }
    uint64_t evicted = 0;
    if (budget_bytes_ != 0) {
      if (charge > slice_bytes_) return 0;
      while (shard.bytes + charge > slice_bytes_) {
        // Second chance: a marked tail moves to the front unmarked. Every
        // entry passed is left unmarked, so this ends within one pass.
        while (shard.lru.back().referenced.load(std::memory_order_relaxed)) {
          shard.lru.back().referenced.store(false, std::memory_order_relaxed);
          shard.lru.splice(shard.lru.begin(), shard.lru,
                           std::prev(shard.lru.end()));
        }
        Entry& victim = shard.lru.back();
        shard.bytes -= victim.charge;
        shard.index.erase(victim.key);
        shard.lru.pop_back();
        ++shard.evictions;
        ++evicted;
      }
    }
    shard.lru.emplace_front(key, std::move(value), charge);
    shard.index.emplace(key, shard.lru.begin());
    shard.bytes += charge;
    return evicted;
  }

  /// Merged accounting across shards. `entries`/`bytes` are a point-in-time
  /// view; `evictions` is monotone.
  Stats GetStats() const {
    Stats stats;
    for (const Shard& shard : shards_) {
      ReaderMutexLock lock(shard.mu);
      stats.entries += shard.index.size();
      stats.bytes += shard.bytes;
      stats.evictions += shard.evictions;
    }
    return stats;
  }

  uint64_t budget_bytes() const { return budget_bytes_; }
  size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    Entry(const Key& k, Value v, uint64_t c)
        : key(k), value(std::move(v)), charge(c) {}

    Key key;
    Value value;
    uint64_t charge = 0;
    /// Set by a Visit hit under the shared lock (so it is atomic: readers
    /// race to set it); read and cleared by eviction under the exclusive
    /// lock.
    std::atomic<bool> referenced{false};
  };

  struct Shard {
    mutable SharedMutex mu;
    /// Front = most recently promoted or inserted. std::list keeps
    /// iterators stable across splice, so the index maps keys straight to
    /// list nodes.
    std::list<Entry> lru GUARDED_BY(mu);
    std::unordered_map<Key, typename std::list<Entry>::iterator> index
        GUARDED_BY(mu);
    uint64_t bytes GUARDED_BY(mu) = 0;
    uint64_t evictions GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(const Key& key) {
    // std::hash of an integer key is commonly the identity; mix so shard
    // selection doesn't alias with any structure in the key encoding.
    uint64_t h = static_cast<uint64_t>(std::hash<Key>{}(key));
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return shards_[static_cast<size_t>(h & (shards_.size() - 1))];
  }

  uint64_t budget_bytes_ = 0;
  /// Each shard's share of a nonzero budget.
  uint64_t slice_bytes_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace kbqa

#endif  // KBQA_UTIL_LRU_CACHE_H_
