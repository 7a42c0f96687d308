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
/// The budget is enforced *globally*, not per shard: an atomic byte total
/// is reserved before an entry is admitted, and when the reservation does
/// not fit the inserter evicts tail entries starting from its own shard and
/// borrowing round-robin from siblings. A key-skewed workload can therefore
/// fill the entire budget from one hot shard instead of thrashing that
/// shard's 1/N slice while the others sit empty. A budget of 0 means
/// unbounded: nothing is ever evicted and the cache degenerates to a
/// sharded memo table.
///
/// Recency: `Get` takes its shard lock exclusively and promotes the entry
/// to the front of the list. `Visit` takes it shared, so hits on one hot
/// shard run side by side; it cannot splice the list there, so it marks
/// the entry instead (a reference bit, written only when clear, so a hot
/// entry's line is not re-dirtied on every hit). Eviction, under the
/// exclusive lock, gives a marked tail one second chance: it clears the
/// mark, moves the entry to the front and looks at the next tail. Order is
/// therefore exact LRU for a shard read only through `Get`, CLOCK-like for
/// one read through `Visit`, and approximate across shards.
///
/// Accounting invariant: shard byte counters are only incremented after a
/// successful global reservation and decremented before the global counter
/// is released, so `GetStats().bytes <= budget_bytes()` holds at every
/// instant, including mid-insert under concurrency.
///
/// Lookups are copy-out: `Get` copies the stored value into the caller's
/// buffer under the shard lock, and `Visit` lets the caller check the
/// entry and copy out what it needs there. Returning references would pin
/// entries against eviction (or dangle after one); copying keeps the
/// locking trivial. Values are expected to be small (e.g. the
/// per-(entity, path) value vectors and the answers of the online engine).
///
/// Thread safety: all methods are safe to call concurrently. Eviction
/// never holds two shard locks at once, so borrowing cannot deadlock.
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

  /// Inserts `value` under `key`, charging `sizeof(Key) + payload_bytes`
  /// against the global budget and evicting tail entries — from this key's
  /// shard first, then borrowing from sibling shards — as needed; returns
  /// how many entries were evicted. If the key is already
  /// present its value is REPLACED and the books are re-charged by the
  /// size delta (the new reservation is kept, the old entry's charge is
  /// released), so a same-key insert with a different-sized value leaves
  /// the accounting exact. An entry whose charge alone exceeds the whole
  /// budget is not cached at all.
  uint64_t Insert(const Key& key, Value value, uint64_t payload_bytes) {
    const uint64_t charge = sizeof(Key) + payload_bytes;
    const size_t home = ShardIndexFor(key);
    uint64_t evicted = 0;
    if (budget_bytes_ != 0) {
      if (charge > budget_bytes_) return 0;
      // Reserve the charge against the global total before touching the
      // shard. Every pass either wins the CAS, evicts a victim, or learns
      // the budget is fully held by in-flight reservations and gives up
      // (a cache insert is best-effort). A replacement therefore briefly
      // holds old + new charge; the old charge is released under the
      // shard lock below. The eviction loop may evict this very key —
      // that is fine, the insert then lands as a fresh entry.
      while (true) {
        uint64_t current = total_bytes_.load(std::memory_order_relaxed);
        if (current + charge <= budget_bytes_) {
          if (total_bytes_.compare_exchange_weak(
                  current, current + charge, std::memory_order_relaxed)) {
            break;
          }
          continue;  // lost the race; re-read
        }
        if (!EvictOne(home)) return evicted;
        ++evicted;
      }
    }
    Shard& shard = shards_[home];
    WriterMutexLock lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Replace in place: promote, swap the value, re-book the charge
      // delta. Shard bytes move before the global release so the
      // "reserved >= committed" invariant holds throughout.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      Entry& entry = *it->second;
      const uint64_t old_charge = entry.charge;
      entry.value = std::move(value);
      entry.charge = charge;
      shard.bytes += charge;
      shard.bytes -= old_charge;
      if (budget_bytes_ != 0) {
        total_bytes_.fetch_sub(old_charge, std::memory_order_relaxed);
      }
      return evicted;
    }
    shard.lru.emplace_front(key, std::move(value), charge);
    shard.index.emplace(key, shard.lru.begin());
    shard.bytes += charge;
    return evicted;
  }

  /// Removes `key` if present, releasing its charge from the shard books
  /// and the global reservation. Returns true when an entry was removed.
  bool Erase(const Key& key) {
    Shard& shard = ShardFor(key);
    WriterMutexLock lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) return false;
    const uint64_t charge = it->second->charge;
    shard.bytes -= charge;
    shard.lru.erase(it->second);
    shard.index.erase(it);
    if (budget_bytes_ != 0) {
      total_bytes_.fetch_sub(charge, std::memory_order_relaxed);
    }
    return true;
  }

  /// Drops every entry, returning the books (shard and global) to zero.
  /// Entries are released shard by shard — a concurrent insert may land in
  /// an already-cleared shard and survive; Clear makes no atomicity claim
  /// across shards. Cleared entries do not count as evictions.
  void Clear() {
    for (Shard& shard : shards_) {
      WriterMutexLock lock(shard.mu);
      const uint64_t released = shard.bytes;
      shard.lru.clear();
      shard.index.clear();
      shard.bytes = 0;
      if (budget_bytes_ != 0 && released != 0) {
        total_bytes_.fetch_sub(released, std::memory_order_relaxed);
      }
    }
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

  /// Bytes currently reserved against the budget: committed entries plus
  /// in-flight insert reservations. Quiescent, this equals GetStats().bytes
  /// exactly — the accounting-regression tests assert both return to zero
  /// after insert/replace/erase storms. Always 0 when unbounded.
  uint64_t reserved_bytes() const {
    return total_bytes_.load(std::memory_order_relaxed);
  }

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

  size_t ShardIndexFor(const Key& key) const {
    // std::hash of an integer key is commonly the identity; mix so shard
    // selection doesn't alias with any structure in the key encoding.
    uint64_t h = static_cast<uint64_t>(std::hash<Key>{}(key));
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<size_t>(h & (shards_.size() - 1));
  }

  Shard& ShardFor(const Key& key) { return shards_[ShardIndexFor(key)]; }

  /// Evicts one tail entry, preferring `home` and then borrowing
  /// round-robin from sibling shards, taking one shard lock at a time.
  /// Returns false when every shard is empty (nothing left to evict).
  bool EvictOne(size_t home) {
    const size_t n = shards_.size();
    for (size_t i = 0; i < n; ++i) {
      Shard& shard = shards_[(home + i) & (n - 1)];
      WriterMutexLock lock(shard.mu);
      if (shard.lru.empty()) continue;
      // Second chance: a marked tail moves to the front unmarked. Every
      // entry passed is left unmarked, so this ends within one pass.
      while (shard.lru.back().referenced.load(std::memory_order_relaxed)) {
        shard.lru.back().referenced.store(false, std::memory_order_relaxed);
        shard.lru.splice(shard.lru.begin(), shard.lru,
                         std::prev(shard.lru.end()));
      }
      Entry& victim = shard.lru.back();
      shard.bytes -= victim.charge;
      const uint64_t charge = victim.charge;
      shard.index.erase(victim.key);
      shard.lru.pop_back();
      ++shard.evictions;
      total_bytes_.fetch_sub(charge, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  uint64_t budget_bytes_ = 0;
  /// Bytes reserved against the budget: committed shard bytes plus any
  /// in-flight insert reservations. Always >= GetStats().bytes.
  std::atomic<uint64_t> total_bytes_{0};
  std::vector<Shard> shards_;
};

}  // namespace kbqa

#endif  // KBQA_UTIL_LRU_CACHE_H_
