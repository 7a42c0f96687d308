#include "util/lru_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace kbqa {
namespace {

using Cache = ShardedLruCache<uint64_t, std::vector<uint32_t>>;

/// Deterministic payload for a key, so stress readers can verify that a
/// hit returns exactly the bytes that were inserted.
std::vector<uint32_t> PayloadFor(uint64_t key, size_t len) {
  std::vector<uint32_t> payload(len);
  for (size_t i = 0; i < len; ++i) {
    payload[i] = static_cast<uint32_t>(key * 31 + i);
  }
  return payload;
}

uint64_t ChargeOf(size_t len) {
  return sizeof(uint64_t) + len * sizeof(uint32_t);
}

/// The shard a key lands in, replicating the cache's hash mix.
uint64_t ShardOf(uint64_t key, size_t num_shards) {
  uint64_t h = static_cast<uint64_t>(std::hash<uint64_t>{}(key));
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h & (num_shards - 1);
}

/// The first `count` keys at or above `from` that land in `shard`.
std::vector<uint64_t> KeysInShard(size_t shard, size_t num_shards,
                                  size_t count, uint64_t from = 0) {
  std::vector<uint64_t> keys;
  for (uint64_t key = from; keys.size() < count; ++key) {
    if (ShardOf(key, num_shards) == shard) keys.push_back(key);
  }
  return keys;
}

/// Summed charges of the keys in [0, keyspace) still resident, each
/// payload's length giving its charge; `entries` counts them.
uint64_t ResidentCharges(Cache& cache, uint64_t keyspace, uint64_t* entries) {
  uint64_t bytes = 0;
  *entries = 0;
  for (uint64_t key = 0; key < keyspace; ++key) {
    cache.Visit(key, [&](const std::vector<uint32_t>& value) {
      bytes += ChargeOf(value.size());
      ++*entries;
      return false;  // count without marking
    });
  }
  return bytes;
}

TEST(ShardedLruCacheTest, GetMissThenHit) {
  Cache cache(/*budget_bytes=*/0);
  std::vector<uint32_t> out;
  EXPECT_FALSE(cache.Get(7, &out));
  cache.Insert(7, PayloadFor(7, 4), 4 * sizeof(uint32_t));
  ASSERT_TRUE(cache.Get(7, &out));
  EXPECT_EQ(out, PayloadFor(7, 4));
}

TEST(ShardedLruCacheTest, EvictionFollowsLruOrder) {
  // Single shard so the recency order is global. Budget fits exactly three
  // four-element entries.
  const uint64_t charge = ChargeOf(4);
  Cache cache(3 * charge, /*num_shards=*/1);
  cache.Insert(1, PayloadFor(1, 4), 4 * sizeof(uint32_t));
  cache.Insert(2, PayloadFor(2, 4), 4 * sizeof(uint32_t));
  cache.Insert(3, PayloadFor(3, 4), 4 * sizeof(uint32_t));

  // Touch 1: recency becomes 1 > 3 > 2, so inserting 4 must evict 2.
  std::vector<uint32_t> out;
  ASSERT_TRUE(cache.Get(1, &out));
  cache.Insert(4, PayloadFor(4, 4), 4 * sizeof(uint32_t));

  EXPECT_FALSE(cache.Get(2, &out));
  EXPECT_TRUE(cache.Get(1, &out));
  EXPECT_TRUE(cache.Get(3, &out));
  EXPECT_TRUE(cache.Get(4, &out));
  const Cache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.bytes, 3 * charge);
}

TEST(ShardedLruCacheTest, VisitMarksOnlyAcceptedEntriesForASecondChance) {
  const uint64_t charge = ChargeOf(4);
  Cache cache(3 * charge, /*num_shards=*/1);
  cache.Insert(1, PayloadFor(1, 4), 4 * sizeof(uint32_t));
  cache.Insert(2, PayloadFor(2, 4), 4 * sizeof(uint32_t));
  cache.Insert(3, PayloadFor(3, 4), 4 * sizeof(uint32_t));

  // An accepted visit sees the stored value and marks the entry; a
  // rejected one reports a miss and leaves the entry unmarked.
  std::vector<uint32_t> seen;
  EXPECT_TRUE(cache.Visit(1, [&seen](const std::vector<uint32_t>& value) {
    seen = value;
    return true;
  }));
  EXPECT_EQ(seen, PayloadFor(1, 4));
  EXPECT_FALSE(
      cache.Visit(2, [](const std::vector<uint32_t>&) { return false; }));
  EXPECT_FALSE(
      cache.Visit(9, [](const std::vector<uint32_t>&) { return true; }));

  // The tail 1 is marked, so it moves to the front and 2 is evicted: the
  // rejected visit did not save 2.
  cache.Insert(4, PayloadFor(4, 4), 4 * sizeof(uint32_t));
  std::vector<uint32_t> out;
  EXPECT_FALSE(cache.Get(2, &out));
  ASSERT_TRUE(cache.Get(1, &out));
  EXPECT_EQ(out, PayloadFor(1, 4));
  EXPECT_TRUE(cache.Get(3, &out));
  EXPECT_TRUE(cache.Get(4, &out));
  EXPECT_EQ(cache.GetStats().evictions, 1u);
  EXPECT_EQ(cache.GetStats().bytes, 3 * charge);
}

// Thread A's visitor parks inside Visit(k) until thread B's Visit(k) has
// returned. Under a shared shard lock B runs alongside A; under an
// exclusive one B waits for A, and A gives up after its bounded wait.
TEST(ShardedLruCacheTest, VisitsOfOneKeyDoNotWaitForEachOther) {
  Cache cache(/*budget_bytes=*/0, /*num_shards=*/1);
  cache.Insert(7, PayloadFor(7, 4), 4 * sizeof(uint32_t));
  std::atomic<bool> a_inside{false};
  std::atomic<bool> b_returned{false};
  bool a_saw_b = false;
  std::thread a([&] {
    cache.Visit(7, [&](const std::vector<uint32_t>&) {
      a_inside.store(true);
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (!b_returned.load() && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
      a_saw_b = b_returned.load();
      return true;
    });
  });
  while (!a_inside.load()) std::this_thread::yield();
  std::vector<uint32_t> seen;
  const bool b_hit = cache.Visit(7, [&](const std::vector<uint32_t>& value) {
    seen = value;
    return true;
  });
  b_returned.store(true);
  a.join();
  EXPECT_TRUE(b_hit);
  EXPECT_EQ(seen, PayloadFor(7, 4));
  EXPECT_TRUE(a_saw_b) << "a second Visit of the key waited for the first";
}

TEST(ShardedLruCacheTest, ByteAccountingNeverExceedsBudget) {
  const uint64_t budget = 4096;
  Cache cache(budget, /*num_shards=*/4);
  Rng rng(123);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t key = rng.Uniform(5000);
    const size_t len = 1 + rng.Uniform(32);
    cache.Insert(key, PayloadFor(key, len), len * sizeof(uint32_t));
    if (i % 512 == 0) {
      EXPECT_LE(cache.GetStats().bytes, budget);
    }
  }
  const Cache::Stats stats = cache.GetStats();
  EXPECT_LE(stats.bytes, budget);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.entries, 0u);
}

/// Payload length for a stream key: 8..71 words, so a keyspace's values
/// total about 200 bytes a key.
size_t StreamPayloadLen(uint64_t key) { return 8 + key % 64; }

struct StreamResult {
  double hit_rate = 0;
  uint64_t peak_bytes = 0;  // highest GetStats().bytes sampled
  Cache::Stats end;
};

/// Drives `ops` Get-or-Insert operations against a fresh cache with the
/// default shard count, sampling the books every 256 operations.
template <typename NextKey>
StreamResult DriveStream(uint64_t budget_bytes, size_t ops, NextKey&& next) {
  Cache cache(budget_bytes);
  StreamResult result;
  uint64_t hits = 0;
  std::vector<uint32_t> out;
  for (size_t i = 0; i < ops; ++i) {
    const uint64_t key = next();
    if (cache.Get(key, &out)) {
      ++hits;
    } else {
      const size_t len = StreamPayloadLen(key);
      cache.Insert(key, PayloadFor(key, len), len * sizeof(uint32_t));
    }
    if (i % 256 == 0) {
      result.peak_bytes = std::max(result.peak_bytes, cache.GetStats().bytes);
    }
  }
  result.end = cache.GetStats();
  result.peak_bytes = std::max(result.peak_bytes, result.end.bytes);
  result.hit_rate = static_cast<double>(hits) / static_cast<double>(ops);
  return result;
}

constexpr uint64_t kStreamKeyspace = 20000;       // values total ~4 MB
constexpr size_t kStreamOps = 3 * kStreamKeyspace;
constexpr uint64_t kStreamBudget = 1600 * 1024;   // ~40% of the keyspace

// A skewed stream keeps its hot head resident under a budget well below
// the keyspace, so it loses little hit rate against unbounded memory.
TEST(ShardedLruCacheTest, ZipfStreamUnderBudgetLosesLittleHitRate) {
  Rng bounded_rng(17);
  ZipfianGenerator zipf(kStreamKeyspace, 0.99);
  const StreamResult bounded = DriveStream(
      kStreamBudget, kStreamOps, [&] { return zipf.Sample(bounded_rng); });
  Rng unbounded_rng(17);
  const StreamResult unbounded = DriveStream(
      0, kStreamOps, [&] { return zipf.Sample(unbounded_rng); });

  EXPECT_GT(bounded.end.evictions, 0u);
  EXPECT_LE(bounded.peak_bytes, kStreamBudget);
  EXPECT_EQ(unbounded.end.evictions, 0u);
  EXPECT_GT(unbounded.peak_bytes, kStreamBudget);
  EXPECT_LT(unbounded.hit_rate - bounded.hit_rate, 0.10)
      << "bounded " << bounded.hit_rate << ", unbounded "
      << unbounded.hit_rate;
}

// The worst case, a uniform stream over a keyspace larger than the budget,
// evicts and never books more than the budget.
TEST(ShardedLruCacheTest, UniformStreamPastBudgetEvictsAndStaysUnderIt) {
  Rng rng(18);
  const StreamResult bounded = DriveStream(
      kStreamBudget, kStreamOps, [&] { return rng.Uniform(kStreamKeyspace); });
  EXPECT_GT(bounded.end.evictions, 0u);
  EXPECT_LE(bounded.peak_bytes, kStreamBudget);
  EXPECT_GT(bounded.end.entries, 0u);
}

TEST(ShardedLruCacheTest, OversizedEntryIsNotAdmitted) {
  Cache cache(ChargeOf(4) * 2, /*num_shards=*/1);
  cache.Insert(1, PayloadFor(1, 4), 4 * sizeof(uint32_t));
  // This entry alone exceeds the whole budget; admitting it would purge
  // the shard, so it must be skipped and leave the books untouched.
  cache.Insert(2, PayloadFor(2, 1000), 1000 * sizeof(uint32_t));
  std::vector<uint32_t> out;
  EXPECT_FALSE(cache.Get(2, &out));
  EXPECT_TRUE(cache.Get(1, &out));
  const Cache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.bytes, ChargeOf(4));
}

TEST(ShardedLruCacheTest, OversizedReplacementDropsTheOldValue) {
  Cache cache(ChargeOf(4) * 2, /*num_shards=*/1);
  cache.Insert(1, PayloadFor(1, 4), 4 * sizeof(uint32_t));
  // A same-key insert replaces; one too large to cache must not leave the
  // old value behind, nor its charge on the books.
  cache.Insert(1, PayloadFor(2, 1000), 1000 * sizeof(uint32_t));
  std::vector<uint32_t> out;
  EXPECT_FALSE(cache.Get(1, &out));
  const Cache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(ShardedLruCacheTest, UnboundedNeverEvicts) {
  Cache cache(/*budget_bytes=*/0);
  for (uint64_t key = 0; key < 1000; ++key) {
    cache.Insert(key, PayloadFor(key, 8), 8 * sizeof(uint32_t));
  }
  const Cache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 1000u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.bytes, 1000 * ChargeOf(8));
  EXPECT_EQ(cache.budget_bytes(), 0u);
}

TEST(ShardedLruCacheTest, DuplicateInsertReplacesValueAndKeepsCharge) {
  Cache cache(/*budget_bytes=*/0, /*num_shards=*/1);
  cache.Insert(5, PayloadFor(5, 8), 8 * sizeof(uint32_t));
  cache.Insert(5, PayloadFor(6, 8), 8 * sizeof(uint32_t));
  const Cache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, ChargeOf(8));
  // Same-key insert replaces: the later value wins (a mutable KB can
  // legitimately recompute a key to a different value).
  std::vector<uint32_t> out;
  ASSERT_TRUE(cache.Get(5, &out));
  EXPECT_EQ(out, PayloadFor(6, 8));
}

// Regression: a same-key replacement with a different-sized value must
// re-book exactly the size delta, in both the growing and the shrinking
// direction.
TEST(ShardedLruCacheTest, ReplacementRebooksSizeDeltaExactly) {
  const uint64_t budget = 4096;
  Cache cache(budget, /*num_shards=*/2);
  cache.Insert(9, PayloadFor(9, 4), 4 * sizeof(uint32_t));
  EXPECT_EQ(cache.GetStats().bytes, ChargeOf(4));

  cache.Insert(9, PayloadFor(9, 32), 32 * sizeof(uint32_t));  // grow
  EXPECT_EQ(cache.GetStats().entries, 1u);
  EXPECT_EQ(cache.GetStats().bytes, ChargeOf(32));

  cache.Insert(9, PayloadFor(9, 2), 2 * sizeof(uint32_t));  // shrink
  EXPECT_EQ(cache.GetStats().entries, 1u);
  EXPECT_EQ(cache.GetStats().bytes, ChargeOf(2));

  std::vector<uint32_t> out;
  ASSERT_TRUE(cache.Get(9, &out));
  EXPECT_EQ(out, PayloadFor(9, 2));
}

// The accounting-storm regression: after an arbitrary insert /
// different-size-replace / oversized-replace storm, the books must equal
// the summed charges of the entries still resident, and dropping every
// key (an oversized replacement leaves its key absent) must return them
// to exactly zero with every shard's whole slice usable again. Any leak
// in the replacement or eviction paths shows up here as a residue or a
// spuriously shrunken slice.
TEST(ShardedLruCacheTest, StormAccountingReturnsExactlyToZero) {
  const size_t kShards = 8;
  const uint64_t charge4 = ChargeOf(4);
  const uint64_t budget = 48 * charge4;  // small: six entries a shard
  const size_t oversized = 64;           // a charge past one slice
  Cache cache(budget, kShards);
  Rng rng(20250808);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t key = rng.Uniform(96);
    switch (rng.Uniform(3)) {
      case 0: {  // insert or same-key replace with a fresh size
        const size_t len = 1 + rng.Uniform(24);
        cache.Insert(key, PayloadFor(key, len), len * sizeof(uint32_t));
        break;
      }
      case 1:
        cache.Insert(key, PayloadFor(key, oversized),
                     oversized * sizeof(uint32_t));
        break;
      default: {
        std::vector<uint32_t> out;
        (void)cache.Get(key, &out);
        break;
      }
    }
    if (i % 1024 == 0) {
      EXPECT_LE(cache.GetStats().bytes, budget);
    }
  }
  uint64_t resident = 0;
  const uint64_t resident_bytes = ResidentCharges(cache, 96, &resident);
  EXPECT_EQ(cache.GetStats().entries, resident);
  EXPECT_EQ(cache.GetStats().bytes, resident_bytes);

  // Drain: drop the whole keyspace, then the books must be exactly zero.
  for (uint64_t key = 0; key < 96; ++key) {
    cache.Insert(key, PayloadFor(key, oversized),
                 oversized * sizeof(uint32_t));
  }
  EXPECT_EQ(cache.GetStats().entries, 0u);
  EXPECT_EQ(cache.GetStats().bytes, 0u);
  // Every slice is whole again: six four-word entries fit in each shard
  // with zero evictions.
  for (size_t shard = 0; shard < kShards; ++shard) {
    for (uint64_t key : KeysInShard(shard, kShards, 6, 1000)) {
      EXPECT_EQ(cache.Insert(key, PayloadFor(key, 4), 4 * sizeof(uint32_t)),
                0u);
    }
  }
  EXPECT_EQ(cache.GetStats().entries, 48u);
  EXPECT_EQ(cache.GetStats().bytes, budget);
}

// Concurrent flavor of the storm: 8 threads mixing lookups, inserts,
// different-size replacements and oversized replacements that drop their
// key. Afterwards the books must equal the summed charges of the resident
// entries, and a drain must return them to exactly zero (run under the
// ASan/TSan configurations this also gates the locking of the replace and
// drop paths).
TEST(ShardedLruCacheTest, ConcurrentStormThenDrainReturnsToZero) {
  const uint64_t budget = 1 << 14;
  const uint64_t keyspace = 512;
  const size_t oversized = 1024;  // a charge past one 2 KiB slice
  Cache cache(budget, /*num_shards=*/8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(777 + static_cast<uint64_t>(t));
      std::vector<uint32_t> out;
      for (int i = 0; i < 8000; ++i) {
        const uint64_t key = rng.Uniform(keyspace);
        const uint64_t op = rng.Uniform(16);
        if (op < 4) {
          cache.Insert(key, PayloadFor(key, oversized),
                       oversized * sizeof(uint32_t));
        } else if (op < 7) {
          (void)cache.Get(key, &out);
        } else if (op < 10) {
          (void)cache.Visit(key, [](const std::vector<uint32_t>&) {
            return true;
          });
        } else {
          const size_t len = 1 + rng.Uniform(16);
          cache.Insert(key, PayloadFor(key, len), len * sizeof(uint32_t));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  uint64_t resident = 0;
  const uint64_t resident_bytes = ResidentCharges(cache, keyspace, &resident);
  EXPECT_EQ(cache.GetStats().entries, resident);
  EXPECT_EQ(cache.GetStats().bytes, resident_bytes);
  EXPECT_LE(resident_bytes, budget);

  for (uint64_t key = 0; key < keyspace; ++key) {
    cache.Insert(key, PayloadFor(key, oversized),
                 oversized * sizeof(uint32_t));
  }
  EXPECT_EQ(cache.GetStats().entries, 0u);
  EXPECT_EQ(cache.GetStats().bytes, 0u);
}

TEST(ShardedLruCacheTest, ShardCountRoundsUpToPowerOfTwo) {
  Cache cache(0, /*num_shards=*/5);
  EXPECT_EQ(cache.num_shards(), 8u);
  Cache one(0, /*num_shards=*/0);
  EXPECT_EQ(one.num_shards(), 1u);
}

// Each shard owns budget/N bytes: keys that all hash to one shard share
// that shard's slice and never use a sibling's.
TEST(ShardedLruCacheTest, SkewedKeysStayWithinOneShardSlice) {
  const size_t kShards = 16;
  const uint64_t charge = ChargeOf(4);
  const uint64_t budget = 64 * charge;  // room for 64 entries, 4 a shard
  Cache cache(budget, kShards);
  const std::vector<uint64_t> skewed = KeysInShard(0, kShards, 64);

  uint64_t evicted = 0;
  for (uint64_t key : skewed) {
    evicted += cache.Insert(key, PayloadFor(key, 4), 4 * sizeof(uint32_t));
  }

  const Cache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.evictions, 60u);
  EXPECT_EQ(evicted, 60u);
  EXPECT_EQ(stats.bytes, 4 * charge);
  // The four most recent inserts are the ones resident.
  std::vector<uint32_t> out;
  for (size_t i = 0; i < skewed.size(); ++i) {
    EXPECT_EQ(cache.Get(skewed[i], &out), i >= 60) << skewed[i];
  }
}

// An insert that needs room evicts from its own shard only: a full shard
// next door is left as it is.
TEST(ShardedLruCacheTest, InsertEvictsOnlyFromItsOwnShard) {
  const size_t kShards = 4;
  const uint64_t charge = ChargeOf(4);
  Cache cache(kShards * 2 * charge, kShards);  // two entries a shard
  const std::vector<uint64_t> full = KeysInShard(0, kShards, 2);
  for (uint64_t key : full) {
    cache.Insert(key, PayloadFor(key, 4), 4 * sizeof(uint32_t));
  }
  ASSERT_EQ(cache.GetStats().bytes, 2 * charge);

  const uint64_t other = KeysInShard(1, kShards, 1).front();
  EXPECT_EQ(cache.Insert(other, PayloadFor(other, 4), 4 * sizeof(uint32_t)),
            0u);
  std::vector<uint32_t> out;
  EXPECT_TRUE(cache.Get(other, &out));
  for (uint64_t key : full) {
    ASSERT_TRUE(cache.Get(key, &out)) << key;
    EXPECT_EQ(out, PayloadFor(key, 4));
  }
  const Cache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.bytes, 3 * charge);
}

// Multi-threaded stress: concurrent Get/Visit/Insert over a keyspace
// several times the budget, so shared-lock visits race inserts and
// second-chance evictions. Run under the ASAN=ON and TSAN=ON
// configurations this doubles as a data-race / lifetime check on the
// shard books and reference marks; value integrity is asserted on every
// hit.
TEST(ShardedLruCacheTest, ConcurrentMixedLoadKeepsBooksAndValuesIntact) {
  const uint64_t budget = 64 * 1024;
  const uint64_t keyspace = 4096;
  Cache cache(budget, /*num_shards=*/8);
  std::atomic<uint64_t> corrupt_hits{0};
  std::vector<std::thread> threads;
  const int num_threads = 8;
  threads.reserve(num_threads);
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      std::vector<uint32_t> out;
      for (int i = 0; i < 20000; ++i) {
        const uint64_t key = rng.Uniform(keyspace);
        const size_t len = 1 + key % 16;
        // Half the threads read through Visit, half through Get.
        const bool hit =
            t % 2 == 0
                ? cache.Visit(key,
                              [&out](const std::vector<uint32_t>& value) {
                                out = value;
                                return true;
                              })
                : cache.Get(key, &out);
        if (hit) {
          if (out != PayloadFor(key, len)) corrupt_hits.fetch_add(1);
        } else {
          cache.Insert(key, PayloadFor(key, len), len * sizeof(uint32_t));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(corrupt_hits.load(), 0u);
  const Cache::Stats stats = cache.GetStats();
  EXPECT_LE(stats.bytes, budget);
  EXPECT_GT(stats.entries, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

}  // namespace
}  // namespace kbqa
