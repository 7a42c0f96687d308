#include "util/lru_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
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
// re-book exactly the size delta, in the shard books and in the global
// reservation, in both the growing and the shrinking direction.
TEST(ShardedLruCacheTest, ReplacementRebooksSizeDeltaExactly) {
  const uint64_t budget = 4096;
  Cache cache(budget, /*num_shards=*/2);
  cache.Insert(9, PayloadFor(9, 4), 4 * sizeof(uint32_t));
  EXPECT_EQ(cache.GetStats().bytes, ChargeOf(4));
  EXPECT_EQ(cache.reserved_bytes(), ChargeOf(4));

  cache.Insert(9, PayloadFor(9, 32), 32 * sizeof(uint32_t));  // grow
  EXPECT_EQ(cache.GetStats().entries, 1u);
  EXPECT_EQ(cache.GetStats().bytes, ChargeOf(32));
  EXPECT_EQ(cache.reserved_bytes(), ChargeOf(32));

  cache.Insert(9, PayloadFor(9, 2), 2 * sizeof(uint32_t));  // shrink
  EXPECT_EQ(cache.GetStats().entries, 1u);
  EXPECT_EQ(cache.GetStats().bytes, ChargeOf(2));
  EXPECT_EQ(cache.reserved_bytes(), ChargeOf(2));

  std::vector<uint32_t> out;
  ASSERT_TRUE(cache.Get(9, &out));
  EXPECT_EQ(out, PayloadFor(9, 2));
}

TEST(ShardedLruCacheTest, EraseReleasesChargeAndClearEmptiesEveryShard) {
  const uint64_t budget = 1 << 16;
  Cache cache(budget, /*num_shards=*/4);
  for (uint64_t key = 0; key < 64; ++key) {
    cache.Insert(key, PayloadFor(key, 4), 4 * sizeof(uint32_t));
  }
  ASSERT_EQ(cache.GetStats().entries, 64u);

  EXPECT_TRUE(cache.Erase(7));
  EXPECT_FALSE(cache.Erase(7));    // already gone
  EXPECT_FALSE(cache.Erase(999));  // never present
  std::vector<uint32_t> out;
  EXPECT_FALSE(cache.Get(7, &out));
  EXPECT_EQ(cache.GetStats().entries, 63u);
  EXPECT_EQ(cache.GetStats().bytes, 63 * ChargeOf(4));
  EXPECT_EQ(cache.reserved_bytes(), 63 * ChargeOf(4));

  cache.Clear();
  const Cache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(cache.reserved_bytes(), 0u);
  EXPECT_EQ(stats.evictions, 0u);  // clears are not evictions
  for (uint64_t key = 0; key < 64; ++key) {
    EXPECT_FALSE(cache.Get(key, &out)) << key;
  }
}

// The accounting-storm regression: across borrowing shards, after an
// arbitrary insert / different-size-replace / erase storm, erasing every
// surviving key must return BOTH books — per-shard committed bytes and the
// global atomic reservation — to exactly zero, and the full budget must be
// usable again. Any leak in the replacement or removal paths shows up here
// as a nonzero residue or a spuriously shrunken budget.
TEST(ShardedLruCacheTest, StormAccountingReturnsExactlyToZero) {
  const uint64_t charge4 = ChargeOf(4);
  const uint64_t budget = 48 * charge4;  // small: forces cross-shard borrow
  Cache cache(budget, /*num_shards=*/8);
  Rng rng(20250808);
  std::vector<uint64_t> live;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t key = rng.Uniform(96);
    switch (rng.Uniform(3)) {
      case 0: {  // insert or same-key replace with a fresh size
        const size_t len = 1 + rng.Uniform(24);
        cache.Insert(key, PayloadFor(key, len), len * sizeof(uint32_t));
        break;
      }
      case 1:
        (void)cache.Erase(key);
        break;
      default: {
        std::vector<uint32_t> out;
        (void)cache.Get(key, &out);
        break;
      }
    }
    if (i % 1024 == 0) {
      EXPECT_LE(cache.GetStats().bytes, budget);
      EXPECT_LE(cache.reserved_bytes(), budget);
    }
  }
  // Drain: erase the whole keyspace, then the books must be exactly zero.
  for (uint64_t key = 0; key < 96; ++key) (void)cache.Erase(key);
  EXPECT_EQ(cache.GetStats().entries, 0u);
  EXPECT_EQ(cache.GetStats().bytes, 0u);
  EXPECT_EQ(cache.reserved_bytes(), 0u);
  // The full budget is available again: exactly 48 four-word entries fit
  // with zero evictions.
  for (uint64_t key = 1000; key < 1048; ++key) {
    EXPECT_EQ(cache.Insert(key, PayloadFor(key, 4), 4 * sizeof(uint32_t)),
              0u);
  }
  EXPECT_EQ(cache.GetStats().entries, 48u);
  EXPECT_EQ(cache.GetStats().bytes, budget);
  EXPECT_EQ(cache.reserved_bytes(), budget);
}

// Concurrent flavor of the storm: 8 threads mixing inserts, replacements,
// erases, and clears, then a single-threaded drain. The final books must
// still be exactly zero (run under ASan/TSan configurations this also
// gates the locking of the new Erase/Clear paths).
TEST(ShardedLruCacheTest, ConcurrentStormThenDrainReturnsToZero) {
  const uint64_t budget = 1 << 14;
  Cache cache(budget, /*num_shards=*/8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(777 + static_cast<uint64_t>(t));
      std::vector<uint32_t> out;
      for (int i = 0; i < 8000; ++i) {
        const uint64_t key = rng.Uniform(512);
        const uint64_t op = rng.Uniform(16);
        if (op == 0) {
          cache.Clear();
        } else if (op < 5) {
          (void)cache.Erase(key);
        } else if (op < 10) {
          (void)cache.Get(key, &out);
        } else {
          const size_t len = 1 + rng.Uniform(16);
          cache.Insert(key, PayloadFor(key, len), len * sizeof(uint32_t));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (uint64_t key = 0; key < 512; ++key) (void)cache.Erase(key);
  EXPECT_EQ(cache.GetStats().entries, 0u);
  EXPECT_EQ(cache.GetStats().bytes, 0u);
  EXPECT_EQ(cache.reserved_bytes(), 0u);
}

TEST(ShardedLruCacheTest, ShardCountRoundsUpToPowerOfTwo) {
  Cache cache(0, /*num_shards=*/5);
  EXPECT_EQ(cache.num_shards(), 8u);
  Cache one(0, /*num_shards=*/0);
  EXPECT_EQ(one.num_shards(), 1u);
}

// Regression for the per-shard budget split: when every key hashes to the
// same shard, the cache must still be able to fill the WHOLE budget from
// that one shard (global accounting / shard borrowing) instead of
// thrashing its 1/N slice while sibling shards sit empty.
TEST(ShardedLruCacheTest, SkewedKeysUseWholeBudgetNotOneShardSlice) {
  const size_t kShards = 16;
  const uint64_t charge = ChargeOf(4);
  const uint64_t budget = 64 * charge;  // room for 64 entries globally
  Cache cache(budget, kShards);

  // Replicate the cache's shard mix to mine keys that all land in shard 0.
  auto shard_of = [&](uint64_t key) {
    uint64_t h = static_cast<uint64_t>(std::hash<uint64_t>{}(key));
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h & (kShards - 1);
  };
  std::vector<uint64_t> skewed;
  for (uint64_t key = 0; skewed.size() < 64; ++key) {
    if (shard_of(key) == 0) skewed.push_back(key);
  }

  for (uint64_t key : skewed) {
    cache.Insert(key, PayloadFor(key, 4), 4 * sizeof(uint32_t));
  }

  // With the old budget/num_shards split only 4 of these 64 entries could
  // be resident; with global accounting all 64 fit and none were evicted.
  const Cache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 64u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.bytes, budget);
  std::vector<uint32_t> out;
  for (uint64_t key : skewed) {
    EXPECT_TRUE(cache.Get(key, &out)) << key;
  }

  // One more skewed insert must evict exactly the LRU entry, keeping the
  // total pinned at the budget.
  for (uint64_t key = skewed.back() + 1;; ++key) {
    if (shard_of(key) != 0) continue;
    EXPECT_EQ(cache.Insert(key, PayloadFor(key, 4), 4 * sizeof(uint32_t)),
              1u);
    break;
  }
  EXPECT_EQ(cache.GetStats().bytes, budget);
  EXPECT_FALSE(cache.Get(skewed.front(), &out));  // LRU victim
}

// Borrowing: a hot shard that needs room may evict from a cold sibling
// when its own list is empty, instead of failing the insert.
TEST(ShardedLruCacheTest, BorrowsFromSiblingShardWhenOwnShardEmpty) {
  const size_t kShards = 4;
  const uint64_t charge = ChargeOf(4);
  Cache cache(2 * charge, kShards);
  auto shard_of = [&](uint64_t key) {
    uint64_t h = static_cast<uint64_t>(std::hash<uint64_t>{}(key));
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h & (kShards - 1);
  };
  // Fill the budget entirely from one shard...
  uint64_t shard_a = 0;
  while (shard_of(shard_a) != 0) ++shard_a;
  uint64_t shard_a2 = shard_a + 1;
  while (shard_of(shard_a2) != 0) ++shard_a2;
  cache.Insert(shard_a, PayloadFor(shard_a, 4), 4 * sizeof(uint32_t));
  cache.Insert(shard_a2, PayloadFor(shard_a2, 4), 4 * sizeof(uint32_t));
  ASSERT_EQ(cache.GetStats().bytes, 2 * charge);

  // ...then insert into a different, empty shard: it must borrow (evict
  // from shard 0) rather than give up or blow the budget.
  uint64_t other = 0;
  while (shard_of(other) != 1) ++other;
  EXPECT_EQ(cache.Insert(other, PayloadFor(other, 4), 4 * sizeof(uint32_t)),
            1u);
  std::vector<uint32_t> out;
  EXPECT_TRUE(cache.Get(other, &out));
  EXPECT_EQ(cache.GetStats().bytes, 2 * charge);
  EXPECT_EQ(cache.GetStats().entries, 2u);
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
