#ifndef KBQA_UTIL_THREAD_POOL_H_
#define KBQA_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <functional>

namespace kbqa {

/// Fork-join runner for the shared-memory parallelism layer.
///
/// Work is expressed as *jobs* of statically sharded tasks, run through one
/// synchronous call: RunShards starts its helper threads, the caller works
/// alongside them, and the call joins them before it returns. The pool
/// holds only its thread count, so no thread outlives a call and nothing is
/// shared between calls.
///
/// Determinism contract: work is always a *fixed* number of statically
/// sharded tasks (independent of the thread count), each shard writes only
/// shard-local state, and shard results are merged in shard order by the
/// caller (see ParallelFor below). Which thread runs which
/// shard is therefore unobservable — results are bit-identical with 1, 2,
/// or N threads.
///
/// Shard callables must not throw; the pool has no recovery path and
/// terminates on an escaped exception (same policy as std::thread).
class ThreadPool {
 public:
  /// Runs every job on up to `num_threads` threads, the caller included,
  /// so one thread means "run inline". Values < 1 are clamped to 1.
  explicit ThreadPool(int num_threads);

  int num_threads() const { return num_threads_; }

  /// Runs fn(shard) for every shard in [0, num_shards) on the calling
  /// thread plus min(num_threads, num_shards) - 1 helper threads started
  /// for this call; the threads claim shards from one shared cursor.
  /// Returns once every shard has run and every helper has been joined.
  /// Safe to call repeatedly and from several threads at once (each call
  /// runs its own job); not reentrant from inside a shard.
  void RunShards(size_t num_shards, const std::function<void(size_t)>& fn);

 private:
  int num_threads_;
};

/// Half-open index range of one static shard.
struct ShardRange {
  size_t begin = 0;
  size_t end = 0;
};

/// The range of shard `shard` (of `num_shards`) over `n` items: contiguous
/// blocks, the first `n % num_shards` blocks one item longer. Purely
/// arithmetic — the same (n, num_shards) always yields the same split.
inline ShardRange ShardOf(size_t n, size_t shard, size_t num_shards) {
  const size_t base = n / num_shards;
  const size_t extra = n % num_shards;
  ShardRange r;
  r.begin = shard * base + (shard < extra ? shard : extra);
  r.end = r.begin + base + (shard < extra ? 1 : 0);
  return r;
}

/// Runs fn(shard, begin, end) for every shard of a fixed static split of
/// [0, n). `fn` must only touch shard-local state.
template <typename Fn>
void ParallelFor(ThreadPool& pool, size_t n, size_t num_shards, Fn&& fn) {
  if (n == 0) return;
  if (num_shards > n) num_shards = n;
  pool.RunShards(num_shards, [&](size_t shard) {
    ShardRange r = ShardOf(n, shard, num_shards);
    fn(shard, r.begin, r.end);
  });
}

}  // namespace kbqa

#endif  // KBQA_UTIL_THREAD_POOL_H_
