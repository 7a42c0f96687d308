#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "obs/obs.h"

namespace kbqa {

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(num_threads, 1)) {}

void ThreadPool::RunShards(size_t num_shards,
                           const std::function<void(size_t)>& fn) {
  if (num_shards == 0) return;
  KBQA_COUNTER_ADD("thread_pool.jobs", 1);
  // Thread start happens-before the helper's first claim and its join
  // happens-before the return, so the cursor needs no ordering of its own.
  std::atomic<size_t> next_shard{0};
  auto drain = [&] {
    for (;;) {
      const size_t shard = next_shard.fetch_add(1, std::memory_order_relaxed);
      if (shard >= num_shards) return;
      KBQA_TRACE_SPAN("thread_pool.task");
      fn(shard);
    }
  };
  const size_t num_helpers =
      std::min(static_cast<size_t>(num_threads_), num_shards) - 1;
  std::vector<std::thread> helpers;
  helpers.reserve(num_helpers);
  for (size_t i = 0; i < num_helpers; ++i) helpers.emplace_back(drain);
  drain();  // The caller is a worker too.
  for (std::thread& helper : helpers) helper.join();
  KBQA_COUNTER_ADD("thread_pool.tasks", num_shards);
}

}  // namespace kbqa
