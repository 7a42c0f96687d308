#ifndef KBQA_OBS_METRICS_H_
#define KBQA_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace kbqa::obs {

namespace internal {

/// Number of per-metric shards. Threads map onto shards by a stable
/// thread-local slot, so with a typical pool size every thread owns its
/// own cache line and the hot-path increment never contends.
inline constexpr size_t kShards = 16;

inline std::atomic<uint32_t> g_next_shard_slot{0};
inline constexpr uint32_t kUnassignedSlot = UINT32_MAX;
// Constant-initialized so the hot-path access is a plain thread-local
// read with no init-guard (a dynamic initializer would add a guarded TLS
// wrapper call to every metric update).
inline thread_local uint32_t tl_shard_slot = kUnassignedSlot;

uint32_t AssignThreadShard();

/// Stable per-thread shard slot in [0, kShards). Inline so the steady
/// state is a thread-local read and branch, not a cross-TU call.
inline uint32_t ThreadShard() {
  const uint32_t slot = tl_shard_slot;
  if (slot != kUnassignedSlot) [[likely]] {
    return slot;
  }
  return AssignThreadShard();
}

struct alignas(64) PaddedAtomic {
  std::atomic<uint64_t> v{0};
};

inline std::atomic<bool> g_enabled{true};

}  // namespace internal

/// The layer's one switch, process-wide. While it is off,
/// counters/gauges/histograms ignore updates, span timers read no clock
/// and no wide event is sampled; guard any stat computation of your own
/// with `if (obs::Enabled()) { ... }`.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}
inline void SetEnabled(bool on) {
  internal::g_enabled.store(on, std::memory_order_relaxed);
}

/// Steady-clock nanoseconds: the one clock every latency in this layer is
/// read from (span timers, the request stage clock, the server's queue
/// and service accounting), so sums and comparisons across layers are
/// exact.
inline uint64_t NowSteadyNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The sharded-cell primitive shared by registered counters and
/// per-instance statistics (e.g. the online value-cache stats): Add is a
/// single uncontended relaxed fetch_add on the calling thread's cell;
/// Value merges cells on read. The merged value depends only on the set
/// of updates, never on which thread ran where.
class ShardedCounter {
 public:
  void Add(uint64_t n) {
    shards_[internal::ThreadShard()].v.fetch_add(n,
                                                 std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }
  void Reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<internal::PaddedAtomic, internal::kShards> shards_;
};

/// Named monotone counter. Obtain via MetricsRegistry::GetCounter (the
/// pointer is stable for the registry's lifetime) or the KBQA_COUNTER_ADD
/// macro, which caches the lookup in a function-local static.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    if (!Enabled()) return;
    cells_.Add(n);
  }
  uint64_t Value() const { return cells_.Value(); }
  void Reset() { cells_.Reset(); }

 private:
  ShardedCounter cells_;
};

/// Named last-write-wins gauge (double-valued; lock-free on x86-64).
class Gauge {
 public:
  void Set(double v) {
    if (!Enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Log-bucketed histogram over uint64 values (latency in ns, sizes, …).
/// Bucket 0 holds the value 0; bucket b >= 1 holds [2^(b-1), 2^b - 1];
/// the last bucket absorbs everything above 2^62. Buckets, count, and sum
/// are all sharded like Counter, so Record is a handful of uncontended
/// relaxed increments and the merged snapshot is independent of thread
/// placement.
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  static int BucketOf(uint64_t value) {
    if (value == 0) return 0;
    const int w = std::bit_width(value);
    return w > static_cast<int>(kBuckets) - 1 ? static_cast<int>(kBuckets) - 1
                                              : w;
  }
  /// Inclusive upper bound of bucket b (UINT64_MAX for the last).
  static uint64_t UpperBound(int b) {
    if (b <= 0) return 0;
    if (b >= static_cast<int>(kBuckets) - 1) return UINT64_MAX;
    return (uint64_t{1} << b) - 1;
  }

  void Record(uint64_t value) {
    if (!Enabled()) return;
    Shard& s = shards_[internal::ThreadShard()];
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
    s.buckets[static_cast<size_t>(BucketOf(value))].fetch_add(
        1, std::memory_order_relaxed);
  }

  uint64_t Count() const;
  uint64_t Sum() const;
  void Reset();

 private:
  friend class MetricsRegistry;
  struct alignas(64) Shard {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::array<std::atomic<uint64_t>, kBuckets> buckets{};
  };
  std::array<Shard, internal::kShards> shards_;
};

/// Point-in-time merged view of a registry, sorted by metric name (so two
/// snapshots of identical update sets compare equal regardless of thread
/// count or interleaving). Serializes to JSON.
struct MetricsSnapshot {
  struct CounterEntry {
    std::string name;
    uint64_t value = 0;
    bool operator==(const CounterEntry&) const = default;
  };
  struct GaugeEntry {
    std::string name;
    double value = 0;
    bool operator==(const GaugeEntry&) const = default;
  };
  struct BucketEntry {
    int bucket = 0;
    uint64_t count = 0;
    bool operator==(const BucketEntry&) const = default;
  };
  struct HistogramEntry {
    std::string name;
    uint64_t count = 0;
    uint64_t sum = 0;
    /// Non-empty buckets only, ascending bucket index.
    std::vector<BucketEntry> buckets;

    double Mean() const {
      return count == 0 ? 0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
    /// Inclusive upper bound of the bucket where the cumulative count
    /// first reaches q * count (the log-bucket quantile approximation).
    uint64_t ApproxQuantile(double q) const;
    /// Quantile with linear interpolation inside the landing bucket:
    /// assumes the bucket's mass is spread uniformly over [lower, upper]
    /// and returns the value at the target rank's position within it.
    /// Strictly tighter than ApproxQuantile (which always reports the
    /// bucket ceiling — a 2x overestimate in the worst case for the
    /// power-of-two buckets); exact for single-bucket point masses. This
    /// is what makes `online.serve.latency` percentiles queryable from
    /// the registry without a bench-side reservoir.
    uint64_t ValueAtQuantile(double q) const;

    bool operator==(const HistogramEntry&) const = default;
  };

  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<HistogramEntry> histograms;

  const CounterEntry* counter(std::string_view name) const;
  const GaugeEntry* gauge(std::string_view name) const;
  const HistogramEntry* histogram(std::string_view name) const;

  std::string ToJson() const;

  bool operator==(const MetricsSnapshot&) const = default;
};

/// Named metric registry. `Global()` is the process-wide instance every
/// instrumentation macro records into; tests construct private instances.
/// Get* interns the name on first use and returns a pointer that stays
/// valid for the registry's lifetime — instrumentation sites cache it in
/// a static and pay only the increment afterwards.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  MetricsSnapshot Snapshot() const;
  /// Zeroes every registered metric (names stay registered).
  void Reset();

 private:
  /// Guards the name → metric maps only; the metric objects themselves are
  /// internally synchronized (sharded atomics) and the returned pointers
  /// stay valid without the lock.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      GUARDED_BY(mu_);
};

}  // namespace kbqa::obs

#endif  // KBQA_OBS_METRICS_H_
