#include "obs/metrics.h"

#include <cinttypes>
#include <cstdio>

namespace kbqa::obs {

namespace internal {

uint32_t AssignThreadShard() {
  tl_shard_slot = g_next_shard_slot.fetch_add(1, std::memory_order_relaxed) %
                  static_cast<uint32_t>(kShards);
  return tl_shard_slot;
}

}  // namespace internal

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Histogram::Sum() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) total += s.sum.load(std::memory_order_relaxed);
  return total;
}

void Histogram::Reset() {
  for (Shard& s : shards_) {
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
  }
}

uint64_t MetricsSnapshot::HistogramEntry::ApproxQuantile(double q) const {
  if (count == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  const double target = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (const BucketEntry& b : buckets) {
    cumulative += b.count;
    if (static_cast<double>(cumulative) >= target) {
      return Histogram::UpperBound(b.bucket);
    }
  }
  return buckets.empty() ? 0 : Histogram::UpperBound(buckets.back().bucket);
}

uint64_t MetricsSnapshot::HistogramEntry::ValueAtQuantile(double q) const {
  if (count == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  const double target = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (const BucketEntry& b : buckets) {
    const uint64_t before = cumulative;
    cumulative += b.count;
    if (static_cast<double>(cumulative) < target) continue;
    const uint64_t upper = Histogram::UpperBound(b.bucket);
    // Bucket 0 is the point mass {0}; the overflow bucket has no finite
    // width — report its floor rather than inventing mass beyond 2^62.
    if (b.bucket == 0) return 0;
    const uint64_t lower = Histogram::UpperBound(b.bucket - 1) + 1;
    if (static_cast<double>(cumulative) >= static_cast<double>(count) &&
        target >= static_cast<double>(count)) {
      // Max quantile: interpolation would report the bucket's lower bound
      // (or an interior point) even when the one recorded sample sits at
      // the top of the bucket. `sum` bounds the max from above whenever
      // this bucket holds the final sample(s), so clamp the answer into
      // [lower, min(upper, sum)] and take the top — for a single-sample
      // histogram this is exactly the recorded value.
      const uint64_t sum_cap = sum < lower ? lower : sum;
      return upper < sum_cap ? upper : sum_cap;
    }
    if (upper == UINT64_MAX) return lower;
    const double fraction =
        (target - static_cast<double>(before)) / static_cast<double>(b.count);
    return lower + static_cast<uint64_t>(
                       fraction * static_cast<double>(upper - lower));
  }
  return buckets.empty() ? 0 : Histogram::UpperBound(buckets.back().bucket);
}

namespace {

template <typename Vec>
auto FindByName(const Vec& v, std::string_view name) -> decltype(v.data()) {
  for (const auto& e : v) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

}  // namespace

const MetricsSnapshot::CounterEntry* MetricsSnapshot::counter(
    std::string_view name) const {
  return FindByName(counters, name);
}
const MetricsSnapshot::GaugeEntry* MetricsSnapshot::gauge(
    std::string_view name) const {
  return FindByName(gauges, name);
}
const MetricsSnapshot::HistogramEntry* MetricsSnapshot::histogram(
    std::string_view name) const {
  return FindByName(histograms, name);
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked on purpose: instrumentation sites in static destructors and
  // detached threads may outlive a function-local static's destruction.
  static MetricsRegistry* const kGlobal =
      new MetricsRegistry();  // NOLINT(kbqa-naked-new)
  return *kGlobal;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  MutexLock lock(mu_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->Value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->Value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramEntry e;
    e.name = name;
    e.count = h->Count();
    e.sum = h->Sum();
    for (size_t b = 0; b < Histogram::kBuckets; ++b) {
      uint64_t n = 0;
      for (const Histogram::Shard& s : h->shards_) {
        n += s.buckets[b].load(std::memory_order_relaxed);
      }
      if (n > 0) e.buckets.push_back({static_cast<int>(b), n});
    }
    snap.histograms.push_back(std::move(e));
  }
  return snap;
}

void MetricsRegistry::Reset() {
  MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

// ---------------------------------------------------------------------------
// JSON exposition. Metric names are code-controlled identifiers, but the
// writer still escapes quotes/backslashes/control bytes so the output is
// always valid JSON.

namespace {

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": [";
  char buf[64];
  for (size_t i = 0; i < counters.size(); ++i) {
    out += i ? ",\n    " : "\n    ";
    out += "{\"name\": ";
    AppendJsonString(counters[i].name, &out);
    std::snprintf(buf, sizeof(buf), ", \"value\": %" PRIu64 "}",
                  counters[i].value);
    out += buf;
  }
  out += counters.empty() ? "],\n" : "\n  ],\n";
  out += "  \"gauges\": [";
  for (size_t i = 0; i < gauges.size(); ++i) {
    out += i ? ",\n    " : "\n    ";
    out += "{\"name\": ";
    AppendJsonString(gauges[i].name, &out);
    // %.17g round-trips every finite double bit-exactly through strtod.
    std::snprintf(buf, sizeof(buf), ", \"value\": %.17g}", gauges[i].value);
    out += buf;
  }
  out += gauges.empty() ? "],\n" : "\n  ],\n";
  out += "  \"histograms\": [";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramEntry& h = histograms[i];
    out += i ? ",\n    " : "\n    ";
    out += "{\"name\": ";
    AppendJsonString(h.name, &out);
    std::snprintf(buf, sizeof(buf),
                  ", \"count\": %" PRIu64 ", \"sum\": %" PRIu64
                  ", \"buckets\": [",
                  h.count, h.sum);
    out += buf;
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      std::snprintf(buf, sizeof(buf), "%s{\"bucket\": %d, \"count\": %" PRIu64
                    "}",
                    b ? ", " : "", h.buckets[b].bucket, h.buckets[b].count);
      out += buf;
    }
    out += "]}";
  }
  out += histograms.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace kbqa::obs
