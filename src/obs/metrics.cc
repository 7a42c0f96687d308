#include "obs/metrics.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

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
// always valid JSON; the reader accepts exactly the grammar the writer
// emits (objects, arrays, strings, numbers).

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

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool Eat(char c) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  bool Peek(char c) {
    SkipWs();
    return pos_ < text_.size() && text_[pos_] == c;
  }
  bool AtEnd() {
    SkipWs();
    return pos_ >= text_.size();
  }

  bool ParseString(std::string* out) {
    if (!Eat('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        char esc = text_[pos_++];
        switch (esc) {
          case '"':
            out->push_back('"');
            break;
          case '\\':
            out->push_back('\\');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else {
                return false;
              }
            }
            if (code > 0x7f) return false;  // Writer only escapes ASCII.
            out->push_back(static_cast<char>(code));
            break;
          }
          default:
            return false;
        }
      } else {
        out->push_back(c);
      }
    }
    return false;
  }

  bool ParseU64(uint64_t* out) {
    SkipWs();
    size_t begin = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == begin) return false;
    *out = std::strtoull(std::string(text_.substr(begin, pos_ - begin)).c_str(),
                         nullptr, 10);
    return true;
  }

  bool ParseDouble(double* out) {
    SkipWs();
    size_t begin = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == begin) return false;
    *out = std::strtod(std::string(text_.substr(begin, pos_ - begin)).c_str(),
                       nullptr);
    return true;
  }

  /// Expects `"key":` next.
  bool EatKey(const char* key) {
    std::string k;
    return ParseString(&k) && k == key && Eat(':');
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  std::string_view text_;
  size_t pos_ = 0;
};

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

bool MetricsSnapshot::FromJson(std::string_view json, MetricsSnapshot* out) {
  *out = MetricsSnapshot();
  JsonParser p(json);
  if (!p.Eat('{')) return false;

  if (!p.EatKey("counters") || !p.Eat('[')) return false;
  if (!p.Peek(']')) {
    do {
      CounterEntry e;
      if (!p.Eat('{') || !p.EatKey("name") || !p.ParseString(&e.name) ||
          !p.Eat(',') || !p.EatKey("value") || !p.ParseU64(&e.value) ||
          !p.Eat('}')) {
        return false;
      }
      out->counters.push_back(std::move(e));
    } while (p.Eat(','));
  }
  if (!p.Eat(']') || !p.Eat(',')) return false;

  if (!p.EatKey("gauges") || !p.Eat('[')) return false;
  if (!p.Peek(']')) {
    do {
      GaugeEntry e;
      if (!p.Eat('{') || !p.EatKey("name") || !p.ParseString(&e.name) ||
          !p.Eat(',') || !p.EatKey("value") || !p.ParseDouble(&e.value) ||
          !p.Eat('}')) {
        return false;
      }
      out->gauges.push_back(std::move(e));
    } while (p.Eat(','));
  }
  if (!p.Eat(']') || !p.Eat(',')) return false;

  if (!p.EatKey("histograms") || !p.Eat('[')) return false;
  if (!p.Peek(']')) {
    do {
      HistogramEntry e;
      if (!p.Eat('{') || !p.EatKey("name") || !p.ParseString(&e.name) ||
          !p.Eat(',') || !p.EatKey("count") || !p.ParseU64(&e.count) ||
          !p.Eat(',') || !p.EatKey("sum") || !p.ParseU64(&e.sum) ||
          !p.Eat(',') || !p.EatKey("buckets") || !p.Eat('[')) {
        return false;
      }
      if (!p.Peek(']')) {
        do {
          BucketEntry b;
          uint64_t bucket = 0;
          if (!p.Eat('{') || !p.EatKey("bucket") || !p.ParseU64(&bucket) ||
              !p.Eat(',') || !p.EatKey("count") || !p.ParseU64(&b.count) ||
              !p.Eat('}')) {
            return false;
          }
          b.bucket = static_cast<int>(bucket);
          e.buckets.push_back(b);
        } while (p.Eat(','));
      }
      if (!p.Eat(']') || !p.Eat('}')) return false;
      out->histograms.push_back(std::move(e));
    } while (p.Eat(','));
  }
  if (!p.Eat(']') || !p.Eat('}')) return false;
  return p.AtEnd();
}

}  // namespace kbqa::obs
