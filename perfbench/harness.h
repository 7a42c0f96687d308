// Workload-independent pieces of the end-to-end benchmark: clocks, exact
// percentiles, the in-memory span recorder of traced runs, and the metric
// sink that prints the result line.

#ifndef KBQA_PERFBENCH_HARNESS_H_
#define KBQA_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Waits until steady-clock time `due_ns`: sleeps while the wait is long,
/// then spins, so an open-loop generator sends within a few microseconds
/// of its schedule instead of one scheduler tick late. The spin yields, so
/// a server thread that shares the generator's core is not starved.
inline void WaitUntilNs(uint64_t due_ns) {
  for (;;) {
    const uint64_t now = NowNs();
    if (now >= due_ns) return;
    if (due_ns - now > 1'500'000) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(due_ns - now - 1'000'000));
    } else {
      std::this_thread::yield();
    }
  }
}

/// Nearest-rank percentile of `samples` (q in [0, 1]); 0 when empty.
/// Reorders `samples`.
template <typename T>
double Percentile(std::vector<T>& samples, double q) {
  if (samples.empty()) return 0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(samples.size()));
  rank = std::min(rank, samples.size() - 1);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return static_cast<double>(samples[rank]);
}

template <typename T>
double Mean(const std::vector<T>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (const T& s : samples) sum += static_cast<double>(s);
  return sum / static_cast<double>(samples.size());
}

inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// The end-to-end figures of a window: the median, over its one-second
/// slices (by request start), of each slice's p50, p99 and completions per
/// second. A stall of the shared machine then moves one slice, not the
/// figure; a regression that lasts the window moves every slice.
struct Summary {
  double p50_us = 0;
  double p99_us = 0;
  double qps = 0;
};

/// Latencies of one window in one-second slices, with memory that does not
/// grow with throughput (so rss_mb measures the system, not this record):
/// each slice keeps an exact count and sum plus a uniform reservoir of at
/// most kReservoir samples. One recorder per thread; Merge at the end.
class SliceRecorder {
 public:
  static constexpr size_t kReservoir = 1 << 16;

  SliceRecorder(uint64_t start_ns, uint64_t end_ns, uint64_t seed)
      : start_ns_(start_ns),
        slices_(std::max<size_t>(1, (end_ns - start_ns) / 1'000'000'000)),
        slice_ns_((end_ns - start_ns) / slices_),
        rng_state_(seed | 1),
        by_slice_(slices_) {}

  void Record(uint64_t at_ns, uint64_t latency_ns) {
    const uint64_t offset = at_ns > start_ns_ ? at_ns - start_ns_ : 0;
    Slice& s = by_slice_[std::min<size_t>(slices_ - 1, offset / slice_ns_)];
    ++s.count;
    s.sum_ns += latency_ns;
    if (s.samples.size() < kReservoir) {
      s.samples.push_back(latency_ns);
      return;
    }
    rng_state_ ^= rng_state_ << 13;  // xorshift64
    rng_state_ ^= rng_state_ >> 7;
    rng_state_ ^= rng_state_ << 17;
    const uint64_t j = rng_state_ % s.count;
    if (j < kReservoir) s.samples[j] = latency_ns;
  }

  /// Folds in another recorder of the same window.
  void Merge(const SliceRecorder& other) {
    for (size_t i = 0; i < slices_; ++i) {
      const Slice& o = other.by_slice_[i];
      by_slice_[i].count += o.count;
      by_slice_[i].sum_ns += o.sum_ns;
      by_slice_[i].samples.insert(by_slice_[i].samples.end(),
                                  o.samples.begin(), o.samples.end());
    }
  }

  uint64_t Count() const {
    uint64_t n = 0;
    for (const Slice& s : by_slice_) n += s.count;
    return n;
  }

  double MeanNs() const {
    double sum = 0;
    for (const Slice& s : by_slice_) sum += static_cast<double>(s.sum_ns);
    return Ratio(sum, static_cast<double>(Count()));
  }

  /// Percentile over the whole window's samples.
  double PercentileNs(double q) const {
    std::vector<uint64_t> all;
    for (const Slice& s : by_slice_) {
      all.insert(all.end(), s.samples.begin(), s.samples.end());
    }
    return Percentile(all, q);
  }

  Summary Summarize() const {
    std::vector<double> p50, p99, qps;
    for (Slice s : by_slice_) {
      p50.push_back(Percentile(s.samples, 0.5));
      p99.push_back(Percentile(s.samples, 0.99));
      qps.push_back(static_cast<double>(s.count) /
                    (static_cast<double>(slice_ns_) / 1e9));
    }
    return Summary{Percentile(p50, 0.5) / 1e3, Percentile(p99, 0.5) / 1e3,
                   Percentile(qps, 0.5)};
  }

 private:
  struct Slice {
    uint64_t count = 0;
    uint64_t sum_ns = 0;
    std::vector<uint64_t> samples;
  };

  uint64_t start_ns_;
  size_t slices_;
  uint64_t slice_ns_;
  uint64_t rng_state_;
  std::vector<Slice> by_slice_;
};

/// Spans of a traced run, kept in memory (one buffer per recording thread,
/// so recording takes no lock) and written out once at exit. A span names
/// the call it brackets and carries the id of the request it belongs to;
/// nesting within a request follows from the intervals.
class SpanRecorder {
 public:
  struct Span {
    const char* name;
    uint64_t request;
    uint64_t start_ns;
    uint64_t end_ns;
  };

  /// Per-thread cap: enough for a several-second traced window, bounded so
  /// a long run cannot exhaust memory. Spans past the cap are counted.
  static constexpr size_t kMaxSpansPerBuffer = 1 << 19;

  SpanRecorder(bool enabled, int num_buffers)
      : enabled_(enabled),
        buffers_(static_cast<size_t>(enabled ? num_buffers : 0)) {
    for (Buffer& b : buffers_) b.spans.reserve(1 << 14);
  }

  bool enabled() const { return enabled_; }

  void Record(int buffer, const char* name, uint64_t request,
              uint64_t start_ns, uint64_t end_ns) {
    if (!enabled_) return;
    Buffer& b = buffers_[static_cast<size_t>(buffer)];
    if (b.spans.size() >= kMaxSpansPerBuffer) {
      ++b.dropped;
      return;
    }
    b.spans.push_back(Span{name, request, start_ns, end_ns});
  }

  /// Writes every span as CSV (name,request,start_ns,end_ns,self_ns) and
  /// prints each name's total and self time to `summary`. Self time is a
  /// span's duration minus the part its child spans (same request, nested
  /// interval) cover.
  void WriteCsv(const std::string& path, std::FILE* summary) const {
    if (!enabled_) return;
    std::vector<Span> all;
    uint64_t dropped = 0;
    for (const Buffer& b : buffers_) {
      all.insert(all.end(), b.spans.begin(), b.spans.end());
      dropped += b.dropped;
    }
    std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
      if (a.request != b.request) return a.request < b.request;
      if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
      return a.end_ns > b.end_ns;  // parents before the children they hold
    });
    std::vector<uint64_t> self(all.size());
    std::vector<size_t> stack;
    for (size_t i = 0; i < all.size(); ++i) {
      self[i] = all[i].end_ns - all[i].start_ns;
      while (!stack.empty() && (all[stack.back()].request != all[i].request ||
                                all[stack.back()].end_ns <= all[i].start_ns)) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        const uint64_t child = all[i].end_ns - all[i].start_ns;
        uint64_t& parent = self[stack.back()];
        parent -= std::min(parent, child);
      }
      stack.push_back(i);
    }
    struct Totals {
      uint64_t count = 0;
      uint64_t total_ns = 0;
      uint64_t self_ns = 0;
    };
    std::unordered_map<std::string, Totals> by_name;
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out != nullptr) {
      std::fprintf(out, "name,request,start_ns,end_ns,self_ns\n");
    }
    for (size_t i = 0; i < all.size(); ++i) {
      const Span& s = all[i];
      Totals& t = by_name[s.name];
      ++t.count;
      t.total_ns += s.end_ns - s.start_ns;
      t.self_ns += self[i];
      if (out != nullptr) {
        std::fprintf(out, "%s,%llu,%llu,%llu,%llu\n", s.name,
                     static_cast<unsigned long long>(s.request),
                     static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.end_ns),
                     static_cast<unsigned long long>(self[i]));
      }
    }
    if (out != nullptr) std::fclose(out);
    std::fprintf(summary, "[trace] %zu spans (%llu past the cap) -> %s\n",
                 all.size(), static_cast<unsigned long long>(dropped),
                 path.c_str());
    for (const auto& [name, t] : by_name) {
      std::fprintf(summary,
                   "[trace]   %-28s n=%-9llu total %10.3f ms  self %10.3f ms\n",
                   name.c_str(), static_cast<unsigned long long>(t.count),
                   static_cast<double>(t.total_ns) / 1e6,
                   static_cast<double>(t.self_ns) / 1e6);
    }
  }

 private:
  struct Buffer {
    std::vector<Span> spans;
    uint64_t dropped = 0;
  };

  bool enabled_;
  std::vector<Buffer> buffers_;
};

/// Ordered (name, value, unit) metrics of one run, printed as a table on
/// stderr and as the JSON result line on stdout.
class MetricSink {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    metrics_.push_back(Metric{name, value, unit});
  }

  void PrintTable(std::FILE* out) const {
    for (const Metric& m : metrics_) {
      std::fprintf(out, "  %-40s %18.6f %s\n", m.name.c_str(), m.value,
                   m.unit);
    }
  }

  void PrintResult(std::FILE* out, bool correct, uint64_t attempted,
                   uint64_t failed) const {
    std::fprintf(out,
                 "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                 "\"metrics\": {",
                 correct ? "true" : "false",
                 static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                   metrics_[i].value, metrics_[i].unit);
    }
    std::fprintf(out, "}}\n");
    std::fflush(out);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // KBQA_PERFBENCH_HARNESS_H_
