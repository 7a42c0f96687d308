#ifndef KBQA_UTIL_TIMER_H_
#define KBQA_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>
#include <cstdio>

#include "obs/metrics.h"

namespace kbqa {

/// Monotonic wall-clock stopwatch for coarse pipeline timing (offline
/// training phases, per-question latency in effectiveness benches).
/// Fine-grained latency numbers use google-benchmark instead.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time since construction / last Reset.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  uint64_t ElapsedMicros() const {
    return static_cast<uint64_t>(ElapsedSeconds() * 1e6);
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// RAII phase timer: reports the scope's elapsed nanoseconds into a
/// registry histogram on destruction, optionally printing a "[label]
/// 12.3s" line as well. The printing, multi-millisecond sibling of
/// KBQA_TRACE_SPAN — use it for offline phases and bench setup, where a
/// name lookup per scope is noise.
class ScopedTimer {
 public:
  /// Reports into Global()'s histogram `histogram_name`.
  explicit ScopedTimer(const char* histogram_name,
                       const char* print_label = nullptr)
      : histogram_(obs::MetricsRegistry::Global().GetHistogram(
            histogram_name)),
        label_(print_label) {}
  /// Reports into an explicit histogram (tests with private registries).
  explicit ScopedTimer(obs::Histogram* histogram,
                       const char* print_label = nullptr)
      : histogram_(histogram), label_(print_label) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  double ElapsedSeconds() const { return timer_.ElapsedSeconds(); }

  ~ScopedTimer() {
    const double seconds = timer_.ElapsedSeconds();
    if (histogram_ != nullptr) {
      histogram_->Record(static_cast<uint64_t>(seconds * 1e9));
    }
    if (label_ != nullptr) std::printf("[%s] %.2fs\n", label_, seconds);
  }

 private:
  Timer timer_;
  obs::Histogram* histogram_;
  const char* label_;
};

}  // namespace kbqa

#endif  // KBQA_UTIL_TIMER_H_
