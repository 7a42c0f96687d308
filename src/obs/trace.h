#ifndef KBQA_OBS_TRACE_H_
#define KBQA_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>

#include "obs/metrics.h"

namespace kbqa::obs {

/// RAII scope timer behind KBQA_TRACE_SPAN: on destruction records the
/// elapsed steady-clock nanoseconds into the site's "span.<name>"
/// histogram. An entry made while obs::Enabled() is false reads no clock
/// and records nothing.
class SpanGuard {
 public:
  explicit SpanGuard(Histogram* histogram)
      : histogram_(Enabled() ? histogram : nullptr),
        begin_ns_(histogram_ != nullptr ? NowSteadyNs() : 0) {}
  ~SpanGuard() {
    if (histogram_ != nullptr) histogram_->Record(NowSteadyNs() - begin_ns_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Histogram* const histogram_;  // null when this entry was skipped
  const uint64_t begin_ns_;
};

/// Plain-text top-N summary of all span histograms ("span.*" in the
/// global registry) ordered by total time.
void WriteSpanSummary(std::ostream& os, size_t top_n);

}  // namespace kbqa::obs

#endif  // KBQA_OBS_TRACE_H_
