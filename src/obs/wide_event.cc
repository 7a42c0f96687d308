#include "obs/wide_event.h"

#include <algorithm>
#include <atomic>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace kbqa::obs {

namespace {

constexpr const char* kStageNames[kWideStageCount] = {
    "ner", "conceptualize", "template_match", "score", "value_lookup",
    "rank",
};

constexpr const char* kOutcomeNames[kWideOutcomeCount] = {
    "answered",     "unanswered",   "deadline_exceeded", "error",
    "rejected",     "shed_expired", "shed_shutdown",
};

/// The process-wide sink: one ring of plain rows behind one mutex. The
/// mutex is a leaf: no caller holds another lock across Record, Drain or
/// Recent.
struct SinkState {
  Mutex mu;
  /// Allocated on the first Record. Event i of the stream since the last
  /// ResetForTest lives at ring[i % kRingCapacity] until event
  /// i + kRingCapacity overwrites it.
  std::vector<WideEvent> ring GUARDED_BY(mu);
  uint64_t recorded GUARDED_BY(mu) = 0;  // events recorded
  uint64_t drained GUARDED_BY(mu) = 0;   // Drain's position in the stream
  uint64_t dropped GUARDED_BY(mu) = 0;
  std::atomic<uint64_t> next_trace_id{1};
  std::atomic<uint32_t> sample_period{1};
};

SinkState& Sink() {
  // Leaked: recorders may run during static destruction.
  static SinkState* const kSink = new SinkState();  // NOLINT(kbqa-naked-new)
  return *kSink;
}

/// Oldest still-resident event index once `recorded` events were pushed.
uint64_t RingBase(uint64_t recorded) {
  return recorded > WideEvents::kRingCapacity
             ? recorded - WideEvents::kRingCapacity
             : 0;
}

/// Copies events [from, to) of the stream out of the ring.
std::vector<WideEvent> CopyRows(const SinkState& sink, uint64_t from,
                                uint64_t to) REQUIRES(sink.mu) {
  std::vector<WideEvent> out;
  out.reserve(static_cast<size_t>(to - from));
  for (uint64_t i = from; i < to; ++i) {
    out.push_back(
        sink.ring[static_cast<size_t>(i % WideEvents::kRingCapacity)]);
  }
  return out;
}

bool AdmitBefore(const WideEvent& a, const WideEvent& b) {
  if (a.admit_ns != b.admit_ns) return a.admit_ns < b.admit_ns;
  return a.trace_id < b.trace_id;
}

}  // namespace

const char* WideStageName(size_t stage) {
  return stage < kWideStageCount ? kStageNames[stage] : "unknown";
}

const char* WideOutcomeName(size_t outcome) {
  return outcome < kWideOutcomeCount ? kOutcomeNames[outcome] : "unknown";
}

void WideEvent::StampFrom(const RequestContext& ctx) {
  trace_id = ctx.trace_id;
  admit_ns = ctx.admit_ns;
  for (size_t i = 0; i < kWideStageCount; ++i) stages[i] = ctx.stages[i];
  value_cache_hits = ctx.value_cache_hits;
  value_cache_misses = ctx.value_cache_misses;
  answer_cache_hits = ctx.answer_cache_hits;
  answer_cache_misses = ctx.answer_cache_misses;
  kb_epoch = ctx.kb_epoch;
}

std::string WideEvent::ToJsonLine() const {
  std::string out;
  out.reserve(512);
  auto field = [&out](const char* key, uint64_t value, bool first = false) {
    if (!first) out += ',';
    out += '"';
    out += key;
    out += "\":";
    out += std::to_string(value);
  };
  out += "{\"trace_id\":";
  out += std::to_string(trace_id);
  out += ",\"outcome\":\"";
  out += WideOutcomeName(static_cast<size_t>(outcome));
  out += '"';
  field("admit_ns", admit_ns);
  out += ",\"has_deadline\":";
  out += has_deadline ? "true" : "false";
  out += ",\"deadline_budget_ns\":";
  out += std::to_string(deadline_budget_ns);
  field("batch_size", batch_size);
  field("question_bytes", question_bytes);
  field("queue_wait_ns", queue_wait_ns);
  field("batch_wait_ns", batch_wait_ns);
  field("service_ns", service_ns);
  field("total_ns", total_ns);
  out += ",\"stages\":{";
  for (size_t i = 0; i < kWideStageCount; ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += kStageNames[i];
    out += "\":{\"ns\":";
    out += std::to_string(stages[i].ns);
    out += ",\"count\":";
    out += std::to_string(stages[i].count);
    out += '}';
  }
  out += "},\"value_cache\":{";
  field("hits", value_cache_hits, /*first=*/true);
  field("misses", value_cache_misses);
  out += "},\"answer_cache\":{";
  field("hits", answer_cache_hits, /*first=*/true);
  field("misses", answer_cache_misses);
  out += '}';
  field("kb_epoch", kb_epoch);
  out += '}';
  return out;
}

void WideEvents::Record(const WideEvent& event) {
  SinkState& sink = Sink();
  MutexLock lock(sink.mu);
  if (sink.ring.empty()) sink.ring.resize(kRingCapacity);
  sink.ring[static_cast<size_t>(sink.recorded % kRingCapacity)] = event;
  ++sink.recorded;
}

std::vector<WideEvent> WideEvents::Drain() {
  SinkState& sink = Sink();
  std::vector<WideEvent> out;
  {
    MutexLock lock(sink.mu);
    const uint64_t base = RingBase(sink.recorded);
    if (base > sink.drained) {
      sink.dropped += base - sink.drained;
      sink.drained = base;
    }
    out = CopyRows(sink, sink.drained, sink.recorded);
    sink.drained = sink.recorded;
  }
  std::sort(out.begin(), out.end(), AdmitBefore);
  return out;
}

std::vector<WideEvent> WideEvents::Recent(size_t max_events) {
  SinkState& sink = Sink();
  std::vector<WideEvent> out;
  {
    MutexLock lock(sink.mu);
    const uint64_t resident = sink.recorded - RingBase(sink.recorded);
    const uint64_t n = std::min<uint64_t>(max_events, resident);
    out = CopyRows(sink, sink.recorded - n, sink.recorded);
  }
  std::sort(out.begin(), out.end(), AdmitBefore);
  return out;
}

uint64_t WideEvents::TotalRecorded() {
  SinkState& sink = Sink();
  MutexLock lock(sink.mu);
  return sink.recorded;
}

uint64_t WideEvents::Dropped() {
  SinkState& sink = Sink();
  MutexLock lock(sink.mu);
  return sink.dropped;
}

void WideEvents::SetSamplePeriod(uint32_t period) {
  Sink().sample_period.store(period, std::memory_order_relaxed);
}

uint32_t WideEvents::SamplePeriod() {
  return Sink().sample_period.load(std::memory_order_relaxed);
}

bool WideEvents::Sample() {
  if (!Enabled()) return false;
  const uint32_t period = SamplePeriod();
  if (period == 0) return false;
  if (period == 1) return true;
  thread_local uint32_t countdown = 0;
  if (countdown == 0) {
    countdown = period - 1;
    return true;
  }
  --countdown;
  return false;
}

uint64_t WideEvents::NextTraceId() {
  return Sink().next_trace_id.fetch_add(1, std::memory_order_relaxed);
}

void WideEvents::ResetForTest() {
  SinkState& sink = Sink();
  MutexLock lock(sink.mu);
  sink.recorded = 0;
  sink.drained = 0;
  sink.dropped = 0;
  sink.sample_period.store(1, std::memory_order_relaxed);
}

}  // namespace kbqa::obs
