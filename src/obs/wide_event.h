#ifndef KBQA_OBS_WIDE_EVENT_H_
#define KBQA_OBS_WIDE_EVENT_H_

/// Request-scoped wide-event telemetry (DESIGN.md §8).
///
/// A `RequestContext` is created at serve::Server admission and travels by
/// value inside the request through the queue, to a worker, and into the
/// engine (`AnswerOptions::request_context`); each layer stamps disjoint stage
/// durations and per-tier cache counters into it. When the request reaches
/// a terminal outcome (answered, rejected, shed, deadline-exceeded) the
/// server flattens the context into one `WideEvent` and appends it to the
/// process-wide ring (`WideEvents::Record`), drainable as JSONL.
///
/// The stage clock is chained: every `Mark(stage)` charges the interval
/// since the previous mark to `stage` with a single clock read, so stage
/// intervals are disjoint by construction, and because the clock is
/// anchored at the server's own service-start reading of the same
/// steady_clock, the stage sum can never exceed the measured service time.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace kbqa::obs {

/// Answer-pipeline stages a request's service time is attributed to.
/// `kTemplateMatch` is the umbrella for the candidate walk; conceptualize,
/// score, and miss-path value lookups are split out of it by inner marks.
enum class WideStage : uint8_t {
  kNer = 0,
  kConceptualize,
  kTemplateMatch,
  kScore,
  kValueLookup,
  kRank,
};
inline constexpr size_t kWideStageCount = 6;
const char* WideStageName(size_t stage);

/// Terminal outcome of a served request. Exactly one wide event is emitted
/// per request, tagged with exactly one of these.
enum class WideOutcome : uint8_t {
  kAnswered = 0,         // handler ran, status OK, non-empty answer set
  kUnanswered,           // handler ran, status OK, no answer found
  kDeadlineExceeded,     // handler ran but the deadline cut it short
  kError,                // handler ran, non-OK status other than deadline
  kRejected,             // admission control refused the request
  kShedExpired,          // deadline expired while queued; never served
  kShedShutdown,         // server stopped with the request still queued
};
inline constexpr size_t kWideOutcomeCount = 7;
const char* WideOutcomeName(size_t outcome);

/// Accumulated attribution for one stage of one request: total nanoseconds
/// charged and the number of times the stage was entered.
struct StageRecord {
  uint64_t ns = 0;
  uint32_t count = 0;
};

/// Per-request telemetry context. Created at admission, carried by value
/// with the request, stamped by each layer it passes through. Not
/// thread-safe: exactly one thread touches it at a time (submitter, then
/// the worker running the handler), with the handoff ordered by the
/// queue's mutex.
struct RequestContext {
  uint64_t trace_id = 0;
  uint64_t admit_ns = 0;   // NowSteadyNs() at admission
  bool sampled = false;    // wide-event sampling decision, made at admission

  StageRecord stages[kWideStageCount] = {};

  uint32_t value_cache_hits = 0;
  uint32_t value_cache_misses = 0;
  uint32_t answer_cache_hits = 0;
  uint32_t answer_cache_misses = 0;

  /// Epoch of the KB snapshot the answer read (DESIGN.md §10): 0 for an
  /// engine's own base, one more per merge a live engine has published.
  uint64_t kb_epoch = 0;

  uint64_t last_mark_ns = 0;  // chained stage-clock anchor

  /// Anchors the stage clock at `now_ns` (typically the server's existing
  /// service-start reading, so anchoring costs no extra clock read).
  void StartClockAt(uint64_t now_ns) { last_mark_ns = now_ns; }

  /// Charges [last mark, now) to `stage` with one clock read. A context
  /// whose clock was never anchored charges nothing on its first mark.
  void Mark(WideStage stage) {
    const uint64_t now = NowSteadyNs();
    StageRecord& r = stages[static_cast<size_t>(stage)];
    if (last_mark_ns != 0 && now > last_mark_ns) r.ns += now - last_mark_ns;
    ++r.count;
    last_mark_ns = now;
  }

  /// Charges [begin_ns, now) to `stage` and re-anchors at now; the pending
  /// prefix [last mark, begin_ns) is left for the next Mark to claim, so
  /// a timed sub-span (e.g. a value-cache miss fill) stays disjoint from
  /// its surrounding stage.
  void AddTimedSince(WideStage stage, uint64_t begin_ns) {
    const uint64_t now = NowSteadyNs();
    StageRecord& r = stages[static_cast<size_t>(stage)];
    if (now > begin_ns) r.ns += now - begin_ns;
    ++r.count;
    last_mark_ns = now;
  }

  uint64_t StageNsSum() const {
    uint64_t sum = 0;
    for (const StageRecord& r : stages) sum += r.ns;
    return sum;
  }
};

/// One flat record per completed request — the whole attribution vector in
/// a single row, kept in the sink's ring and serialized to JSONL.
struct WideEvent {
  uint64_t trace_id = 0;
  uint64_t admit_ns = 0;
  WideOutcome outcome = WideOutcome::kAnswered;
  bool has_deadline = false;
  uint32_t question_bytes = 0;
  uint64_t queue_wait_ns = 0;  // admission -> worker take (handler start)
  uint64_t service_ns = 0;     // handler start -> handler return
  uint64_t total_ns = 0;       // admission -> terminal resolution
  /// Deadline budget remaining at the decision point (the worker's take
  /// for served requests, shed time for sheds); negative when already
  /// expired. 0 when `has_deadline` is false.
  int64_t deadline_budget_ns = 0;

  StageRecord stages[kWideStageCount] = {};

  uint32_t value_cache_hits = 0;
  uint32_t value_cache_misses = 0;
  uint32_t answer_cache_hits = 0;
  uint32_t answer_cache_misses = 0;

  /// Epoch of the KB snapshot the answer read (see RequestContext).
  uint64_t kb_epoch = 0;

  uint64_t StageNsSum() const {
    uint64_t sum = 0;
    for (const StageRecord& r : stages) sum += r.ns;
    return sum;
  }

  /// Copies the context's stage and cache fields into this event.
  void StampFrom(const RequestContext& ctx);

  /// One-line JSON object (the JSONL schema scripts/trace_summarize.py
  /// ingests). All values are numeric or fixed enum names — no escaping.
  std::string ToJsonLine() const;
};

/// Process-wide wide-event sink: one ring of the newest kRingCapacity
/// events behind one mutex, allocated on the first Record. A row is copied
/// whole under the lock, so every row a reader gets is one event.
/// All methods are static; state is a leaked singleton.
class WideEvents {
 public:
  /// Events the ring retains before overwriting the oldest.
  static constexpr size_t kRingCapacity = 8192;

  /// Copies the event into the ring, overwriting the oldest row when full.
  static void Record(const WideEvent& event);

  /// Consumes every event recorded since the previous Drain, ordered by
  /// admission time. Overwritten (never-drained) events are counted in
  /// Dropped().
  static std::vector<WideEvent> Drain();

  /// Non-consuming view of the most recently recorded events (up to
  /// `max_events`), ordered by admission time.
  static std::vector<WideEvent> Recent(size_t max_events);

  /// Total events ever recorded / dropped before a drain reached them.
  static uint64_t TotalRecorded();
  static uint64_t Dropped();

  /// Sampling: 0 disables wide events entirely, 1 (default) samples every
  /// request, k samples 1-in-k per thread.
  static void SetSamplePeriod(uint32_t period);
  static uint32_t SamplePeriod();
  /// Admission-time sampling decision (false when obs is disabled).
  static bool Sample();

  /// Process-unique trace id (monotone, never 0).
  static uint64_t NextTraceId();

  /// Clears the ring and counters and restores the default sample period.
  /// Test-only.
  static void ResetForTest();
};

}  // namespace kbqa::obs

#endif  // KBQA_OBS_WIDE_EVENT_H_
