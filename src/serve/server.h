#ifndef KBQA_SERVE_SERVER_H_
#define KBQA_SERVE_SERVER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/online.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/wide_event.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace kbqa::serve {

/// Knobs of the in-process serving front door. Defaults are a sane
/// low-latency configuration; the load harness sweeps them.
struct ServingOptions {
  /// Answering worker threads. Each pulls requests straight from the
  /// bounded queue and runs the handler itself.
  int num_workers = 1;
  /// Admission control: a Submit that would make the queue deeper than
  /// this is rejected with kUnavailable (backpressure to the caller
  /// instead of unbounded memory + doomed-to-expire latency).
  size_t max_queue_depth = 1024;
  /// Applied at admission to requests that carry no deadline of their own:
  /// deadline = arrival + default_timeout. Queue wait therefore counts
  /// against the budget — a request that expires while queued is shed
  /// without ever entering the answer pipeline. nullopt = no implicit
  /// deadline.
  std::optional<std::chrono::nanoseconds> default_timeout;
  /// Optional SLO burn-rate monitor (must outlive the server). Every
  /// terminal outcome — answered, error, rejected, shed — is recorded as
  /// good/bad against its spec, independent of wide-event sampling.
  obs::SloMonitor* slo = nullptr;
};

/// The outcome of one served request, delivered to its callback.
struct ServeResponse {
  core::AnswerResult result;
  /// Admission to the worker's take (for shed requests: admission to
  /// shed). The take is also the handler start, so queue_ns + service_ns
  /// is the request's whole time in the server.
  uint64_t queue_ns = 0;
  /// Handler start to completion inside the worker (0 for shed requests).
  uint64_t service_ns = 0;
  /// 1 when the handler ran, 0 when the request was shed. A worker takes
  /// one request at a time; perfbench's serve probe reads 0 as shed.
  size_t batch_size = 0;
};

/// Point-in-time accounting. submitted == rejected + completed +
/// shed_expired + shed_shutdown + (still queued or in flight).
struct ServingStats {
  uint64_t submitted = 0;
  uint64_t rejected = 0;       // admission refusals (kUnavailable)
  uint64_t completed = 0;      // went through the answer pipeline
  uint64_t shed_expired = 0;   // deadline passed while queued
  uint64_t shed_shutdown = 0;  // queued at destruction (kUnavailable)
  uint64_t batches = 0;        // equals completed: one request per take
  uint64_t queue_depth = 0;    // current
};

/// In-process async serving front door over the KBQA online engine: a
/// bounded MPMC request queue with admission control, and num_workers
/// threads that pull from it. Each time a worker goes to the queue it takes
/// the front request, sheds it if its deadline has passed, and otherwise
/// answers it.
///
/// Request lifecycle:
///   Submit -> [bounded queue] -> worker take -> {shed if expired}
///          -> handler(question, options) -> callback
///
/// The callback of every *accepted* request is invoked exactly once, on a
/// worker thread (or on the destructor thread for shutdown sheds). A
/// rejected Submit returns kUnavailable and never invokes the callback.
/// A queued request whose deadline lapses is shed when a worker takes it.
/// Destruction stops admission, sheds still-queued requests with
/// kUnavailable, then joins the workers, which finish what they took.
///
/// Thread safety: Submit/Answer/stats are safe from any thread.
class Server {
 public:
  /// The unit of work a worker runs per request. The engine adapter is
  /// OnlineInference::AnswerCached; tests substitute instrumented or
  /// deliberately slow handlers to pin down queueing behavior.
  using Handler =
      std::function<core::AnswerResult(const std::string& question,
                                       const core::AnswerOptions& options)>;
  using Callback = std::function<void(ServeResponse)>;

  Server(Handler handler, const ServingOptions& options);
  /// Fronts an engine with AnswerCached(question, options) — an
  /// OnlineInference, or a LiveKbqaEngine (DESIGN.md §10), which pins the
  /// newest snapshot per request, so merges land between requests without
  /// draining the server. The engine must outlive the server. Every
  /// request goes through AnswerCached, so the opt-in answer memo and
  /// per-request deadlines compose with the queue.
  template <typename Engine>
  static std::unique_ptr<Server> ForEngine(const Engine* engine,
                                           const ServingOptions& options) {
    return std::make_unique<Server>(
        [engine](const std::string& question,
                 const core::AnswerOptions& answer_options) {
          return engine->AnswerCached(question, answer_options);
        },
        options);
  }
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Asynchronous entry point. Accepts the request into the queue and
  /// returns Ok, or rejects with kUnavailable (queue at its depth bound, or
  /// server shutting down) without ever invoking `done`.
  /// `options.deadline` (or ServingOptions::default_timeout) is measured
  /// against wall time from this call on — queue wait spends the budget.
  [[nodiscard]] Status Submit(std::string question,
                              const core::AnswerOptions& options,
                              Callback done);
  [[nodiscard]] Status Submit(std::string question, Callback done) {
    return Submit(std::move(question), core::AnswerOptions{},
                  std::move(done));
  }

  /// Blocking convenience wrapper: Submit + wait. A rejection comes back
  /// as a ServeResponse whose result.status is the kUnavailable status.
  ServeResponse Answer(const std::string& question,
                       const core::AnswerOptions& options = {});

  ServingStats stats() const;
  const ServingOptions& options() const { return options_; }

 private:
  struct Request {
    std::string question;
    core::AnswerOptions options;
    Callback done;
    std::chrono::steady_clock::time_point enqueue_time;
    /// Request-scoped telemetry (DESIGN.md §8): the sampling decision and
    /// trace id are fixed at admission; the context then travels by value
    /// with the request and is stamped by every layer it crosses. Exactly
    /// one wide event is emitted per terminal outcome.
    obs::RequestContext ctx;
  };

  /// Queues `*request` (moving from it) and returns nullptr, or returns
  /// why admission refused it, leaving it untouched. Sets `*wake` when a
  /// sleeping worker should be notified.
  const char* Enqueue(Request* request, bool* wake);
  void WorkerLoop();
  /// Sheds a request the worker took if its deadline has passed, and
  /// otherwise answers it on the calling worker.
  void Serve(Request* request);
  /// Completes a request without entering the pipeline (expired in queue
  /// or shutdown shed) at `now`, emitting its terminal wide event and SLO
  /// record.
  void CompleteShed(Request* request, Status status, obs::WideOutcome outcome,
                    std::chrono::steady_clock::time_point now);
  /// Terminal accounting for an admission-rejected request (never queued,
  /// callback never invoked — but still exactly one wide event).
  void RecordRejected(const Request& request);

  const Handler handler_;
  const ServingOptions options_;

  mutable Mutex mu_;
  CondVar queue_cv_;  // workers wait for arrivals / stop
  std::deque<Request> queue_ GUARDED_BY(mu_);
  /// Workers asleep on queue_cv_, and wake-ups Submit issued that no
  /// worker has woken from yet. Submit notifies only while the first
  /// exceeds the second: a wake-up per Submit would cost a futex call on
  /// every arrival, even when a woken worker will take it anyway.
  int sleeping_workers_ GUARDED_BY(mu_) = 0;
  int pending_wakeups_ GUARDED_BY(mu_) = 0;
  bool stopping_ GUARDED_BY(mu_) = false;

  // Per-instance accounting (sharded relaxed atomics; the global
  // online.serve.* registry metrics mirror these when obs is enabled).
  obs::ShardedCounter submitted_;
  obs::ShardedCounter rejected_;
  obs::ShardedCounter completed_;
  obs::ShardedCounter shed_expired_;
  obs::ShardedCounter shed_shutdown_;

  // Declared after every member the workers touch: ~Server joins them
  // before those members are destroyed.
  std::vector<std::thread> workers_;
};

}  // namespace kbqa::serve

#endif  // KBQA_SERVE_SERVER_H_
