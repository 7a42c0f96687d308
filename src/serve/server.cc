#include "serve/server.h"

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace kbqa::serve {

namespace {

uint64_t NanosBetween(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  if (to <= from) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}

/// Steady time point -> the absolute-ns time base the wide-event layer
/// uses (same clock, so stage sums and server sums stay comparable).
uint64_t ToNs(std::chrono::steady_clock::time_point tp) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          tp.time_since_epoch())
          .count());
}

/// Remaining deadline budget (possibly negative) at `at_ns`; 0 when the
/// request carries no deadline.
int64_t BudgetNsAt(
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    uint64_t at_ns) {
  if (!deadline) return 0;
  return static_cast<int64_t>(ToNs(*deadline)) - static_cast<int64_t>(at_ns);
}

/// Common wide-event header shared by every terminal outcome.
obs::WideEvent BaseEvent(const obs::RequestContext& ctx,
                         obs::WideOutcome outcome, bool has_deadline,
                         size_t question_bytes) {
  obs::WideEvent event;
  event.trace_id = ctx.trace_id;
  event.admit_ns = ctx.admit_ns;
  event.outcome = outcome;
  event.has_deadline = has_deadline;
  event.question_bytes = static_cast<uint32_t>(question_bytes);
  return event;
}

/// Folds a served request's stage vector into the per-stage histograms
/// "online.stage.<stage>_ns": one sample for each stage the request
/// entered. They count every request whose context was bound, including
/// the ones whose wide event the ring overwrites before a drain.
void RecordStageHistograms(const obs::RequestContext& ctx) {
  if (!obs::Enabled()) return;
  static const std::array<obs::Histogram*, obs::kWideStageCount> histograms =
      [] {
        std::array<obs::Histogram*, obs::kWideStageCount> h{};
        obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
        for (size_t s = 0; s < obs::kWideStageCount; ++s) {
          const std::string stage = obs::WideStageName(s);
          h[s] = registry.GetHistogram("online.stage." + stage + "_ns");
        }
        return h;
      }();
  for (size_t s = 0; s < obs::kWideStageCount; ++s) {
    const obs::StageRecord& record = ctx.stages[s];
    if (record.count > 0) histograms[s]->Record(record.ns);
  }
}

ServingOptions Sanitize(ServingOptions options) {
  if (options.num_workers < 1) options.num_workers = 1;
  if (options.max_queue_depth < 1) options.max_queue_depth = 1;
  if (options.max_batch_size < 1) options.max_batch_size = 1;
  return options;
}

}  // namespace

Server::Server(Handler handler, const ServingOptions& options)
    : handler_(std::move(handler)), options_(Sanitize(options)) {
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Server::~Server() {
  // Stop admission and take the whole queue in one step, so a worker that
  // wakes after this sees stopping_ with nothing left to take.
  std::deque<Request> leftover;
  {
    MutexLock lock(mu_);
    stopping_ = true;
    leftover.swap(queue_);
    KBQA_GAUGE_SET("online.serve.queue_depth", 0);
  }
  queue_cv_.NotifyAll();
  // Shed outside mu_: a shed callback may re-enter Submit (and be
  // rejected). Every accepted callback still fires exactly once.
  for (Request& request : leftover) {
    shed_shutdown_.Add(1);
    KBQA_COUNTER_ADD("online.serve.shed_shutdown", 1);
    CompleteShed(&request, Status::Unavailable("server shutting down"),
                 obs::WideOutcome::kShedShutdown);
  }
  // Workers finish the requests they already took, then exit.
  for (std::thread& worker : workers_) worker.join();
}

Status Server::Submit(std::string question, const core::AnswerOptions& options,
                      Callback done) {
  submitted_.Add(1);
  KBQA_COUNTER_ADD("online.serve.submitted", 1);
  Request request;
  request.question = std::move(question);
  request.options = options;
  request.done = std::move(done);
  request.enqueue_time = std::chrono::steady_clock::now();
  if (!request.options.deadline && options_.default_timeout) {
    // The implicit budget starts now: time spent queued is spent budget,
    // so a request that languishes is shed instead of served late.
    request.options.deadline = request.enqueue_time + *options_.default_timeout;
  }
  // The wide-event sampling decision is fixed at admission so every layer
  // downstream sees a consistent answer, and so rejections are sampled at
  // the same rate as served requests.
  if (obs::WideEvents::Sample()) {
    request.ctx.sampled = true;
    request.ctx.trace_id = obs::WideEvents::NextTraceId();
    request.ctx.admit_ns = ToNs(request.enqueue_time);
  }
  bool wake = false;
  // The refusal is decided under mu_ and recorded after it is released, so
  // no lock is held across the wide-event sink's.
  if (const char* refusal = Enqueue(&request, &wake)) {
    rejected_.Add(1);
    KBQA_COUNTER_ADD("online.serve.rejected", 1);
    RecordRejected(request);
    return Status::Unavailable(refusal);
  }
  if (wake) queue_cv_.NotifyOne();
  return Status::Ok();
}

const char* Server::Enqueue(Request* request, bool* wake) {
  MutexLock lock(mu_);
  if (stopping_) return "server shutting down";
  if (queue_.size() >= options_.max_queue_depth) return "serving queue full";
  queue_.push_back(std::move(*request));
  KBQA_GAUGE_SET("online.serve.queue_depth", queue_.size());
  *wake = sleeping_workers_ > pending_wakeups_;
  if (*wake) ++pending_wakeups_;
  return nullptr;
}

ServeResponse Server::Answer(const std::string& question,
                             const core::AnswerOptions& options) {
  struct Waiter {
    Mutex mu;
    CondVar cv;
    bool ready = false;
    ServeResponse response;
  };
  auto waiter = std::make_shared<Waiter>();
  Status admitted = Submit(question, options, [waiter](ServeResponse r) {
    MutexLock lock(waiter->mu);
    waiter->response = std::move(r);
    waiter->ready = true;
    waiter->cv.NotifyAll();
  });
  if (!admitted.ok()) {
    ServeResponse response;
    response.result.status = std::move(admitted);
    return response;
  }
  MutexLock lock(waiter->mu);
  while (!waiter->ready) waiter->cv.Wait(waiter->mu);
  return std::move(waiter->response);
}

ServingStats Server::stats() const {
  ServingStats stats;
  stats.submitted = submitted_.Value();
  stats.rejected = rejected_.Value();
  stats.completed = completed_.Value();
  stats.shed_expired = shed_expired_.Value();
  stats.shed_shutdown = shed_shutdown_.Value();
  stats.batches = batches_.Value();
  {
    MutexLock lock(mu_);
    stats.queue_depth = queue_.size();
  }
  return stats;
}

void Server::RecordRejected(const Request& request) {
  const uint64_t now_ns = obs::NowSteadyNs();
  if (options_.slo != nullptr) {
    options_.slo->Record(/*good=*/false, now_ns);
  }
  if (!request.ctx.sampled) return;
  obs::WideEvent event =
      BaseEvent(request.ctx, obs::WideOutcome::kRejected,
                request.options.deadline.has_value(), request.question.size());
  event.total_ns =
      now_ns > event.admit_ns ? now_ns - event.admit_ns : 0;
  event.deadline_budget_ns = BudgetNsAt(request.options.deadline, now_ns);
  obs::WideEvents::Record(event);
}

void Server::CompleteShed(Request* request, Status status,
                          obs::WideOutcome outcome) {
  ServeResponse response;
  response.result.status = std::move(status);
  const auto now = std::chrono::steady_clock::now();
  response.queue_ns = NanosBetween(request->enqueue_time, now);
  const uint64_t now_ns = ToNs(now);
  if (options_.slo != nullptr) {
    options_.slo->Record(/*good=*/false, now_ns);
  }
  if (request->ctx.sampled) {
    // A shed request never entered the pipeline: its whole life was queue
    // wait, and it carries zero stage records by construction.
    obs::WideEvent event = BaseEvent(request->ctx, outcome,
                                     request->options.deadline.has_value(),
                                     request->question.size());
    event.queue_wait_ns = response.queue_ns;
    event.total_ns = response.queue_ns;
    event.deadline_budget_ns = BudgetNsAt(request->options.deadline, now_ns);
    obs::WideEvents::Record(event);
  }
  request->done(std::move(response));
}

void Server::WorkerLoop() {
  std::vector<Request> take;
  for (;;) {
    {
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) {
        ++sleeping_workers_;
        queue_cv_.Wait(mu_);
        --sleeping_workers_;
        if (pending_wakeups_ > 0) --pending_wakeups_;
      }
      // The destructor empties the queue when it sets stopping_.
      if (stopping_) return;
      // Take what is queued now, up to max_batch_size; never wait for more.
      const size_t n = std::min(queue_.size(), options_.max_batch_size);
      for (size_t i = 0; i < n; ++i) {
        take.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      KBQA_GAUGE_SET("online.serve.queue_depth", queue_.size());
    }
    ServeTake(&take);
    take.clear();
  }
}

void Server::ServeTake(std::vector<Request>* take) {
  // Shed pass, before any handler call: a request whose deadline lapsed
  // while queued never reaches the handler and never enters template
  // matching. Outside mu_, since shed callbacks may re-enter Submit.
  const auto take_time = std::chrono::steady_clock::now();
  size_t kept = 0;
  for (size_t i = 0; i < take->size(); ++i) {
    Request& request = (*take)[i];
    if (request.options.deadline && *request.options.deadline <= take_time) {
      shed_expired_.Add(1);
      KBQA_COUNTER_ADD("online.serve.shed_expired", 1);
      CompleteShed(&request,
                   Status::DeadlineExceeded("deadline expired in queue"),
                   obs::WideOutcome::kShedExpired);
    } else {
      if (kept != i) (*take)[kept] = std::move(request);
      ++kept;
    }
  }
  take->resize(kept);
  if (take->empty()) return;

  batches_.Add(1);
  KBQA_COUNTER_ADD("online.serve.batches", 1);
  KBQA_HISTOGRAM_RECORD("online.serve.batch_size", take->size());
  for (Request& request : *take) {
    const auto start = std::chrono::steady_clock::now();
    if (request.ctx.sampled) {
      // Anchor the stage clock at the service-start reading the server
      // already took: stage intervals then live strictly inside
      // [start, end), so their sum can never exceed the service_ns
      // measured from the same readings.
      request.ctx.StartClockAt(ToNs(start));
      request.options.request_context = &request.ctx;
    }
    ServeResponse response;
    response.queue_ns = NanosBetween(request.enqueue_time, take_time);
    response.batch_size = take->size();
    response.result = handler_(request.question, request.options);
    const auto end = std::chrono::steady_clock::now();
    response.service_ns = NanosBetween(start, end);
    completed_.Add(1);
    KBQA_COUNTER_ADD("online.serve.completed", 1);
    KBQA_HISTOGRAM_RECORD("online.serve.queue_wait_ns", response.queue_ns);
    KBQA_HISTOGRAM_RECORD("online.serve.service_ns", response.service_ns);
    KBQA_HISTOGRAM_RECORD("online.serve.latency_ns",
                          response.queue_ns + response.service_ns);
    const Status& st = response.result.status;
    if (options_.slo != nullptr) {
      options_.slo->RecordRequest(
          st.ok(), NanosBetween(request.enqueue_time, end), ToNs(end));
    }
    if (request.ctx.sampled) {
      obs::WideOutcome outcome;
      if (st.ok()) {
        outcome = response.result.answered ? obs::WideOutcome::kAnswered
                                           : obs::WideOutcome::kUnanswered;
      } else if (st.code() == StatusCode::kDeadlineExceeded) {
        outcome = obs::WideOutcome::kDeadlineExceeded;
      } else {
        outcome = obs::WideOutcome::kError;
      }
      obs::WideEvent event =
          BaseEvent(request.ctx, outcome, request.options.deadline.has_value(),
                    request.question.size());
      event.batch_size = static_cast<uint32_t>(take->size());
      event.queue_wait_ns = response.queue_ns;
      event.batch_wait_ns = NanosBetween(take_time, start);
      event.service_ns = response.service_ns;
      event.total_ns = NanosBetween(request.enqueue_time, end);
      // Budget at the decision point: what remained when the shed pass
      // last looked.
      event.deadline_budget_ns =
          BudgetNsAt(request.options.deadline, ToNs(take_time));
      event.StampFrom(request.ctx);
      RecordStageHistograms(request.ctx);
      obs::WideEvents::Record(event);
    }
    request.done(std::move(response));
  }
}

}  // namespace kbqa::serve
