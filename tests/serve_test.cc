// Tests for the serving front door (serve::Server): admission control
// rejects a saturated queue *at Submit* (never enqueue-then-expire),
// requests that expire while queued are shed with kDeadlineExceeded when a
// worker takes them, before the handler — and, engine-backed, before
// template matching (online.answers stays flat) — a worker takes one
// request at a time, so a request is judged against its deadline when the
// worker reaches it, and teardown resolves every accepted callback exactly
// once.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/online.h"
#include "eval/experiment.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/wide_event.h"
#include "serve/exposition.h"
#include "serve/server.h"
#include "util/mutex.h"
#include "util/status.h"

namespace kbqa::serve {
namespace {

uint64_t CounterValue(const obs::MetricsSnapshot& snapshot,
                      std::string_view name) {
  const auto* counter = snapshot.counter(name);
  return counter == nullptr ? 0 : counter->value;
}

uint64_t HistogramCount(const obs::MetricsSnapshot& snapshot,
                        std::string_view name) {
  const auto* histogram = snapshot.histogram(name);
  return histogram == nullptr ? 0 : histogram->count;
}

obs::MetricsSnapshot GlobalSnapshot() {
  return obs::MetricsRegistry::Global().Snapshot();
}

core::AnswerResult EchoResult(const std::string& question) {
  core::AnswerResult result;
  result.answered = true;
  result.value = question;
  return result;
}

/// A handler whose requests block until Open() — the lever for
/// deterministically saturating the queue.
struct GatedHandler {
  Mutex mu;
  CondVar cv;
  bool open GUARDED_BY(mu) = false;
  std::atomic<int> entered{0};

  Server::Handler AsHandler() {
    return [this](const std::string& question, const core::AnswerOptions&) {
      entered.fetch_add(1);
      {
        MutexLock lock(mu);
        while (!open) cv.Wait(mu);
      }
      return EchoResult(question);
    };
  }

  void Open() {
    {
      MutexLock lock(mu);
      open = true;
    }
    cv.NotifyAll();
  }
};

/// Thread-safe collector of completed responses.
struct Collector {
  Mutex mu;
  std::vector<ServeResponse> responses GUARDED_BY(mu);

  Server::Callback Add() {
    return [this](ServeResponse response) {
      MutexLock lock(mu);
      responses.push_back(std::move(response));
    };
  }

  size_t Count() {
    MutexLock lock(mu);
    return responses.size();
  }

  /// Polls for up to 10 s; returns whether `n` responses arrived.
  [[nodiscard]] bool WaitForCount(size_t n) {
    for (int spin = 0; spin < 10000 && Count() < n; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Count() >= n;
  }
};

TEST(ServeTest, AnswerRoundTripsThroughHandler) {
  ServingOptions options;
  options.num_workers = 2;
  Server server(
      [](const std::string& question, const core::AnswerOptions&) {
        return EchoResult(question);
      },
      options);
  ServeResponse response = server.Answer("who is the spouse of alice?");
  EXPECT_TRUE(response.result.status.ok());
  EXPECT_EQ(response.result.value, "who is the spouse of alice?");
  EXPECT_EQ(response.batch_size, 1u);
  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(ServeTest, SaturatedQueueRejectsAtAdmissionNotEnqueueThenExpire) {
  GatedHandler gate;
  ServingOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 2;
  // A generous deadline: a wrongly-enqueued overflow request would sit in
  // the queue and eventually come back kDeadlineExceeded instead of the
  // immediate kUnavailable this test demands.
  options.default_timeout = std::chrono::seconds(30);
  Server server(gate.AsHandler(), options);
  Collector accepted;

  // R0 occupies the only worker (handler gated); wait until the worker has
  // taken it, so R1+R2 deterministically fill the queue.
  ASSERT_TRUE(server.Submit("r0", accepted.Add()).ok());
  while (gate.entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(server.Submit("r1", accepted.Add()).ok());
  ASSERT_TRUE(server.Submit("r2", accepted.Add()).ok());
  ASSERT_EQ(server.stats().queue_depth, 2u);

  // Queue full: R3 must be rejected *now*, with kUnavailable, and its
  // callback must never run.
  std::atomic<bool> rejected_callback_ran{false};
  Status rejected = server.Submit(
      "r3", [&](ServeResponse) { rejected_callback_ran = true; });
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
  EXPECT_EQ(server.stats().rejected, 1u);

  gate.Open();
  ASSERT_TRUE(accepted.WaitForCount(3));
  ASSERT_EQ(accepted.Count(), 3u);
  {
    MutexLock lock(accepted.mu);
    for (const ServeResponse& response : accepted.responses) {
      // Never kDeadlineExceeded: admission control pushed back instead of
      // letting requests rot in the queue.
      EXPECT_TRUE(response.result.status.ok())
          << response.result.status.ToString();
    }
  }
  EXPECT_FALSE(rejected_callback_ran.load());
  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.shed_expired, 0u);
}

TEST(ServeTest, ExpiredInQueueIsShedWithoutInvokingHandler) {
  const obs::MetricsSnapshot before = GlobalSnapshot();
  GatedHandler gate;
  ServingOptions options;
  options.num_workers = 1;
  Server server(gate.AsHandler(), options);
  Collector collector;

  ASSERT_TRUE(server.Submit("r0", collector.Add()).ok());
  while (gate.entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // R1 and R2 with deadlines that lapse while they wait behind R0. The
  // worker sheds them when it takes them, once R0 is done.
  core::AnswerOptions expired;
  expired.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  ASSERT_TRUE(server.Submit("r1", expired, collector.Add()).ok());
  ASSERT_TRUE(server.Submit("r2", expired, collector.Add()).ok());
  std::this_thread::sleep_until(*expired.deadline);
  gate.Open();
  ASSERT_TRUE(collector.WaitForCount(3));
  ASSERT_EQ(collector.Count(), 3u);
  size_t shed = 0;
  {
    MutexLock lock(collector.mu);
    for (const ServeResponse& response : collector.responses) {
      if (response.result.status.ok()) {
        EXPECT_EQ(response.result.value, "r0");
        continue;
      }
      ++shed;
      EXPECT_EQ(response.result.status.code(),
                StatusCode::kDeadlineExceeded);
      EXPECT_FALSE(response.result.answered);
      EXPECT_EQ(response.service_ns, 0u);  // never entered the handler
    }
  }
  EXPECT_EQ(shed, 2u);
  EXPECT_EQ(gate.entered.load(), 1);  // only R0
  EXPECT_EQ(server.stats().shed_expired, 2u);
  EXPECT_EQ(server.stats().completed, 1u);
  const obs::MetricsSnapshot after = GlobalSnapshot();
  EXPECT_EQ(CounterValue(after, "online.serve.shed_expired") -
                CounterValue(before, "online.serve.shed_expired"),
            2u);
}

// A worker takes one request at a time, so a request queued behind another
// is judged against its deadline when the worker reaches it: r1 is still
// live when the worker takes r0, and has expired by the time r0 is done.
// Runs in about 0.2 s.
TEST(ServeTest, RequestExpiringBehindAnotherIsShedWithoutInvokingHandler) {
  GatedHandler gate;
  const Server::Handler hold = gate.AsHandler();
  // Generous, so that r1 is still live when the worker takes r0 even under
  // the sanitizers.
  const auto r1_deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  std::atomic<int> handled{0};
  Collector collector;
  ServingOptions options;
  options.num_workers = 1;
  Server server(
      [&](const std::string& question,
          const core::AnswerOptions& answer_options) {
        handled.fetch_add(1);
        if (question == "hold") return hold(question, answer_options);
        std::this_thread::sleep_until(r1_deadline);  // r0 outlasts r1's budget
        return EchoResult(question);
      },
      options);

  // "hold" keeps the worker busy while r0 and r1 queue behind it.
  ASSERT_TRUE(server.Submit("hold", collector.Add()).ok());
  while (gate.entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(server.Submit("r0", collector.Add()).ok());
  core::AnswerOptions expiring;
  expiring.deadline = r1_deadline;
  ASSERT_TRUE(server.Submit("r1", expiring, collector.Add()).ok());
  gate.Open();
  ASSERT_TRUE(collector.WaitForCount(3));

  EXPECT_EQ(handled.load(), 2);  // hold and r0: never r1
  {
    MutexLock lock(collector.mu);
    ASSERT_EQ(collector.responses.size(), 3u);
    EXPECT_EQ(collector.responses[0].result.value, "hold");
    EXPECT_EQ(collector.responses[1].result.value, "r0");
    const ServeResponse& shed = collector.responses[2];
    EXPECT_EQ(shed.result.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_FALSE(shed.result.answered);
    EXPECT_EQ(shed.service_ns, 0u);
    EXPECT_EQ(shed.batch_size, 0u);
  }
  EXPECT_EQ(server.stats().shed_expired, 1u);
  EXPECT_EQ(server.stats().completed, 2u);
}

TEST(ServeTest, DefaultTimeoutBecomesRequestDeadline) {
  std::atomic<bool> saw_deadline{false};
  ServingOptions options;
  options.default_timeout = std::chrono::seconds(30);
  Server server(
      [&](const std::string& question, const core::AnswerOptions& opts) {
        saw_deadline = opts.deadline.has_value();
        return EchoResult(question);
      },
      options);
  ServeResponse response = server.Answer("q");
  EXPECT_TRUE(response.result.status.ok());
  EXPECT_TRUE(saw_deadline.load());
}

TEST(ServeTest, DestructionResolvesEveryAcceptedCallbackExactlyOnce) {
  GatedHandler gate;
  Collector collector;
  std::thread opener;
  {
    ServingOptions options;
    options.num_workers = 1;
    Server server(gate.AsHandler(), options);
    ASSERT_TRUE(server.Submit("r0", collector.Add()).ok());
    while (gate.entered.load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (int i = 1; i <= 3; ++i) {
      ASSERT_TRUE(
          server.Submit("r" + std::to_string(i), collector.Add()).ok());
    }
    // Tear down with the worker still gated; open the gate mid-teardown.
    opener = std::thread([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      gate.Open();
    });
    // ~Server: stops admission, sheds what is still queued, then joins
    // the worker, which finishes the request it took.
  }
  opener.join();
  ASSERT_EQ(collector.Count(), 4u);
  size_t ok = 0, unavailable = 0;
  {
    MutexLock lock(collector.mu);
    for (const ServeResponse& response : collector.responses) {
      if (response.result.status.ok()) {
        ++ok;
      } else if (response.result.status.code() ==
                 StatusCode::kUnavailable) {
        ++unavailable;
      }
    }
  }
  EXPECT_EQ(ok + unavailable, 4u);
  EXPECT_EQ(ok, 1u);           // r0 was in the handler, it completes
  EXPECT_EQ(unavailable, 3u);  // the whole queue is shed
}

TEST(ServeTest, SubmitAfterShutdownStartsIsRejected) {
  // Destruction is covered above; here a still-live server that has begun
  // stopping must reject instead of accepting work it will never run.
  // (Modeled via queue-full + stopping in one: simplest observable is the
  // blocking Answer wrapper mapping a rejection into its result.)
  GatedHandler gate;
  ServingOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 1;
  Server server(gate.AsHandler(), options);
  Collector collector;
  ASSERT_TRUE(server.Submit("r0", collector.Add()).ok());
  while (gate.entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(server.Submit("r1", collector.Add()).ok());
  // Queue (depth 1) holds r1: a blocking Answer must come back rejected,
  // not deadlock waiting behind a full queue.
  ServeResponse rejected = server.Answer("r2");
  EXPECT_EQ(rejected.result.status.code(), StatusCode::kUnavailable);
  gate.Open();
  ASSERT_TRUE(collector.WaitForCount(2));
  EXPECT_EQ(collector.Count(), 2u);
}

// ---------- Wide events (DESIGN.md §8) ----------

size_t CountOutcome(const std::vector<obs::WideEvent>& events,
                    obs::WideOutcome outcome) {
  size_t n = 0;
  for (const obs::WideEvent& e : events) n += e.outcome == outcome ? 1 : 0;
  return n;
}

TEST(WideEventServeTest, EveryServedOutcomeEmitsExactlyOneEvent) {
  obs::WideEvents::ResetForTest();
  ServingOptions options;
  options.num_workers = 2;
  Collector collector;
  {
    Server server(
        [](const std::string& question, const core::AnswerOptions&) {
          core::AnswerResult result;
          if (question == "ok") {
            result.answered = true;
          } else if (question == "late") {
            result.status = Status::DeadlineExceeded("clipped");
          } else if (question == "boom") {
            result.status = Status::Internal("handler failure");
          }
          return result;  // "none": ok status, unanswered
        },
        options);
    for (const char* q : {"ok", "none", "late", "boom"}) {
      ASSERT_TRUE(server.Submit(q, collector.Add()).ok());
    }
    ASSERT_TRUE(collector.WaitForCount(4));
  }
  const std::vector<obs::WideEvent> events = obs::WideEvents::Drain();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(CountOutcome(events, obs::WideOutcome::kAnswered), 1u);
  EXPECT_EQ(CountOutcome(events, obs::WideOutcome::kUnanswered), 1u);
  EXPECT_EQ(CountOutcome(events, obs::WideOutcome::kDeadlineExceeded), 1u);
  EXPECT_EQ(CountOutcome(events, obs::WideOutcome::kError), 1u);
  std::vector<uint64_t> trace_ids;
  for (const obs::WideEvent& e : events) {
    EXPECT_NE(e.trace_id, 0u);
    trace_ids.push_back(e.trace_id);
    // The latency decomposition invariants: stage sums live inside the
    // handler's service time, and queue + service is the end-to-end total
    // (the take's one clock read ends the one and starts the other).
    EXPECT_LE(e.StageNsSum(), e.service_ns);
    EXPECT_EQ(e.queue_wait_ns + e.service_ns, e.total_ns);
    EXPECT_GT(e.total_ns, 0u);
    EXPECT_FALSE(e.has_deadline);
  }
  std::sort(trace_ids.begin(), trace_ids.end());
  EXPECT_EQ(std::unique(trace_ids.begin(), trace_ids.end()),
            trace_ids.end());
}

// Satellite: a request shed while queued must carry its queue wait, zero
// stage records (it never entered the pipeline), and outcome=shed_expired.
TEST(WideEventServeTest, InQueueShedCarriesQueueWaitAndZeroStages) {
  obs::WideEvents::ResetForTest();
  GatedHandler gate;
  ServingOptions options;
  options.num_workers = 1;
  Collector collector;
  {
    Server server(gate.AsHandler(), options);
    ASSERT_TRUE(server.Submit("r0", collector.Add()).ok());
    while (gate.entered.load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    core::AnswerOptions expired;
    expired.deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
    ASSERT_TRUE(server.Submit("r1", expired, collector.Add()).ok());
    std::this_thread::sleep_until(*expired.deadline);
    gate.Open();
    ASSERT_TRUE(collector.WaitForCount(2));
  }
  EXPECT_EQ(gate.entered.load(), 1);  // r1 never entered the handler
  const std::vector<obs::WideEvent> events = obs::WideEvents::Drain();
  ASSERT_EQ(events.size(), 2u);
  ASSERT_EQ(CountOutcome(events, obs::WideOutcome::kShedExpired), 1u);
  for (const obs::WideEvent& e : events) {
    if (e.outcome != obs::WideOutcome::kShedExpired) continue;
    EXPECT_GT(e.queue_wait_ns, 0u);
    EXPECT_EQ(e.service_ns, 0u);
    EXPECT_EQ(e.total_ns, e.queue_wait_ns);
    EXPECT_TRUE(e.has_deadline);
    EXPECT_LE(e.deadline_budget_ns, 0);  // it was shed *because* it expired
    EXPECT_EQ(e.StageNsSum(), 0u);
    for (const obs::StageRecord& stage : e.stages) {
      EXPECT_EQ(stage.count, 0u);
    }
  }
}

// Satellite: an admission-rejected request — whose callback never runs —
// still produces exactly one wide event, tagged rejected.
TEST(WideEventServeTest, AdmissionRejectionEmitsRejectedEvent) {
  obs::WideEvents::ResetForTest();
  GatedHandler gate;
  ServingOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 1;
  Collector collector;
  std::atomic<bool> rejected_callback_ran{false};
  {
    Server server(gate.AsHandler(), options);
    ASSERT_TRUE(server.Submit("r0", collector.Add()).ok());
    while (gate.entered.load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(server.Submit("r1", collector.Add()).ok());
    const Status rejected = server.Submit(
        "overflow", [&](ServeResponse) { rejected_callback_ran = true; });
    ASSERT_EQ(rejected.code(), StatusCode::kUnavailable);
    gate.Open();
    ASSERT_TRUE(collector.WaitForCount(2));
  }
  EXPECT_FALSE(rejected_callback_ran.load());
  const std::vector<obs::WideEvent> events = obs::WideEvents::Drain();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(CountOutcome(events, obs::WideOutcome::kAnswered), 2u);
  ASSERT_EQ(CountOutcome(events, obs::WideOutcome::kRejected), 1u);
  for (const obs::WideEvent& e : events) {
    if (e.outcome != obs::WideOutcome::kRejected) continue;
    EXPECT_EQ(e.question_bytes, std::string("overflow").size());
    EXPECT_EQ(e.service_ns, 0u);
    EXPECT_EQ(e.StageNsSum(), 0u);
  }
}

TEST(WideEventServeTest, ShutdownShedsEmitShedShutdownEvents) {
  obs::WideEvents::ResetForTest();
  GatedHandler gate;
  Collector collector;
  std::thread opener;
  {
    ServingOptions options;
    options.num_workers = 1;
    Server server(gate.AsHandler(), options);
    ASSERT_TRUE(server.Submit("r0", collector.Add()).ok());
    while (gate.entered.load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (int i = 1; i <= 3; ++i) {
      ASSERT_TRUE(
          server.Submit("r" + std::to_string(i), collector.Add()).ok());
    }
    opener = std::thread([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      gate.Open();
    });
  }
  opener.join();
  ASSERT_EQ(collector.Count(), 4u);
  // Exactly one event per accepted request, split between served and
  // shutdown-shed exactly as the callbacks were.
  size_t ok = 0;
  {
    MutexLock lock(collector.mu);
    for (const ServeResponse& response : collector.responses) {
      ok += response.result.status.ok() ? 1 : 0;
    }
  }
  EXPECT_EQ(ok, 1u);
  const std::vector<obs::WideEvent> events = obs::WideEvents::Drain();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(CountOutcome(events, obs::WideOutcome::kAnswered), 1u);
  EXPECT_EQ(CountOutcome(events, obs::WideOutcome::kShedShutdown), 3u);
}

TEST(WideEventServeTest, SamplePeriodZeroSuppressesAllEvents) {
  obs::WideEvents::ResetForTest();
  obs::WideEvents::SetSamplePeriod(0);
  ServingOptions options;
  Server server(
      [](const std::string& question, const core::AnswerOptions&) {
        return EchoResult(question);
      },
      options);
  EXPECT_TRUE(server.Answer("q").result.status.ok());
  EXPECT_TRUE(obs::WideEvents::Drain().empty());
  obs::WideEvents::SetSamplePeriod(1);
}

/// Samples each online.stage.*_ns histogram gained between two snapshots,
/// in WideStage order.
std::vector<uint64_t> StageSamplesAdded(const obs::MetricsSnapshot& before,
                                        const obs::MetricsSnapshot& after) {
  std::vector<uint64_t> added;
  for (size_t s = 0; s < obs::kWideStageCount; ++s) {
    const std::string name =
        std::string("online.stage.") + obs::WideStageName(s) + "_ns";
    added.push_back(HistogramCount(after, name) -
                    HistogramCount(before, name));
  }
  return added;
}

// The stage histograms take one sample per stage each served request
// entered, so they stay exact past the point where the wide-event ring has
// overwritten its oldest rows.
TEST(StageHistogramServeTest, CountsEveryServedRequestPastTheRing) {
  obs::SetEnabled(true);
  obs::WideEvents::ResetForTest();
  constexpr size_t kRequests = obs::WideEvents::kRingCapacity + 512;
  ServingOptions options;
  options.num_workers = 1;
  const obs::MetricsSnapshot before = GlobalSnapshot();
  {
    Server server(
        [](const std::string& question,
           const core::AnswerOptions& answer_options) {
          obs::RequestContext* const ctx = answer_options.request_context;
          if (ctx != nullptr) {
            ctx->Mark(obs::WideStage::kNer);
            ctx->Mark(obs::WideStage::kTemplateMatch);
            ctx->Mark(obs::WideStage::kRank);
          }
          return EchoResult(question);
        },
        options);
    for (size_t i = 0; i < kRequests; ++i) {
      ASSERT_TRUE(server.Answer("q").result.status.ok());
    }
  }
  EXPECT_EQ(StageSamplesAdded(before, GlobalSnapshot()),
            (std::vector<uint64_t>{kRequests, 0, kRequests, 0, 0, kRequests}));
  EXPECT_LE(obs::WideEvents::Drain().size(),
            obs::WideEvents::kRingCapacity);
}

TEST(StageHistogramServeTest, RequestThatEntersNoStageAddsNoSample) {
  obs::SetEnabled(true);
  obs::WideEvents::ResetForTest();
  const obs::MetricsSnapshot before = GlobalSnapshot();
  {
    Server server(
        [](const std::string& question, const core::AnswerOptions&) {
          return EchoResult(question);
        },
        ServingOptions{});
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(server.Answer("q").result.status.ok());
    }
  }
  EXPECT_EQ(StageSamplesAdded(before, GlobalSnapshot()),
            std::vector<uint64_t>(obs::kWideStageCount, 0));
  EXPECT_EQ(obs::WideEvents::Drain().size(), 16u);
}

TEST(SloServeTest, TerminalOutcomesFeedTheSloMonitorUnsampled) {
  obs::WideEvents::ResetForTest();
  // Sampling off: SLO accounting must still see every terminal outcome.
  obs::WideEvents::SetSamplePeriod(0);
  obs::SloSpec spec;
  spec.latency_threshold_ns = 0;  // no latency criterion in this test
  obs::SloMonitor slo(spec);
  GatedHandler gate;
  ServingOptions options;
  options.num_workers = 1;
  options.slo = &slo;
  Collector collector;
  {
    Server server(gate.AsHandler(), options);
    ASSERT_TRUE(server.Submit("r0", collector.Add()).ok());
    while (gate.entered.load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    core::AnswerOptions expired;
    expired.deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
    ASSERT_TRUE(server.Submit("r1", expired, collector.Add()).ok());
    std::this_thread::sleep_until(*expired.deadline);  // r1 expires queued
    gate.Open();
    ASSERT_TRUE(collector.WaitForCount(2));
  }
  obs::WideEvents::SetSamplePeriod(1);
  EXPECT_EQ(slo.TotalGood(), 1u);  // r0 served OK
  EXPECT_EQ(slo.TotalBad(), 1u);   // r1 shed
}

// ---------- Exposition endpoints ----------

TEST(ExpositionServerTest, HandlePathRoutesAllEndpoints) {
  obs::WideEvents::ResetForTest();
  obs::MetricsRegistry::Global().GetCounter("serve.exposition.probe")->Add(1);
  obs::WideEvent e;
  e.trace_id = 99;
  e.outcome = obs::WideOutcome::kAnswered;
  obs::WideEvents::Record(e);
  obs::SloMonitor slo(obs::SloSpec{});
  slo.Record(true, obs::NowSteadyNs());
  ExpositionOptions options;
  options.slo = &slo;
  options.statusz_extra = [](std::string* out) { *out += "extra: yes\n"; };

  int status = 0;
  std::string type;
  std::string body =
      ExpositionServer::HandlePath(options, "/", &status, &type);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("/metricsz"), std::string::npos);

  body = ExpositionServer::HandlePath(options, "/metricsz", &status, &type);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("serve.exposition.probe"), std::string::npos);
  body = ExpositionServer::HandlePath(options, "/metricsz?format=json",
                                      &status, &type);
  EXPECT_EQ(type, "application/json");
  EXPECT_NE(body.find("\"counters\""), std::string::npos);

  body = ExpositionServer::HandlePath(options, "/statusz", &status, &type);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("build.compiler"), std::string::npos);
  EXPECT_NE(body.find("uptime_s"), std::string::npos);
  EXPECT_NE(body.find("process.resident_bytes"), std::string::npos);
  EXPECT_NE(body.find("extra: yes"), std::string::npos);

  body = ExpositionServer::HandlePath(options, "/eventz?n=5", &status, &type);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"trace_id\":99"), std::string::npos);

  body = ExpositionServer::HandlePath(options, "/slo", &status, &type);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"short_burn_rate\""), std::string::npos);
  EXPECT_NE(body.find("\"firing\":false"), std::string::npos);

  body = ExpositionServer::HandlePath(options, "/nosuch", &status, &type);
  EXPECT_EQ(status, 404);

  // Without an SLO monitor attached, /slo 404s instead of crashing.
  ExpositionOptions bare;
  body = ExpositionServer::HandlePath(bare, "/slo", &status, &type);
  EXPECT_EQ(status, 404);
}

TEST(ExpositionServerTest, ServesHttpOverARealSocket) {
  ExpositionOptions options;
  options.port = 0;  // ephemeral
  auto started = ExpositionServer::Start(options);
  ASSERT_TRUE(started.ok()) << started.status();
  std::unique_ptr<ExpositionServer> server = std::move(started).value();
  ASSERT_GT(server->port(), 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server->port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request = "GET /statusz HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[1024];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("build.compiler"), std::string::npos);
  EXPECT_EQ(server->requests_served(), 1u);
}

/// Connects a TCP socket to 127.0.0.1:`port`; -1 on failure. Reads on it
/// give up after 10 s — far past the server's per-connection deadline — so
/// a server that waits on a stuck client forever fails the tests below
/// instead of hanging them. `rcvbuf` > 0 shrinks the receive buffer.
int ConnectLoopback(int port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval timeout{};
  timeout.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendRequest(int fd, const std::string& path) {
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  return ::send(fd, request.data(), request.size(), 0) ==
         static_cast<ssize_t>(request.size());
}

/// One GET over a fresh connection; returns whatever arrived before the
/// server closed it or the read timed out.
std::string Scrape(int port, const std::string& path) {
  const int fd = ConnectLoopback(port);
  if (fd < 0 || !SendRequest(fd, path)) return "";
  std::string response;
  char buf[1024];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(ExpositionServerTest, IdleConnectionDoesNotBlockLaterScrapes) {
  auto started = ExpositionServer::Start(ExpositionOptions{});
  ASSERT_TRUE(started.ok()) << started.status();
  std::unique_ptr<ExpositionServer> server = std::move(started).value();

  // Connects and never sends a byte.
  const int idle = ConnectLoopback(server->port());
  ASSERT_GE(idle, 0);
  const std::string response = Scrape(server->port(), "/statusz");
  // The server closed the idle connection at its deadline: end of stream.
  char byte;
  EXPECT_EQ(::recv(idle, &byte, 1, 0), 0);
  ::close(idle);  // also frees a server that waits on it, so teardown ends
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos)
      << "scrape blocked behind an idle connection";
  EXPECT_EQ(server->requests_served(), 1u);
}

TEST(ExpositionServerTest, ClientThatNeverReadsDoesNotBlockLaterScrapes) {
  obs::WideEvents::ResetForTest();
  // A full ring (about 4 MB of /eventz JSONL) overflows the socket buffers
  // of a client that never reads its response.
  for (uint64_t i = 0; i < obs::WideEvents::kRingCapacity; ++i) {
    obs::WideEvent e;
    e.trace_id = i + 1;
    obs::WideEvents::Record(e);
  }
  auto started = ExpositionServer::Start(ExpositionOptions{});
  ASSERT_TRUE(started.ok()) << started.status();
  std::unique_ptr<ExpositionServer> server = std::move(started).value();

  const int stuck = ConnectLoopback(server->port(), /*rcvbuf=*/4096);
  ASSERT_GE(stuck, 0);
  ASSERT_TRUE(SendRequest(stuck, "/eventz?n=8192"));
  const std::string response = Scrape(server->port(), "/statusz");
  ::close(stuck);  // also frees a server blocked sending to it
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos)
      << "scrape blocked behind a client that never reads";
}

TEST(ExpositionServerTest, TeardownWakesAcceptThreadOnIdleConnection) {
  auto started = ExpositionServer::Start(ExpositionOptions{});
  ASSERT_TRUE(started.ok()) << started.status();
  std::unique_ptr<ExpositionServer> server = std::move(started).value();
  const int idle = ConnectLoopback(server->port());
  ASSERT_GE(idle, 0);
  // Let the accept thread take the idle connection and wait on it.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::promise<void> torn_down;
  std::future<void> done = torn_down.get_future();
  std::thread teardown([&] {
    server.reset();
    torn_down.set_value();
  });
  // Well inside the receive deadline: teardown must wake the thread, not
  // wait the idle client out.
  const bool woke =
      done.wait_for(std::chrono::seconds(1)) == std::future_status::ready;
  ::close(idle);  // frees a server that waits on the idle client
  teardown.join();
  EXPECT_TRUE(woke) << "teardown blocked on an idle connection";
}

// ---------- Engine-backed (Small experiment) ----------

class ServeEngineTest : public ::testing::Test {
 protected:
  static const eval::Experiment& experiment() {
    static const eval::Experiment* const kExperiment = [] {
      auto built = eval::Experiment::Build(eval::ExperimentConfig::Small());
      if (!built.ok()) {
        ADD_FAILURE() << built.status();
        return static_cast<eval::Experiment*>(nullptr);
      }
      return const_cast<eval::Experiment*>(
          std::move(built).value().release());
    }();
    return *kExperiment;
  }

  static std::unique_ptr<core::OnlineInference> MakeEngine() {
    const core::KbqaSystem& kbqa = experiment().kbqa();
    core::OnlineInference::Options options = kbqa.options().online;
    options.enable_answer_cache = true;
    return std::make_unique<core::OnlineInference>(
        &experiment().world().kb, &experiment().world().taxonomy,
        &kbqa.ner(), &kbqa.template_store(), &kbqa.expanded_kb().paths(),
        options);
  }

  static std::string SomeQuestion() {
    return experiment().train_corpus().pairs.front().question;
  }
};

TEST_F(ServeEngineTest, ServesRealQuestionsThroughAnswerCached) {
  auto engine = MakeEngine();
  ServingOptions options;
  options.num_workers = 2;
  auto server = Server::ForEngine(engine.get(), options);
  const std::string question = SomeQuestion();
  ServeResponse response = server->Answer(question);
  EXPECT_TRUE(response.result.status.ok());
  core::AnswerResult direct = engine->Answer(question);
  EXPECT_EQ(response.result.answered, direct.answered);
  EXPECT_EQ(response.result.value, direct.value);
}

TEST_F(ServeEngineTest, QueueExpiredRequestNeverEntersTemplateMatching) {
  auto engine = MakeEngine();
  ServingOptions options;
  options.num_workers = 1;
  auto server = Server::ForEngine(engine.get(), options);
  // Warm: prove the pipeline counters move for a served request...
  const obs::MetricsSnapshot before_served = GlobalSnapshot();
  ServeResponse served = server->Answer(SomeQuestion());
  EXPECT_TRUE(served.result.status.ok());
  const obs::MetricsSnapshot after_served = GlobalSnapshot();
  EXPECT_EQ(CounterValue(after_served, "online.answers") -
                CounterValue(before_served, "online.answers"),
            1u);

  // ...then an already-expired request: shed in the serving layer, so the
  // engine's stage counters must not move at all — it never reaches
  // template matching (or NER, or anything else).
  core::AnswerOptions expired;
  expired.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  ServeResponse shed = server->Answer(SomeQuestion(), expired);
  EXPECT_EQ(shed.result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(shed.result.answered);
  const obs::MetricsSnapshot after_shed = GlobalSnapshot();
  EXPECT_EQ(CounterValue(after_shed, "online.answers"),
            CounterValue(after_served, "online.answers"));
  EXPECT_EQ(CounterValue(after_shed, "online.deadline_exceeded"),
            CounterValue(after_served, "online.deadline_exceeded"));
  EXPECT_EQ(CounterValue(after_shed, "online.serve.shed_expired") -
                CounterValue(after_served, "online.serve.shed_expired"),
            1u);
  EXPECT_EQ(server->stats().shed_expired, 1u);
}

TEST_F(ServeEngineTest, EngineStampsStageRecordsIntoWideEvent) {
  obs::WideEvents::ResetForTest();
  auto engine = MakeEngine();
  ServingOptions options;
  options.num_workers = 1;
  auto server = Server::ForEngine(engine.get(), options);
  ServeResponse response = server->Answer(SomeQuestion());
  ASSERT_TRUE(response.result.status.ok());
  server.reset();
  const std::vector<obs::WideEvent> events = obs::WideEvents::Drain();
  ASSERT_EQ(events.size(), 1u);
  const obs::WideEvent& e = events.front();
  EXPECT_EQ(e.outcome, response.result.answered
                           ? obs::WideOutcome::kAnswered
                           : obs::WideOutcome::kUnanswered);
  // The engine anchored the stage clock at the server's service-start read
  // and stamped the pipeline stages: NER always runs, the candidate walk
  // closes with a template_match mark, and the stage sum fits inside the
  // service time measured on the same clock.
  EXPECT_GE(
      e.stages[static_cast<size_t>(obs::WideStage::kNer)].count, 1u);
  EXPECT_GE(
      e.stages[static_cast<size_t>(obs::WideStage::kTemplateMatch)].count,
      1u);
  EXPECT_GT(e.StageNsSum(), 0u);
  EXPECT_LE(e.StageNsSum(), e.service_ns);
  EXPECT_EQ(e.service_ns, response.service_ns);
  // First ask through a fresh engine: one whole-question memo miss.
  EXPECT_EQ(e.answer_cache_misses, 1u);
  EXPECT_EQ(e.answer_cache_hits, 0u);
}

}  // namespace
}  // namespace kbqa::serve
