// Open-loop serving load harness (tpccbench-style driven benchmark) for
// the serve::Server front door. Arrivals are generated at a target rate
// (Poisson or fixed-gap) decoupled from completions, the question mix is
// Zipfian-skewed over a benchmark pool, and latency is measured from each
// request's *scheduled* arrival time so queueing delay is never hidden by
// a slow submitter (no coordinated omission); how late the submitters ran
// behind that schedule is reported per phase as generator lag. Three
// phases:
//
//   1. capacity  — the bare engine on one thread, then closed-loop
//                  saturation through the server
//   2. steady    — open loop below saturation: throughput must track the
//                  offered rate, p50/p99/p999 reported split into
//                  queue-wait vs service time
//   3. overload  — open loop at ~3x capacity against a tiny queue with a
//                  deadline: admission control must reject (kUnavailable)
//                  and expired queue residents must be shed
//
// Emits BENCH_serving.json. --smoke runs the Small experiment with short
// phases for CI.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/online.h"
#include "corpus/qa_generator.h"
#include "eval/experiment.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/wide_event.h"
#include "serve/exposition.h"
#include "serve/server.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace kbqa;
using Clock = std::chrono::steady_clock;

struct Args {
  double target_qps = 0;  // 0 = auto: 70% of estimated capacity
  double duration_s = 10;
  double zipf_s = 0.99;
  int threads = 2;  // open-loop submitter threads
  int workers = 0;  // server worker threads; 0 = hardware concurrency
  bool poisson = true;
  bool smoke = false;
  int obs_port = -1;       // >= 0: start the exposition listener (0 = ephemeral)
  int obs_sample = 1;      // wide-event sample period (0 = off, k = 1-in-k)
  std::string obs_events;  // drain wide events to this JSONL path at exit
};

/// Nanoseconds from `from` to `to`; 0 if `to` is not later.
uint64_t NanosBetween(Clock::time_point from, Clock::time_point to) {
  return to > from ? static_cast<uint64_t>(
                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                             to - from)
                             .count())
                   : 0;
}

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    std::exit(1);
  }
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    double v = 0;
    if (std::sscanf(arg, "--target_qps=%lf", &v) == 1) {
      args.target_qps = v;
    } else if (std::sscanf(arg, "--duration_s=%lf", &v) == 1) {
      args.duration_s = v;
    } else if (std::sscanf(arg, "--zipf_s=%lf", &v) == 1) {
      args.zipf_s = v;
    } else if (std::sscanf(arg, "--threads=%lf", &v) == 1) {
      args.threads = static_cast<int>(v);
    } else if (std::sscanf(arg, "--workers=%lf", &v) == 1) {
      args.workers = static_cast<int>(v);
    } else if (std::strcmp(arg, "--arrival=poisson") == 0) {
      args.poisson = true;
    } else if (std::strcmp(arg, "--arrival=fixed") == 0) {
      args.poisson = false;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      args.smoke = true;
    } else if (std::sscanf(arg, "--obs-port=%lf", &v) == 1) {
      args.obs_port = static_cast<int>(v);
    } else if (std::sscanf(arg, "--obs-sample=%lf", &v) == 1) {
      args.obs_sample = static_cast<int>(v);
    } else if (std::strncmp(arg, "--obs-events=", 13) == 0) {
      args.obs_events = arg + 13;
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nusage: bench_serving [--target_qps=N] "
                   "[--duration_s=N] [--zipf_s=N] [--threads=N] [--workers=N] "
                   "[--arrival=poisson|fixed] [--smoke] [--obs-port=N] "
                   "[--obs-sample=N] [--obs-events=PATH]\n",
                   arg);
      std::exit(2);
    }
  }
  if (args.threads < 1) args.threads = 1;
  return args;
}

/// The outcome of one load phase.
struct RunResult {
  uint64_t offered = 0;  // Submit attempts
  serve::ServingStats stats;
  double wall_s = 0;
  double throughput_qps = 0;  // completed / wall
  bench::LatencyReservoir total;    // scheduled arrival -> callback
  bench::LatencyReservoir queue;    // ServeResponse::queue_ns
  bench::LatencyReservoir service;  // ServeResponse::service_ns
  bench::LatencyReservoir lag;      // actual - scheduled send, per Submit
};

/// Drives `server` open-loop: `threads` submitters each generate arrivals
/// at rate qps/threads (exponential or fixed gaps), sleep until each
/// scheduled instant, and fire an async Submit. Completion callbacks (on
/// server worker threads) record latencies into mutex-guarded reservoirs.
/// Each submitter also records how late it sent each request: a submitter
/// that falls behind the offered rate shows up there, not only in `total`.
RunResult RunOpenLoop(serve::Server& server,
                      const std::vector<std::string>& pool, double qps,
                      double duration_s, double zipf_s, int threads,
                      bool poisson, uint64_t seed) {
  RunResult result;
  Mutex record_mu;
  std::atomic<uint64_t> offered{0};
  std::atomic<int64_t> outstanding{0};

  const auto run_start = Clock::now();
  const auto run_end =
      run_start + std::chrono::nanoseconds(
                      static_cast<int64_t>(duration_s * 1e9));
  const double thread_qps = qps / threads;

  std::vector<std::thread> submitters;
  submitters.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(seed + static_cast<uint64_t>(t) * 7919);
      ZipfianGenerator zipf(pool.size(), zipf_s);
      bench::LatencyReservoir lag;
      auto next_arrival = run_start;
      while (next_arrival < run_end) {
        const double gap_s =
            poisson ? -std::log(1.0 - rng.UniformDouble()) / thread_qps
                    : 1.0 / thread_qps;
        next_arrival += std::chrono::nanoseconds(
            static_cast<int64_t>(gap_s * 1e9));
        if (next_arrival >= run_end) break;
        std::this_thread::sleep_until(next_arrival);
        const std::string& question = pool[zipf.Sample(rng)];
        offered.fetch_add(1, std::memory_order_relaxed);
        outstanding.fetch_add(1, std::memory_order_relaxed);
        const auto scheduled = next_arrival;
        lag.Record(NanosBetween(scheduled, Clock::now()));
        Status admitted = server.Submit(
            question, core::AnswerOptions{},
            [&, scheduled](serve::ServeResponse response) {
              const uint64_t total_ns = NanosBetween(scheduled, Clock::now());
              {
                MutexLock lock(record_mu);
                result.total.Record(total_ns);
                result.queue.Record(response.queue_ns);
                result.service.Record(response.service_ns);
              }
              outstanding.fetch_sub(1, std::memory_order_relaxed);
            });
        if (!admitted.ok()) {
          // Rejected at admission: backpressure, no callback coming.
          outstanding.fetch_sub(1, std::memory_order_relaxed);
        }
      }
      MutexLock lock(record_mu);
      result.lag.Merge(lag);
    });
  }
  for (std::thread& thread : submitters) thread.join();
  // Drain: every accepted request resolves (completed or shed).
  while (outstanding.load(std::memory_order_relaxed) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  result.wall_s = std::chrono::duration<double>(Clock::now() - run_start)
                      .count();
  result.offered = offered.load();
  result.stats = server.stats();
  result.throughput_qps =
      static_cast<double>(result.stats.completed) / result.wall_s;
  return result;
}

/// Closed-loop saturation throughput: `threads` blocking callers hammer
/// the server for `duration_s`. Returns completed QPS.
double RunClosedLoop(serve::Server& server,
                     const std::vector<std::string>& pool, double duration_s,
                     double zipf_s, int threads, uint64_t seed) {
  std::atomic<uint64_t> completed{0};
  const auto run_end =
      Clock::now() + std::chrono::nanoseconds(
                         static_cast<int64_t>(duration_s * 1e9));
  Timer timer;
  std::vector<std::thread> callers;
  callers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    callers.emplace_back([&, t] {
      Rng rng(seed + static_cast<uint64_t>(t) * 104729);
      ZipfianGenerator zipf(pool.size(), zipf_s);
      while (Clock::now() < run_end) {
        serve::ServeResponse response =
            server.Answer(pool[zipf.Sample(rng)]);
        if (response.result.status.ok()) {
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : callers) thread.join();
  return static_cast<double>(completed.load()) / timer.ElapsedSeconds();
}

void PrintRun(const char* name, const RunResult& r) {
  std::printf(
      "[%s] offered %" PRIu64 " in %.1fs, completed %" PRIu64
      " (%.0f qps), rejected %" PRIu64 ", shed %" PRIu64 "+%" PRIu64 "\n"
      "[%s]   total  p50 %.2fms  p99 %.2fms  p999 %.2fms\n"
      "[%s]   lag    p50 %.2fms  p99 %.2fms  max %.2fms (generator)\n"
      "[%s]   queue  p50 %.2fms  p99 %.2fms  p999 %.2fms\n"
      "[%s]   service p50 %.2fms  p99 %.2fms  p999 %.2fms\n",
      name, r.offered, r.wall_s, r.stats.completed, r.throughput_qps,
      r.stats.rejected, r.stats.shed_expired, r.stats.shed_shutdown, name,
      r.total.ValueAtQuantile(0.5) / 1e6,
      r.total.ValueAtQuantile(0.99) / 1e6,
      r.total.ValueAtQuantile(0.999) / 1e6, name,
      r.lag.ValueAtQuantile(0.5) / 1e6, r.lag.ValueAtQuantile(0.99) / 1e6,
      r.lag.ValueAtQuantile(1.0) / 1e6, name,
      r.queue.ValueAtQuantile(0.5) / 1e6, r.queue.ValueAtQuantile(0.99) / 1e6,
      r.queue.ValueAtQuantile(0.999) / 1e6, name,
      r.service.ValueAtQuantile(0.5) / 1e6,
      r.service.ValueAtQuantile(0.99) / 1e6,
      r.service.ValueAtQuantile(0.999) / 1e6);
}

void EmitLatency(std::FILE* out, const char* name,
                 const bench::LatencyReservoir& r, const char* trailing) {
  std::fprintf(out,
               "      \"%s\": {\"p50_ns\": %" PRIu64 ", \"p99_ns\": %" PRIu64
               ", \"p999_ns\": %" PRIu64 ", \"mean_ns\": %.0f, \"count\": "
               "%zu}%s\n",
               name, r.ValueAtQuantile(0.5), r.ValueAtQuantile(0.99),
               r.ValueAtQuantile(0.999), r.MeanNanos(), r.count(), trailing);
}

void EmitRun(std::FILE* out, const char* name, double target_qps,
             const RunResult& r, const char* trailing) {
  std::fprintf(out,
               "  \"%s\": {\n"
               "    \"target_qps\": %.1f, \"offered\": %" PRIu64
               ", \"wall_s\": %.2f,\n"
               "    \"completed\": %" PRIu64 ", \"rejected\": %" PRIu64
               ", \"shed_expired\": %" PRIu64 ", \"shed_shutdown\": %" PRIu64
               ",\n"
               "    \"throughput_qps\": %.1f,\n"
               "    \"generator_lag\": {\"p50_ns\": %" PRIu64
               ", \"p99_ns\": %" PRIu64 ", \"max_ns\": %" PRIu64
               ", \"count\": %zu},\n"
               "    \"latency\": {\n",
               name, target_qps, r.offered, r.wall_s, r.stats.completed,
               r.stats.rejected, r.stats.shed_expired, r.stats.shed_shutdown,
               r.throughput_qps, r.lag.ValueAtQuantile(0.5),
               r.lag.ValueAtQuantile(0.99), r.lag.ValueAtQuantile(1.0),
               r.lag.count());
  EmitLatency(out, "total", r.total, ",");
  EmitLatency(out, "queue_wait", r.queue, ",");
  EmitLatency(out, "service", r.service, "");
  std::fprintf(out, "    }\n  }%s\n", trailing);
}

}  // namespace

int main(int argc, char** argv) {
  Args args = Parse(argc, argv);
  const unsigned hardware_threads =
      std::max(1u, std::thread::hardware_concurrency());
  if (args.workers <= 0) {
    args.workers = static_cast<int>(hardware_threads);
  }
  if (args.smoke && args.duration_s > 2) args.duration_s = 2;
  std::printf(
      "[config] %s, target_qps=%s, duration=%.1fs, zipf_s=%.2f, "
      "submit threads=%d, workers=%d, arrival=%s, %u hardware threads\n",
      args.smoke ? "smoke (Small world)" : "full (Standard world)",
      args.target_qps > 0 ? "explicit" : "auto", args.duration_s,
      args.zipf_s, args.threads, args.workers,
      args.poisson ? "poisson" : "fixed", hardware_threads);

  // ---- Observability: wide-event sampling, the serving SLO, and the
  // pull exposition endpoint (started before the expensive setup so an
  // operator can scrape /statusz while the world is still training). ----
  obs::WideEvents::SetSamplePeriod(
      args.obs_sample < 0 ? 0u : static_cast<uint32_t>(args.obs_sample));
  obs::SloMonitor slo{obs::SloSpec{}};
  std::unique_ptr<serve::ExpositionServer> exposition;
  if (args.obs_port >= 0) {
    serve::ExpositionOptions obs_options;
    obs_options.port = args.obs_port;
    obs_options.slo = &slo;
    auto started = serve::ExpositionServer::Start(obs_options);
    if (!started.ok()) {
      std::fprintf(stderr, "exposition failed to start: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    exposition = std::move(started).value();
    std::printf("[obs] exposition listening on 127.0.0.1:%d\n",
                exposition->port());
    std::fflush(stdout);
  }

  // ---- Setup: world + trained system + serving engine. ----
  std::unique_ptr<eval::Experiment> experiment;
  {
    std::printf("[setup] generating world + corpus and training KBQA...\n");
    ScopedTimer timer("bench.setup.build_experiment_ns");
    auto built = eval::Experiment::Build(args.smoke
                                             ? eval::ExperimentConfig::Small()
                                             : eval::ExperimentConfig::Standard());
    if (!built.ok()) {
      std::fprintf(stderr, "experiment build failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    experiment = std::move(built).value();
    std::printf("[setup] done in %.1fs\n", timer.ElapsedSeconds());
  }
  const core::KbqaSystem& kbqa = experiment->kbqa();
  core::OnlineInference::Options engine_opts = kbqa.options().online;
  // Serving posture: both memo caches on, bounded.
  engine_opts.enable_answer_cache = true;
  engine_opts.answer_cache_budget_bytes = 64ull << 20;
  engine_opts.value_cache_budget_bytes = 64ull << 20;
  core::OnlineInference engine(
      &experiment->world().kb, &experiment->world().taxonomy, &kbqa.ner(),
      &kbqa.template_store(), &kbqa.expanded_kb().paths(), engine_opts);

  // Question pool the Zipfian mix draws from: rank 0 = hottest question.
  corpus::BenchmarkConfig pool_config;
  pool_config.name = "serving";
  pool_config.seed = 97;
  pool_config.num_questions = args.smoke ? 64 : 256;
  std::vector<std::string> pool;
  for (const corpus::QaPair& pair :
       corpus::GenerateBenchmark(experiment->world(), pool_config)
           .questions.pairs) {
    pool.push_back(pair.question);
  }
  Check(!pool.empty(), "question pool non-empty");

  // Warm the answer cache through the front door, so the pool's misses
  // run the stage clock like served traffic: the timed phases below hit
  // the cache and enter no stage.
  {
    auto server = serve::Server::ForEngine(&engine, serve::ServingOptions{});
    for (const std::string& question : pool) (void)server->Answer(question);
  }

  // ---- Phase 1: closed-loop capacity. The bare-engine number (answer
  // cache warm, no queue, no workers) is an upper bound only; the number
  // that matters for picking an open-loop rate is saturation throughput
  // *through the server*, which pays queueing, wake-ups, and callback
  // overhead per request. ----
  double engine_serial_qps;
  {
    Rng rng(7);
    ZipfianGenerator zipf(pool.size(), args.zipf_s);
    const double estimate_s = args.smoke ? 0.3 : 1.0;
    const auto est_end =
        Clock::now() + std::chrono::nanoseconds(
                           static_cast<int64_t>(estimate_s * 1e9));
    uint64_t answered = 0;
    Timer timer;
    while (Clock::now() < est_end) {
      (void)engine.AnswerCached(pool[zipf.Sample(rng)],
                                core::AnswerOptions{});
      ++answered;
    }
    engine_serial_qps = static_cast<double>(answered) / timer.ElapsedSeconds();
    std::printf("[capacity] bare engine, warm cache: %.0f qps single-thread\n",
                engine_serial_qps);
  }

  // Many more blocking callers than workers, so a worker that goes to the
  // queue at saturation always finds a request waiting.
  const int capacity_threads = std::max(64, 8 * args.workers);
  double server_capacity_qps;
  {
    serve::ServingOptions options;
    options.num_workers = args.workers;
    options.slo = &slo;
    options.max_queue_depth = 4096;
    auto server = serve::Server::ForEngine(&engine, options);
    server_capacity_qps =
        RunClosedLoop(*server, pool, args.smoke ? 0.5 : 3.0, args.zipf_s,
                      capacity_threads, 42);
  }
  std::printf("[capacity] through the server, %d closed-loop callers: "
              "%.0f qps\n",
              capacity_threads, server_capacity_qps);

  // ---- Phase 2: steady state, open loop below saturation. ----
  const double steady_qps =
      args.target_qps > 0 ? args.target_qps : 0.50 * server_capacity_qps;
  RunResult steady;
  {
    serve::ServingOptions options;
    options.num_workers = args.workers;
    options.slo = &slo;
    options.max_queue_depth = 4096;
    auto server = serve::Server::ForEngine(&engine, options);
    steady = RunOpenLoop(*server, pool, steady_qps, args.duration_s,
                         args.zipf_s, args.threads, args.poisson, 1234);
  }
  PrintRun("steady", steady);
  Check(steady.stats.completed > 0, "steady run completed requests");
  Check(steady.stats.rejected == 0, "below saturation nothing is rejected");
  // Open loop at 70% of capacity must keep up with the offered rate
  // (generous floor: sleep_until granularity shaves the offered side too).
  Check(static_cast<double>(steady.stats.completed) >=
            0.8 * static_cast<double>(steady.offered),
        "steady throughput tracks offered load");

  // ---- Phase 3: deliberate overload: tiny queue, 3x capacity, 20ms
  // deadline. Admission control must push back and queue residents whose
  // deadline lapses must be shed without touching the engine. ----
  RunResult overload;
  const double overload_qps = std::max(3.0 * server_capacity_qps, 200.0);
  {
    serve::ServingOptions options;
    options.num_workers = args.workers;
    options.slo = &slo;
    options.max_queue_depth = 16;
    options.default_timeout = std::chrono::milliseconds(20);
    auto server = serve::Server::ForEngine(&engine, options);
    overload = RunOpenLoop(*server, pool, overload_qps,
                           std::min(args.duration_s, 5.0), args.zipf_s,
                           args.threads, args.poisson, 5678);
  }
  PrintRun("overload", overload);
  Check(overload.stats.rejected > 0,
        "overload run rejected at admission (backpressure)");
  Check(overload.stats.submitted ==
            overload.stats.rejected + overload.stats.completed +
                overload.stats.shed_expired + overload.stats.shed_shutdown,
        "serving stats account for every submitted request");

  // ---- Registry cross-check: the online.serve.latency_ns histogram's
  // interpolated percentile should land near the reservoir's exact one
  // (same data, log-bucket resolution). ----
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  if (const auto* histogram = snapshot.histogram("online.serve.latency_ns")) {
    std::printf("[registry] online.serve.latency_ns p99 %.2fms over %" PRIu64
                " samples (log-bucket interpolated)\n",
                histogram->ValueAtQuantile(0.99) / 1e6, histogram->count);
  }

  // ---- Wide-event drain + SLO evaluation. All phases recorded into the
  // one process-wide ring; the drain consumes it (the exposition's
  // /eventz view is non-consuming, so a live scrape saw the same rows). ----
  const std::vector<obs::WideEvent> wide_events = obs::WideEvents::Drain();
  const uint64_t wide_recorded = obs::WideEvents::TotalRecorded();
  const uint64_t wide_dropped = obs::WideEvents::Dropped();
  std::printf("[obs] wide events: %" PRIu64 " recorded, %zu drained, %" PRIu64
              " overwritten before drain (ring %zu rows, sample 1-in-%u)\n",
              wide_recorded, wide_events.size(), wide_dropped,
              obs::WideEvents::kRingCapacity, obs::WideEvents::SamplePeriod());
  if (!args.obs_events.empty()) {
    std::FILE* events_out = std::fopen(args.obs_events.c_str(), "w");
    Check(events_out != nullptr, "open --obs-events path");
    for (const obs::WideEvent& event : wide_events) {
      const std::string line = event.ToJsonLine();
      std::fwrite(line.data(), 1, line.size(), events_out);
      std::fputc('\n', events_out);
    }
    std::fclose(events_out);
    std::printf("[obs] wrote %zu wide events to %s "
                "(scripts/trace_summarize.py ingests this)\n",
                wide_events.size(), args.obs_events.c_str());
  }
  const obs::SloEvaluation slo_eval = slo.PublishGauges(obs::NowSteadyNs());
  std::printf("[slo] burn rate short %.2f / long %.2f, window good+bad "
              "%" PRIu64 "+%" PRIu64 ", firing: %s (the overload phase burns "
              "error budget by design)\n",
              slo_eval.short_burn_rate, slo_eval.long_burn_rate,
              slo_eval.long_good, slo_eval.long_bad,
              slo_eval.firing ? "yes" : "no");
  if (obs::WideEvents::SamplePeriod() != 0) {
    Check(wide_recorded > 0, "wide events recorded while sampling is on");
    Check(slo.TotalGood() + slo.TotalBad() > 0, "slo monitor saw outcomes");
  }

  // ---- JSON ----
  std::FILE* out = std::fopen("BENCH_serving.json", "w");
  Check(out != nullptr, "open BENCH_serving.json");
  std::fprintf(out,
               "{\n  \"hardware_threads\": %u,\n"
               "  \"config\": {\"smoke\": %s, \"duration_s\": %.1f, "
               "\"zipf_s\": %.2f, \"threads\": %d, \"workers\": %d, "
               "\"arrival\": \"%s\", \"pool_size\": %zu},\n"
               "  \"engine_serial_qps\": %.1f,\n"
               "  \"capacity_estimate_qps\": %.1f,\n",
               hardware_threads, args.smoke ? "true" : "false",
               args.duration_s, args.zipf_s, args.threads, args.workers,
               args.poisson ? "poisson" : "fixed", pool.size(),
               engine_serial_qps, server_capacity_qps);
  EmitRun(out, "steady", steady_qps, steady, ",");
  EmitRun(out, "overload", overload_qps, overload, ",");
  std::fprintf(out,
               "  \"obs\": {\"sample_period\": %u, \"wide_events_recorded\": "
               "%" PRIu64 ", \"wide_events_drained\": %zu, "
               "\"wide_events_dropped\": %" PRIu64 ",\n"
               "    \"slo_good\": %" PRIu64 ", \"slo_bad\": %" PRIu64
               ", \"slo_burn_short\": %.3f, \"slo_burn_long\": %.3f, "
               "\"slo_firing\": %s}\n}\n",
               obs::WideEvents::SamplePeriod(), wide_recorded,
               wide_events.size(), wide_dropped, slo.TotalGood(),
               slo.TotalBad(), slo_eval.short_burn_rate,
               slo_eval.long_burn_rate, slo_eval.firing ? "true" : "false");
  std::fclose(out);
  std::printf("[done] wrote BENCH_serving.json\n");
  return 0;
}
