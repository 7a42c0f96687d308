// Observability benchmark: (1) A/B overhead of the instrumented Answer
// path — registry enabled vs disabled, interleaved rounds,
// median-of-rounds — proving the instrumentation budget (< 2%); (2) the
// wide-event overhead through the serving front door, under the same
// budget; (3) metric coverage after an eval::RunBenchmark pass (per-request
// stage histograms, value cache hit/miss, EM iteration stats, thread-pool
// task latencies all non-zero). Emits BENCH_observability.json.
//
// The disabled arm runs under obs::SetEnabled(false), the layer's one
// switch: it still pays one relaxed load and a branch per macro site, so
// the A/B measures what recording costs inside one binary (no cross-build
// noise).

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/online.h"
#include "eval/report.h"
#include "obs/obs.h"
#include "obs/wide_event.h"
#include "serve/server.h"
#include "util/timer.h"

namespace {

using namespace kbqa;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    std::exit(1);
  }
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// One timed arm: a single sweep over the questions, returning ns per
/// Answer call.
double TimeAnswerPass(const core::KbqaSystem& kbqa,
                      const std::vector<std::string>& questions,
                      size_t* answered) {
  Timer t;
  for (const std::string& q : questions) {
    *answered += kbqa.Answer(q).answered;
  }
  return t.ElapsedSeconds() * 1e9 / static_cast<double>(questions.size());
}

/// One through-the-server sweep: blocking Answer via the serve front door,
/// so each request pays admission + wide-event sampling + queueing +
/// dispatch + the handler — the denominator the wide-event overhead gate
/// is defined against (a request-scoped feature is budgeted against the
/// request, not the bare engine call inside it).
double TimeServerPass(serve::Server& server,
                      const std::vector<std::string>& questions,
                      size_t* completed) {
  Timer t;
  for (const std::string& q : questions) {
    *completed += server.Answer(q).result.status.ok();
  }
  return t.ElapsedSeconds() * 1e9 / static_cast<double>(questions.size());
}

/// One bare-engine sweep with or without a bound RequestContext: isolates
/// the per-stage Mark()/cache-tally cost of trace propagation from the
/// serving machinery around it.
double TimePropagationPass(const core::OnlineInference& engine,
                           const std::vector<std::string>& questions,
                           bool with_context, size_t* answered) {
  Timer t;
  for (const std::string& q : questions) {
    core::AnswerOptions options;
    obs::RequestContext ctx;
    if (with_context) {
      ctx.sampled = true;
      ctx.trace_id = 1;
      ctx.StartClockAt(obs::NowSteadyNs());
      options.request_context = &ctx;
    }
    *answered += engine.Answer(q, options).answered;
  }
  return t.ElapsedSeconds() * 1e9 / static_cast<double>(questions.size());
}

}  // namespace

int main() {
  auto experiment = bench::BuildStandardExperiment();
  const core::KbqaSystem& kbqa = experiment->kbqa();

  corpus::BenchmarkSet set = experiment->MakeQald1();
  std::vector<std::string> questions;
  questions.reserve(set.questions.pairs.size());
  for (const corpus::QaPair& pair : set.questions.pairs) {
    questions.push_back(pair.question);
  }
  Check(!questions.empty(), "benchmark set has questions");

  // ---- Overhead A/B on the Answer hot path ----
  // Warm-up fills the value cache so both arms measure the steady state,
  // and calibrates the pass count to give each timed arm >= ~50ms (the
  // per-answer path is microseconds; short arms would be pure timer noise).
  obs::SetEnabled(true);
  for (const std::string& q : questions) (void)kbqa.Answer(q);

  // Paired design at single-pass granularity: each pair times one pass
  // (~hundreds of µs) per arm back-to-back, order alternating pair to
  // pair, and contributes one enabled-minus-disabled difference. This box
  // drifts by double-digit percents under background load, so aggregate
  // comparisons across arms are hopeless; between two *adjacent* passes
  // the drift is negligible and cancels in the difference, and the median
  // over many pairs is robust to the minority of passes a preemption
  // lands in.
  const int kPairs = 600;
  std::vector<double> enabled_ns, disabled_ns, diff_ns;
  enabled_ns.reserve(kPairs);
  disabled_ns.reserve(kPairs);
  diff_ns.reserve(kPairs);
  size_t answered = 0;
  for (int pair = 0; pair < kPairs; ++pair) {
    double e = 0, d = 0;
    if (pair % 2 == 0) {
      obs::SetEnabled(true);
      e = TimeAnswerPass(kbqa, questions, &answered);
      obs::SetEnabled(false);
      d = TimeAnswerPass(kbqa, questions, &answered);
    } else {
      obs::SetEnabled(false);
      d = TimeAnswerPass(kbqa, questions, &answered);
      obs::SetEnabled(true);
      e = TimeAnswerPass(kbqa, questions, &answered);
    }
    enabled_ns.push_back(e);
    disabled_ns.push_back(d);
    diff_ns.push_back(e - d);
  }
  obs::SetEnabled(true);
  Check(answered > 0, "answer passes produced answers");

  const double med_diff = Median(diff_ns);
  const double base_ns = Median(disabled_ns);
  const double overhead_pct = med_diff / base_ns * 100.0;
  std::printf(
      "[overhead] answer path: median paired diff %+.0f ns on a %.0f ns "
      "baseline -> %.2f%% (%d pairs x %zu questions)\n",
      med_diff, base_ns, overhead_pct, kPairs, questions.size());
  Check(overhead_pct < 2.0, "instrumentation overhead under 2%");

  // ---- Wide-event overhead A/B through the serving front door ----
  // The request-scoped telemetry budget is defined against the request:
  // the arm with sample period 1 pays context creation at admission, a
  // stage-mark chain in the handler, cache tallies, the fold into the
  // online.stage.* histograms, and one ring Record per terminal outcome;
  // period 0 reduces Sample() to a relaxed load and skips everything
  // downstream. Same paired interleaved single-pass design as the registry
  // A/B above — this box drifts too much for aggregate arm comparisons.
  // One through-server request waits on two thread wake-ups, so a pass's
  // per-request difference spreads about ±7 µs (p10/p90) on a ~24 µs
  // request. The median of n such differences has a standard error of
  // about 1.25 * sigma / sqrt(n): 0.5 µs (2% of the request, the whole
  // budget) at 200 pairs, about 0.13 µs at 3,000.
  core::OnlineInference::Options engine_opts = kbqa.options().online;
  engine_opts.enable_answer_cache = true;
  engine_opts.answer_cache_budget_bytes = 64ull << 20;
  engine_opts.value_cache_budget_bytes = 64ull << 20;
  core::OnlineInference engine(
      &experiment->world().kb, &experiment->world().taxonomy, &kbqa.ner(),
      &kbqa.template_store(), &kbqa.expanded_kb().paths(), engine_opts);
  const uint64_t wide_recorded_before = obs::WideEvents::TotalRecorded();
  std::vector<double> sampled_ns, unsampled_ns, wide_diff_ns;
  const Timer wide_section;
  {
    serve::ServingOptions serve_options;
    serve_options.num_workers = 2;
    serve_options.max_queue_depth = 256;
    auto server = serve::Server::ForEngine(&engine, serve_options);
    // Warm both the answer cache and the serving workers before timing.
    obs::WideEvents::SetSamplePeriod(1);
    size_t completed = 0;
    (void)TimeServerPass(*server, questions, &completed);
    const int kWidePairs = 3000;
    sampled_ns.reserve(kWidePairs);
    unsampled_ns.reserve(kWidePairs);
    wide_diff_ns.reserve(kWidePairs);
    completed = 0;
    for (int pair = 0; pair < kWidePairs; ++pair) {
      double on = 0, off = 0;
      if (pair % 2 == 0) {
        obs::WideEvents::SetSamplePeriod(1);
        on = TimeServerPass(*server, questions, &completed);
        obs::WideEvents::SetSamplePeriod(0);
        off = TimeServerPass(*server, questions, &completed);
      } else {
        obs::WideEvents::SetSamplePeriod(0);
        off = TimeServerPass(*server, questions, &completed);
        obs::WideEvents::SetSamplePeriod(1);
        on = TimeServerPass(*server, questions, &completed);
      }
      sampled_ns.push_back(on);
      unsampled_ns.push_back(off);
      wide_diff_ns.push_back(on - off);
    }
    Check(completed > 0, "through-server passes completed requests");
  }
  obs::WideEvents::SetSamplePeriod(1);
  const uint64_t wide_events_recorded =
      obs::WideEvents::TotalRecorded() - wide_recorded_before;
  Check(wide_events_recorded > 0, "sampled arm recorded wide events");
  const double wide_med_diff = Median(wide_diff_ns);
  const double wide_base_ns = Median(unsampled_ns);
  const double wide_overhead_pct = wide_med_diff / wide_base_ns * 100.0;
  std::printf(
      "[wide events] through-server: median paired diff %+.0f ns on a "
      "%.0f ns/request baseline -> %.2f%% at 1-in-1 sampling (%zu pairs, "
      "%" PRIu64 " events recorded, %.1f s)\n",
      wide_med_diff, wide_base_ns, wide_overhead_pct, wide_diff_ns.size(),
      wide_events_recorded, wide_section.ElapsedSeconds());
  Check(wide_overhead_pct < 2.0, "wide-event overhead under 2%");

  // ---- Context-propagation delta on the bare engine ----
  // Same paired design, no serving machinery: a bound RequestContext (all
  // six stage marks, value/answer-cache tallies) vs a null pointer. The
  // answer cache is off in this engine so every pass runs the full
  // pipeline the marks instrument.
  engine_opts.enable_answer_cache = false;
  core::OnlineInference bare_engine(
      &experiment->world().kb, &experiment->world().taxonomy, &kbqa.ner(),
      &kbqa.template_store(), &kbqa.expanded_kb().paths(), engine_opts);
  const int kCtxPairs = 300;
  std::vector<double> ctx_ns, no_ctx_ns, ctx_diff_ns;
  ctx_ns.reserve(kCtxPairs);
  no_ctx_ns.reserve(kCtxPairs);
  ctx_diff_ns.reserve(kCtxPairs);
  {
    size_t ctx_answered = 0;
    (void)TimePropagationPass(bare_engine, questions, false, &ctx_answered);
    for (int pair = 0; pair < kCtxPairs; ++pair) {
      double with_ctx = 0, without_ctx = 0;
      if (pair % 2 == 0) {
        with_ctx =
            TimePropagationPass(bare_engine, questions, true, &ctx_answered);
        without_ctx =
            TimePropagationPass(bare_engine, questions, false, &ctx_answered);
      } else {
        without_ctx =
            TimePropagationPass(bare_engine, questions, false, &ctx_answered);
        with_ctx =
            TimePropagationPass(bare_engine, questions, true, &ctx_answered);
      }
      ctx_ns.push_back(with_ctx);
      no_ctx_ns.push_back(without_ctx);
      ctx_diff_ns.push_back(with_ctx - without_ctx);
    }
    Check(ctx_answered > 0, "propagation passes produced answers");
  }
  const double ctx_med_diff = Median(ctx_diff_ns);
  const double ctx_base_ns = Median(no_ctx_ns);
  const double ctx_overhead_pct = ctx_med_diff / ctx_base_ns * 100.0;
  std::printf(
      "[propagation] bare engine: median paired diff %+.0f ns on a %.0f ns "
      "baseline -> %.2f%% with a bound RequestContext\n",
      ctx_med_diff, ctx_base_ns, ctx_overhead_pct);

  // ---- Metric coverage after a benchmark run ----
  eval::RunResult run = eval::RunBenchmark(kbqa, set);
  std::printf("[benchmark_run] %zu questions, R %.2f, %.1f ms total\n",
              static_cast<size_t>(run.counts.total), run.counts.R(),
              run.total_ms);

  const obs::MetricsSnapshot snap = core::KbqaSystem::MetricsSnapshot();
  auto histogram_count = [&](const char* name) -> uint64_t {
    const auto* h = snap.histogram(name);
    return h == nullptr ? 0 : h->count;
  };
  auto counter_value = [&](const char* name) -> uint64_t {
    const auto* c = snap.counter(name);
    return c == nullptr ? 0 : c->value;
  };
  // Online stages: the through-server passes bound a RequestContext, and
  // their answer-cache misses (the warm-up pass) ran the stage clock.
  Check(histogram_count("online.stage.ner_ns") > 0,
        "online.stage.ner_ns recorded by the through-server passes");
  Check(counter_value("online.answers") > 0, "online.answers counted");
  Check(counter_value("online.value_cache.hits") > 0, "cache hits counted");
  Check(counter_value("online.value_cache.misses") > 0,
        "cache misses counted");
  // Offline learning (recorded during experiment setup).
  Check(counter_value("em.iterations") > 0, "em.iterations counted");
  Check(histogram_count("em.e_step.shard_ns") > 0,
        "em.e_step shard timings recorded");
  Check(histogram_count("span.em.train") > 0, "span.em.train recorded");
  Check(snap.gauge("em.log_likelihood") != nullptr, "em.log_likelihood set");
  // RDF substrate.
  Check(histogram_count("span.rdf.freeze") > 0, "span.rdf.freeze recorded");
  Check(histogram_count("rdf.expand.frontier_size") > 0,
        "expansion frontier sizes recorded");
  // Thread pool.
  Check(counter_value("thread_pool.tasks") > 0, "pool tasks counted");
  Check(histogram_count("span.thread_pool.task") > 0,
        "pool task latencies recorded");

  eval::PrintObservabilityReport(std::cout);

  // ---- JSON ----
  std::FILE* out = std::fopen("BENCH_observability.json", "w");
  Check(out != nullptr, "open BENCH_observability.json");
  std::fprintf(out, "{\n  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::sort(diff_ns.begin(), diff_ns.end());
  std::fprintf(out,
               "  \"answer_overhead\": {\n"
               "    \"questions\": %zu, \"pairs\": %d,\n"
               "    \"median_paired_diff_ns\": %.1f,\n"
               "    \"paired_diff_p10_ns\": %.1f,\n"
               "    \"paired_diff_p90_ns\": %.1f,\n"
               "    \"enabled_median_ns_per_answer\": %.1f,\n"
               "    \"disabled_median_ns_per_answer\": %.1f,\n"
               "    \"overhead_percent\": %.3f,\n"
               "    \"budget_percent\": 2.0\n  },\n",
               questions.size(), kPairs, med_diff,
               diff_ns[diff_ns.size() / 10],
               diff_ns[diff_ns.size() * 9 / 10], Median(enabled_ns),
               base_ns, overhead_pct);
  std::sort(wide_diff_ns.begin(), wide_diff_ns.end());
  std::fprintf(out,
               "  \"wide_event_overhead\": {\n"
               "    \"questions\": %zu, \"pairs\": %zu,\n"
               "    \"median_paired_diff_ns\": %.1f,\n"
               "    \"paired_diff_p10_ns\": %.1f,\n"
               "    \"paired_diff_p90_ns\": %.1f,\n"
               "    \"sampled_median_ns_per_request\": %.1f,\n"
               "    \"unsampled_median_ns_per_request\": %.1f,\n"
               "    \"overhead_percent\": %.3f,\n"
               "    \"budget_percent\": 2.0,\n"
               "    \"events_recorded\": %" PRIu64 "\n  },\n",
               questions.size(), wide_diff_ns.size(), wide_med_diff,
               wide_diff_ns[wide_diff_ns.size() / 10],
               wide_diff_ns[wide_diff_ns.size() * 9 / 10], Median(sampled_ns),
               wide_base_ns, wide_overhead_pct, wide_events_recorded);
  std::fprintf(out,
               "  \"context_propagation\": {\n"
               "    \"questions\": %zu, \"pairs\": %zu,\n"
               "    \"median_paired_diff_ns\": %.1f,\n"
               "    \"with_context_median_ns\": %.1f,\n"
               "    \"without_context_median_ns\": %.1f,\n"
               "    \"overhead_percent\": %.3f\n  },\n",
               questions.size(), ctx_diff_ns.size(), ctx_med_diff,
               Median(ctx_ns), ctx_base_ns, ctx_overhead_pct);
  const auto* ner_stage = snap.histogram("online.stage.ner_ns");
  std::fprintf(out,
               "  \"coverage\": {\n"
               "    \"stage_ner_count\": %llu,\n"
               "    \"stage_ner_avg_us\": %.3f,\n"
               "    \"value_cache_hits\": %llu,\n"
               "    \"value_cache_misses\": %llu,\n"
               "    \"em_iterations\": %llu,\n"
               "    \"em_e_step_shards_timed\": %llu,\n"
               "    \"thread_pool_tasks\": %llu\n  },\n",
               static_cast<unsigned long long>(ner_stage->count),
               ner_stage->Mean() / 1e3,
               static_cast<unsigned long long>(
                   counter_value("online.value_cache.hits")),
               static_cast<unsigned long long>(
                   counter_value("online.value_cache.misses")),
               static_cast<unsigned long long>(counter_value("em.iterations")),
               static_cast<unsigned long long>(
                   histogram_count("em.e_step.shard_ns")),
               static_cast<unsigned long long>(
                   counter_value("thread_pool.tasks")));
  std::fprintf(out,
               "  \"benchmark_run\": {\"questions\": %zu, \"recall\": %.3f}\n"
               "}\n",
               static_cast<size_t>(run.counts.total), run.counts.R());
  std::fclose(out);
  std::printf("[done] wrote BENCH_observability.json\n");
  return 0;
}
