// End-to-end benchmark of the KBQA system: one harness, two workloads over
// the trained Standard world (perfbench/README.md explains the workloads,
// every metric, and which layer metric moves which end-to-end metric).
//
//   kbqa_perfbench --workload answer_cold|live_rw --seed N
//                  --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with no spans recorded.
// --trace 1 splits the window into an untraced and a traced half (their
// difference is the tracing overhead), then replays the workload's own
// inputs through each layer's public calls to split the time per layer;
// live_rw's traced run also probes the serving front door (serve.*).
// The last stdout line is the JSON result; the exit code is non-zero when
// any correctness check fails.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/decomposer.h"
#include "core/em_learner.h"
#include "core/ev_extraction.h"
#include "core/kbqa_system.h"
#include "core/live_engine.h"
#include "corpus/qa_generator.h"
#include "corpus/world_generator.h"
#include "eval/experiment.h"
#include "eval/runner.h"
#include "harness.h"
#include "nlp/pattern.h"
#include "nlp/question_classifier.h"
#include "nlp/tokenizer.h"
#include "obs/metrics.h"
#include "obs/wide_event.h"
#include "rdf/mutable_kb.h"
#include "serve/server.h"
#include "util/rng.h"
#include "util/strings.h"

// The block-compressed expanded KB may be removed from the library. Its
// replay compiles only while the header exists, so that change need not
// edit the benchmark; rdf.compress_s then reads 0.
#if __has_include("rdf/compressed_expanded.h")
#define PERFBENCH_HAS_COMPRESSED_EKB 1
#include "rdf/compressed_expanded.h"
#endif

namespace perfbench {
namespace {

using namespace kbqa;

// ---- Fixed workload parameters. None is derived from measured capacity, so
// a parent commit and a change are offered identical load. ----
constexpr int kSetupRepeats = 5;
constexpr size_t kPoolSize = 256;        // live_rw question pool
constexpr uint64_t kPoolSeed = 97;
constexpr double kZipfS = 0.99;
constexpr size_t kStreamSize = 18000;    // answer_cold distinct BFQs
constexpr uint64_t kComplexEvery = 16;   // answer_cold: 1 call in 16
// The serve probe: open loop at a fixed rate through serve::Server.
constexpr double kServeQps = 50000;
constexpr double kServeProbeSeconds = 2;
constexpr size_t kQueueDepth = 1 << 16;
constexpr uint64_t kHotCacheBudget = 64ull << 20;
constexpr uint64_t kColdValueCacheBudget = 2ull << 20;
// live_rw: each reader applies one batch after every kReadsPerWrite of its
// own reads, so every run does the same reads and writes in the same ratio.
constexpr uint64_t kReadsPerWrite = 4096;
constexpr int kOpsPerBatch = 16;
// serve.slo_qps: the highest ladder rate whose p99 stays within the limit
// while no more than kSloMaxBacklog requests are ever outstanding (a queue
// that keeps growing) and nothing fails.
constexpr double kSloLadderQps[] = {25000, 50000, 100000, 150000, 200000,
                                    300000};
constexpr double kSloStepSeconds = 1.0;
constexpr double kSloP99LimitUs = 1000;
constexpr uint64_t kSloMaxBacklog = 20000;
// An SLO ladder step whose generator p99 lag exceeds this limit is invalid
// (the harness, not the system, was slow): it is re-run once, then misses.
constexpr double kServeMaxLagP99Us = 2000;

struct ComplexCase {
  const char* question;
  const char* gold;  // '|' separates equally right answers
};
// Table 15 of the paper, verbatim; the Standard world wires these facts.
constexpr ComplexCase kComplexCases[] = {
    {"how many people live in the capital of japan", "13960000"},
    {"when was barack obama's wife born", "1964"},
    {"what are books written by author of harry potter",
     "the casual vacancy|harry potter"},
    {"what is the area of the capital of britain", "1572"},
    {"how large is the capital of germany", "891"},
    {"what instrument do members of coldplay play", "piano|guitar"},
    {"what is the birthday of the ceo of google", "1972"},
    {"in which country is the headquarter of google located",
     "united states"},
};
constexpr size_t kNumComplex = std::size(kComplexCases);

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The result line lists these names, in this order; BENCHMARK.json must
// list the same names and units.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"train_s", "s"},
    {"rss_mb", "MB"},
    {"throughput_qps", "1/s"},
    {"latency_p50_us", "us"},
    {"latency_p99_us", "us"},
    {"answer_precision", "frac"},
    {"answer_recall", "frac"},
};

// Every workload reports every per-layer metric; a layer the workload does
// not exercise reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"loadgen.lag_p50_us", "us"},
    {"loadgen.lag_p99_us", "us"},
    {"loadgen.sent", "count"},
    {"loadgen.succeeded", "count"},
    {"loadgen.failed", "count"},
    {"loadgen.non_ok", "count"},
    {"loadgen.failed_frac", "frac"},
    {"serve.admit_p50_ns", "ns"},
    {"serve.admit_p99_ns", "ns"},
    {"serve.queue_p50_us", "us"},
    {"serve.queue_p99_us", "us"},
    {"serve.service_p50_us", "us"},
    {"serve.service_p99_us", "us"},
    {"serve.batch_size_mean", "count"},
    {"serve.rejected", "count"},
    {"serve.shed", "count"},
    {"serve.unattributed_p50_us", "us"},
    {"serve.slo_qps", "1/s"},
    {"core.online.answer_p50_us", "us"},
    {"core.online.answer_p99_us", "us"},
    {"core.online.answer_cache_hit_frac", "frac"},
    {"core.online.answer_cache_lookups", "count"},
    {"core.online.value_cache_hit_frac", "frac"},
    {"core.online.value_cache_lookups", "count"},
    {"core.online.value_cache_evictions", "count"},
    {"core.online.unattributed_frac", "frac"},
    {"nlp.tokenize_ns", "ns"},
    {"nlp.ner_ns", "ns"},
    {"taxonomy.conceptualize_ns", "ns"},
    {"core.template.lookup_ns", "ns"},
    {"core.template.hit_frac", "frac"},
    {"rdf.value.walk_ns", "ns"},
    {"rdf.value.lookups_per_q", "count"},
    {"core.decompose.decompose_us", "us"},
    {"core.decompose.hops_per_q", "count"},
    {"core.decompose.complex_p50_us", "us"},
    {"core.train.seed_reduction_s", "s"},
    {"rdf.expand_s", "s"},
    {"core.em_s", "s"},
    {"rdf.compress_s", "s"},
    {"nlp.pattern_index_s", "s"},
    {"core.train.unattributed_s", "s"},
    {"rdf.mutable.write_p50_us", "us"},
    {"rdf.mutable.write_p99_us", "us"},
    {"rdf.mutable.apply_per_op_us", "us"},
    {"rdf.mutable.overlay_edges_mean", "count"},
    {"rdf.mutable.pin_ns", "ns"},
    {"rdf.mutable.merges", "count"},
    {"rdf.mutable.rebuild_ms", "ms"},
    {"obs.wide_events_recorded", "count"},
    {"obs.wide_events_dropped_frac", "frac"},
    {"share.rdf.mutable.pin", "frac"},
    {"share.nlp.tokenize", "frac"},
    {"share.nlp.ner", "frac"},
    {"share.taxonomy.conceptualize", "frac"},
    {"share.core.template", "frac"},
    {"share.rdf.value", "frac"},
    {"share.core.complex", "frac"},
    {"share.unattributed", "frac"},
    {"trace.overhead_p50_us", "us"},
    {"trace.overhead_p99_us", "us"},
    {"trace.overhead_qps_frac", "frac"},
};

enum class Workload { kAnswerCold, kLiveRw };

struct Args {
  Workload workload = Workload::kAnswerCold;
  std::string workload_name;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: kbqa_perfbench --workload "
               "answer_cold|live_rw --seed N --seconds S "
               "--trace 0|1\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  if (argc % 2 != 1) Usage("every flag takes one value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload_name = value;
      if (value == "answer_cold") {
        args.workload = Workload::kAnswerCold;
      } else if (value == "live_rw") {
        args.workload = Workload::kLiveRw;
      } else {
        Usage("unknown workload");
      }
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else {
      Usage("unknown flag");
    }
  }
  if (!(have_workload && have_seed && have_seconds && have_trace)) {
    Usage("--workload, --seed, --seconds and --trace are all required");
  }
  return args;
}

int NumCpus() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double NsToS(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

uint64_t RegistryCounter(const obs::MetricsSnapshot& snapshot,
                         const char* name) {
  const auto* counter = snapshot.counter(name);
  return counter == nullptr ? 0 : counter->value;
}

/// Correctness bookkeeping: every failed check is printed and turns the
/// run's `correct` flag off.
struct Checks {
  bool ok = true;
  void Expect(bool cond, const std::string& what) {
    if (!cond) {
      ok = false;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
};

bool MatchesGold(const std::string& value, const char* gold) {
  const std::string got = nlp::NormalizeText(value);
  for (const std::string& alt : Split(gold, '|')) {
    if (got == nlp::NormalizeText(alt)) return true;
  }
  return false;
}

bool SameAnswer(const core::AnswerResult& a, const core::AnswerResult& b) {
  return a.answered == b.answered && a.status.code() == b.status.code() &&
         a.value == b.value && a.score == b.score &&
         a.predicate == b.predicate && a.sparql == b.sparql &&
         a.values == b.values;
}

// ---------------------------------------------------------------------------
// Inputs and set-up.

/// The inputs: distinct BFQs with their generator gold, drawn from the
/// seed (the answer_cold stream), and the live_rw pool, drawn from a fixed
/// seed. Which questions are hot sets live_rw's read cost: a seeded pool
/// moved its throughput by a fifth between seeds, which would hide any
/// change smaller than that. The seed still drives live_rw's Zipf draws,
/// write stream and arrival times.
struct Inputs {
  std::vector<std::string> questions;
  std::vector<corpus::QaGold> gold;
  std::vector<std::string> pool;
  std::vector<rdf::TermId> pool_entities;
};

/// `count` distinct BFQs (by normalized text) from the benchmark generator.
void DistinctBfqs(const corpus::World& world, uint64_t seed, size_t count,
                  std::vector<std::string>* questions,
                  std::vector<corpus::QaGold>* gold) {
  corpus::BenchmarkConfig config;
  config.name = "perfbench";
  config.seed = seed;
  config.num_questions = count + count / 4;
  config.bfq_ratio = 1.0;
  const corpus::BenchmarkSet set = corpus::GenerateBenchmark(world, config);
  std::unordered_set<std::string> seen;
  for (size_t i = 0; i < set.questions.size() && questions->size() < count;
       ++i) {
    const std::string& q = set.questions.pairs[i].question;
    if (!seen.insert(nlp::NormalizeText(q)).second) continue;
    questions->push_back(q);
    gold->push_back(set.questions.gold[i]);
  }
}

Inputs MakeInputs(const corpus::World& world, uint64_t seed) {
  Inputs inputs;
  DistinctBfqs(world, 0x9e3779b97f4a7c15ULL * (seed + 1), kStreamSize,
               &inputs.questions, &inputs.gold);
  std::vector<corpus::QaGold> pool_gold;
  DistinctBfqs(world, kPoolSeed, kPoolSize, &inputs.pool, &pool_gold);
  for (const corpus::QaGold& g : pool_gold) {
    inputs.pool_entities.push_back(g.entity);
  }
  return inputs;
}

/// One trained system plus the workload's front end. Members are destroyed
/// in reverse order: the engine and server before what they point into.
struct System {
  std::unique_ptr<corpus::World> world;
  corpus::QaCorpus corpus;
  std::unique_ptr<core::KbqaSystem> kbqa;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<rdf::MutableKb> live;
  std::unique_ptr<core::LiveKbqaEngine> live_engine;
  double setup_s = 0;
  double train_s = 0;
  /// answer_cold warm-up answers, index-aligned with Inputs::questions.
  std::vector<core::AnswerResult> warm_answers;
};

/// Builds everything a workload serves. setup_s times world and corpus
/// generation, Train, the engine or server, and cache warm-up; input
/// generation (first call only) is excluded. Options touch only what every
/// serving design keeps: worker count, queue depth, and cache budgets.
std::unique_ptr<System> SetUp(const Args& args, Inputs* inputs) {
  auto sys = std::make_unique<System>();
  const eval::ExperimentConfig standard = eval::ExperimentConfig::Standard();
  const int cpus = NumCpus();

  uint64_t t = NowNs();
  sys->world =
      std::make_unique<corpus::World>(corpus::GenerateWorld(standard.world));
  sys->corpus = corpus::GenerateTrainingCorpus(*sys->world, standard.corpus);
  uint64_t timed_ns = NowNs() - t;
  if (inputs->questions.empty()) *inputs = MakeInputs(*sys->world, args.seed);

  t = NowNs();
  core::KbqaOptions options = standard.kbqa;
  options.em.num_threads = cpus;
  if (args.workload == Workload::kAnswerCold) {
    options.online.value_cache_budget_bytes = kColdValueCacheBudget;
  } else {
    options.online.enable_answer_cache = true;
    options.online.answer_cache_budget_bytes = kHotCacheBudget;
    options.online.value_cache_budget_bytes = kHotCacheBudget;
  }
  sys->kbqa = std::make_unique<core::KbqaSystem>(sys->world.get(), options);
  const uint64_t train_begin = NowNs();
  const Status trained = sys->kbqa->Train(sys->corpus);
  sys->train_s = NsToS(NowNs() - train_begin);
  if (!trained.ok()) {
    std::fprintf(stderr, "Train failed: %s\n", trained.ToString().c_str());
    std::exit(1);
  }

  switch (args.workload) {
    case Workload::kAnswerCold:
      sys->warm_answers.reserve(inputs->questions.size());
      for (const std::string& q : inputs->questions) {
        sys->warm_answers.push_back(sys->kbqa->Answer(q));
      }
      break;
    case Workload::kLiveRw:
      // RebuildKb with an empty overlay is an id-stable copy of the base,
      // so the trained artifacts stay valid over the live KB.
      sys->live = std::make_unique<rdf::MutableKb>(
          rdf::RebuildKb(sys->world->kb, rdf::DeltaOverlay{}, cpus),
          rdf::MutableKb::Options{});
      sys->live_engine = sys->kbqa->MakeLiveEngine(sys->live.get());
      for (const std::string& q : inputs->pool) {
        (void)sys->live_engine->AnswerCached(q, core::AnswerOptions{});
      }
      {
        // The serve probe's front door, over the frozen engine (whose
        // answer cache is warmed too). One core is left for the probe's
        // spinning generator and one for the server's dispatch thread.
        serve::ServingOptions serving;
        serving.num_workers = std::max(1, cpus - 2);
        serving.max_queue_depth = kQueueDepth;
        sys->server = serve::Server::ForEngine(&sys->kbqa->online(), serving);
        for (const std::string& q : inputs->pool) {
          (void)sys->kbqa->online().AnswerCached(q, core::AnswerOptions{});
        }
      }
      break;
  }
  timed_ns += NowNs() - t;
  sys->setup_s = NsToS(timed_ns);
  return sys;
}

// ---------------------------------------------------------------------------
// Correctness checks that run before the measured window.

struct Quality {
  double precision = 0;
  double recall = 0;
};

/// Scores `answers` (index-aligned with inputs.questions) against the
/// generator gold: precision = right / answered, recall = right / asked.
Quality Score(const Inputs& inputs,
              const std::vector<core::AnswerResult>& answers) {
  eval::QaldCounts counts;
  for (size_t i = 0; i < answers.size(); ++i) {
    ++counts.total;
    const eval::Judgment j = eval::Judge(answers[i], inputs.gold[i]);
    if (j != eval::Judgment::kDeclined) ++counts.pro;
    if (j == eval::Judgment::kRight) ++counts.ri;
  }
  return Quality{counts.P(), counts.R()};
}

Quality CheckAnswers(const Args& args, System& sys, const Inputs& inputs,
                     Checks* checks) {
  for (const ComplexCase& c : kComplexCases) {
    const core::ComplexAnswer a = sys.kbqa->AnswerComplex(c.question);
    checks->Expect(a.answer.answered && MatchesGold(a.answer.value, c.gold),
                   std::string("complex question: ") + c.question + " -> '" +
                       a.answer.value + "', want " + c.gold);
  }
  std::vector<core::AnswerResult> answers;
  if (args.workload == Workload::kAnswerCold) {
    answers = sys.warm_answers;
  } else {
    answers.reserve(inputs.questions.size());
    for (const std::string& q : inputs.questions) {
      answers.push_back(sys.live_engine->Answer(q));
    }
    size_t mismatches = 0;
    for (const std::string& q : inputs.pool) {
      if (!SameAnswer(sys.server->Answer(q).result, sys.kbqa->Answer(q))) {
        ++mismatches;
      }
    }
    checks->Expect(mismatches == 0,
                   "server answers identical to direct Answer calls (" +
                       std::to_string(mismatches) + " of " +
                       std::to_string(inputs.pool.size()) + " differ)");
  }
  const Quality quality = Score(inputs, answers);
  // Loose floors: a collapse fails the run; smaller drift shows in the
  // answer_precision / answer_recall metrics.
  checks->Expect(quality.precision > 0.6, "answer precision above 0.6");
  checks->Expect(quality.recall > 0.35, "answer recall above 0.35");
  return quality;
}

// ---------------------------------------------------------------------------
// Measured windows.

/// Every attempt of a window, by outcome.
struct Tally {
  uint64_t sent = 0;
  uint64_t succeeded = 0;
  uint64_t rejected = 0;
  uint64_t shed = 0;
  uint64_t non_ok = 0;
  uint64_t wrong = 0;  // OK status but not the expected answer

  uint64_t failed() const { return rejected + shed + non_ok; }
  void Add(const Tally& o) {
    sent += o.sent;
    succeeded += o.succeeded;
    rejected += o.rejected;
    shed += o.shed;
    non_ok += o.non_ok;
    wrong += o.wrong;
  }
};

/// What one measured window produced. Durations are in nanoseconds.
struct Window {
  Window(uint64_t start, uint64_t end)
      : wall_s(NsToS(end - start)),
        latency(start, end, 1),
        bfq(start, end, 2),
        complex(start, end, 3),
        pin(start, end, 4) {}

  Tally tally;
  double wall_s;
  SliceRecorder latency;     // every completed request, by its start
  std::vector<uint64_t> lag;  // open loop: actual - scheduled send
  double lag_p99_us = 0;
  // serve probe
  std::vector<uint64_t> admit, queue, service, unattributed;
  double batch_size_mean = 0;
  bool backlog_exceeded = false;
  // answer_cold
  SliceRecorder bfq, complex;
  // live_rw
  std::vector<uint64_t> write_latency;
  SliceRecorder pin;
  uint64_t write_ops = 0;
  uint64_t overlay_edges_sum = 0;
  uint64_t merges = 0;
  // Registry deltas over the window.
  uint64_t answer_hits = 0, answer_misses = 0;
  uint64_t value_hits = 0, value_misses = 0, value_evictions = 0;
  uint64_t wide_recorded = 0, wide_dropped = 0;
};

/// Process-wide counters taken around a window: the engines' cache tallies
/// live in the metrics registry, wide events in their sink. Taking a mark
/// drains the wide-event rings, so Dropped() then counts only events
/// overwritten during the window.
struct RegistryMark {
  RegistryMark() {
    (void)obs::WideEvents::Drain();
    snapshot = obs::MetricsRegistry::Global().Snapshot();
    wide_recorded = obs::WideEvents::TotalRecorded();
    wide_dropped = obs::WideEvents::Dropped();
  }

  obs::MetricsSnapshot snapshot;
  uint64_t wide_recorded = 0;
  uint64_t wide_dropped = 0;

  void Delta(Window* w) const {
    const RegistryMark now;
    auto d = [&](const char* name) {
      return RegistryCounter(now.snapshot, name) -
             RegistryCounter(snapshot, name);
    };
    w->answer_hits = d("online.answer_cache.hits");
    w->answer_misses = d("online.answer_cache.misses");
    w->value_hits = d("online.value_cache.hits");
    w->value_misses = d("online.value_cache.misses");
    w->value_evictions = d("online.value_cache.evictions");
    w->wide_recorded = now.wide_recorded - wide_recorded;
    w->wide_dropped = now.wide_dropped - wide_dropped;
  }
};

uint64_t PoissonGapNs(Rng& rng, double per_second) {
  return static_cast<uint64_t>(-std::log(1.0 - rng.UniformDouble()) /
                               per_second * 1e9);
}

/// Open-loop Poisson arrivals at `qps` from one generator thread (the
/// caller) through Server::Submit, Zipfian over the pool.
/// Latency runs from each request's scheduled send to its callback. Stops
/// sending once more than `max_backlog` requests are outstanding (0 =
/// never).
Window RunServe(serve::Server& server, const Inputs& inputs,
                const std::vector<core::AnswerResult>& expected, double qps,
                double seconds, uint64_t seed, uint64_t max_backlog,
                SpanRecorder* spans, uint64_t request_base) {
  enum Outcome : uint8_t { kOk, kWrong, kNonOk, kShed };
  struct Slots {
    explicit Slots(size_t n)
        : scheduled(n), sent(n), admitted(n), done(n), queue(n), service(n),
          outcome(n) {}
    std::vector<uint64_t> scheduled, sent, admitted, done, queue, service;
    std::vector<uint8_t> outcome;
    std::atomic<uint64_t> resolved{0};
  };
  const size_t capacity = static_cast<size_t>(qps * seconds * 1.3) + 1024;
  auto slots = std::make_unique<Slots>(capacity);
  Slots* s = slots.get();
  const std::vector<core::AnswerResult>* want = &expected;

  Rng rng(seed);
  ZipfianGenerator zipf(inputs.pool.size(), kZipfS);
  const serve::ServingStats before = server.stats();
  const RegistryMark mark;
  const uint64_t start = NowNs() + 1'000'000;
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  Window w(start, end);
  uint64_t due = start;
  uint64_t accepted = 0;
  size_t n = 0;
  for (; n < capacity; ++n) {
    due += PoissonGapNs(rng, qps);
    if (due >= end) break;
    if (max_backlog != 0 &&
        accepted - s->resolved.load(std::memory_order_relaxed) > max_backlog) {
      w.backlog_exceeded = true;
      break;
    }
    const uint32_t q = static_cast<uint32_t>(zipf.Sample(rng));
    WaitUntilNs(due);
    const size_t i = n;
    s->scheduled[i] = due;
    s->sent[i] = NowNs();
    const Status admitted = server.Submit(
        inputs.pool[q], core::AnswerOptions{},
        [s, want, i, q](serve::ServeResponse r) {
          s->done[i] = NowNs();
          s->queue[i] = r.queue_ns;
          s->service[i] = r.service_ns;
          const core::AnswerResult& e = (*want)[q];
          if (r.batch_size == 0) {
            s->outcome[i] = kShed;
          } else if (!r.result.status.ok()) {
            s->outcome[i] = kNonOk;
          } else if (r.result.answered == e.answered &&
                     r.result.value == e.value) {
            s->outcome[i] = kOk;
          } else {
            s->outcome[i] = kWrong;
          }
          s->resolved.fetch_add(1, std::memory_order_release);
        });
    s->admitted[i] = NowNs();
    if (admitted.ok()) {
      ++accepted;
    } else {
      ++w.tally.rejected;
    }
  }
  const uint64_t drain_deadline = NowNs() + 30'000'000'000ull;
  while (s->resolved.load(std::memory_order_acquire) < accepted &&
         NowNs() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (s->resolved.load(std::memory_order_acquire) < accepted) {
    std::fprintf(stderr, "serve probe: requests still outstanding after 30 s\n");
    std::exit(1);
  }
  mark.Delta(&w);
  const serve::ServingStats after = server.stats();
  w.batch_size_mean =
      Ratio(static_cast<double>(after.completed - before.completed),
            static_cast<double>(after.batches - before.batches));
  w.tally.sent = n;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t lag = s->sent[i] - s->scheduled[i];
    w.lag.push_back(lag);
    w.admit.push_back(s->admitted[i] - s->sent[i]);
    if (s->done[i] == 0) continue;  // rejected at admission: no callback
    switch (s->outcome[i]) {
      case kOk: ++w.tally.succeeded; break;
      case kWrong: ++w.tally.wrong; break;
      case kNonOk: ++w.tally.non_ok; break;
      default: ++w.tally.shed; continue;
    }
    const uint64_t total = s->done[i] - s->scheduled[i];
    w.latency.Record(s->scheduled[i], total);
    w.queue.push_back(s->queue[i]);
    w.service.push_back(s->service[i]);
    const uint64_t known = lag + s->queue[i] + s->service[i];
    w.unattributed.push_back(total > known ? total - known : 0);
    const uint64_t request = request_base + i;
    spans->Record(0, "loadgen.request", request, s->scheduled[i], s->done[i]);
    spans->Record(0, "loadgen.lag", request, s->scheduled[i], s->sent[i]);
    spans->Record(0, "serve.submit", request, s->sent[i], s->admitted[i]);
  }
  w.lag_p99_us = Percentile(w.lag, 0.99) / 1e3;
  return w;
}

/// nproc closed-loop callers on the trained engine: no server, no answer
/// cache. Each caller walks the stream from its own offset; every 16th call
/// is a Table 15 complex question through AnswerComplex.
Window RunCold(const core::KbqaSystem& kbqa, const Inputs& inputs,
               const std::vector<core::AnswerResult>& expected,
               double seconds, uint64_t seed, SpanRecorder* spans,
               uint64_t request_base) {
  const int threads = NumCpus();
  const size_t n = inputs.questions.size();
  const RegistryMark mark;
  const uint64_t start = NowNs() + 2'000'000;
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  Window w(start, end);
  std::vector<Window> per;
  for (int t = 0; t < threads; ++t) per.emplace_back(start, end);
  std::vector<std::thread> callers;
  for (int t = 0; t < threads; ++t) {
    callers.emplace_back([&, t] {
      Window& me = per[static_cast<size_t>(t)];
      size_t next = static_cast<size_t>(seed % n) +
                    static_cast<size_t>(t) * n / static_cast<size_t>(threads);
      WaitUntilNs(start);
      for (uint64_t j = 0;; ++j) {
        const uint64_t t0 = NowNs();
        if (t0 >= end) break;
        const uint64_t request =
            request_base + (j << 8) + static_cast<uint64_t>(t);
        ++me.tally.sent;
        if (j % kComplexEvery == kComplexEvery - 1) {
          const ComplexCase& c =
              kComplexCases[(j / kComplexEvery + static_cast<uint64_t>(t)) %
                            kNumComplex];
          const core::ComplexAnswer a = kbqa.AnswerComplex(c.question);
          const uint64_t t1 = NowNs();
          me.latency.Record(t0, t1 - t0);
          me.complex.Record(t0, t1 - t0);
          spans->Record(t, "core.kbqa.answer_complex", request, t0, t1);
          if (!a.answer.status.ok()) {
            ++me.tally.non_ok;
          } else if (a.answer.answered &&
                     MatchesGold(a.answer.value, c.gold)) {
            ++me.tally.succeeded;
          } else {
            ++me.tally.wrong;
          }
          continue;
        }
        const size_t i = next++ % n;
        const core::AnswerResult r = kbqa.Answer(inputs.questions[i]);
        const uint64_t t1 = NowNs();
        me.latency.Record(t0, t1 - t0);
        me.bfq.Record(t0, t1 - t0);
        spans->Record(t, "core.online.answer", request, t0, t1);
        if (!r.status.ok()) {
          ++me.tally.non_ok;
        } else if (r.answered == expected[i].answered &&
                   r.value == expected[i].value) {
          ++me.tally.succeeded;
        } else {
          ++me.tally.wrong;
        }
      }
    });
  }
  for (std::thread& c : callers) c.join();
  mark.Delta(&w);
  for (const Window& me : per) {
    w.tally.Add(me.tally);
    w.latency.Merge(me.latency);
    w.bfq.Merge(me.bfq);
    w.complex.Merge(me.complex);
  }
  return w;
}

/// The live_rw writer's op stream: extra values on pool entities, new
/// entities, deletes of earlier adds, and tombstones on other entities'
/// non-name triples (so pool questions stay linkable and answerable).
class WriteStream {
 public:
  WriteStream(const corpus::World& world,
              const std::vector<rdf::TermId>& pool_entities, uint64_t seed)
      : kb_(world.kb),
        name_like_(world.name_like),
        pool_set_(pool_entities.begin(), pool_entities.end()),
        pool_(pool_entities),
        entities_(world.kb.AllEntities()),
        rng_(seed) {}

  rdf::MutationOp Next() {
    const uint64_t roll = rng_.Uniform(10);
    rdf::MutationOp op;
    if (roll >= 3 && roll < 5 && !added_.empty()) {
      const size_t i = rng_.Uniform(added_.size());
      op = added_[i];
      op.is_delete = true;
      added_[i] = added_.back();
      added_.pop_back();
      return op;
    }
    if (roll >= 5 && roll < 7 && Tombstone(&op)) return op;
    if (roll < 3) {
      const rdf::TermId e = pool_[rng_.Uniform(pool_.size())];
      op = {false, kb_.NodeString(e), "live_fact",
            "extra value " + std::to_string(counter_++), true};
    } else {
      const std::string tag = std::to_string(counter_++);
      op = {false, "live/entity" + tag, "live_fact", "live value " + tag,
            true};
    }
    added_.push_back(op);
    return op;
  }

 private:
  bool Tombstone(rdf::MutationOp* op) {
    const rdf::TermId s = entities_[rng_.Uniform(entities_.size())];
    if (pool_set_.count(s) != 0) return false;
    const auto out = kb_.Out(s);
    if (out.empty()) return false;
    const rdf::PredicateObject& po = out[rng_.Uniform(out.size())];
    if (name_like_.count(po.p) != 0) return false;
    *op = {true, kb_.NodeString(s), kb_.PredicateString(po.p),
           kb_.NodeString(po.o), kb_.IsLiteral(po.o)};
    return true;
  }

  const rdf::KnowledgeBase& kb_;
  const std::unordered_set<rdf::PredId>& name_like_;
  std::unordered_set<rdf::TermId> pool_set_;
  std::vector<rdf::TermId> pool_;
  std::vector<rdf::TermId> entities_;
  Rng rng_;
  uint64_t counter_ = 0;
  std::vector<rdf::MutationOp> added_;
};

/// nproc-1 closed-loop readers on LiveKbqaEngine::AnswerCached (Zipfian over
/// the pool). Each reader also applies one 16-op batch after every
/// kReadsPerWrite of its reads, under the default auto-merge policy. Every
/// Apply orphans both caches, so the read cost follows the reads between
/// writes: a fixed ratio gives every run the same work, while writes on a
/// clock would make it follow the random gaps between them.
Window RunLive(System& sys, const Inputs& inputs, WriteStream* writes,
               double seconds, uint64_t seed, SpanRecorder* spans,
               uint64_t request_base) {
  const int readers = std::max(1, NumCpus() - 1);
  rdf::MutableKb& live = *sys.live;
  const core::LiveKbqaEngine& engine = *sys.live_engine;
  const bool traced = spans->enabled();
  const RegistryMark mark;
  const uint64_t merges_before = live.merges_completed();
  const uint64_t start = NowNs() + 2'000'000;
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  Window w(start, end);
  std::vector<Window> per;
  for (int t = 0; t < readers; ++t) per.emplace_back(start, end);
  // Guards the write stream, the order of its batches and their spans.
  std::mutex write_mu;
  uint64_t batches = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < readers; ++t) {
    threads.emplace_back([&, t] {
      Window& me = per[static_cast<size_t>(t)];
      Rng rng(seed * 1000003 + static_cast<uint64_t>(t));
      ZipfianGenerator zipf(inputs.pool.size(), kZipfS);
      WaitUntilNs(start);
      for (uint64_t j = 0;; ++j) {
        const std::string& q = inputs.pool[zipf.Sample(rng)];
        const uint64_t request =
            request_base + (j << 8) + static_cast<uint64_t>(t);
        uint64_t t0 = NowNs();
        if (t0 >= end) break;
        // Traced: time, on every 16th read, the snapshot pin each answer
        // starts with, alone.
        if (traced && j % 16 == 0) {
          const auto pinned = live.Pin();
          const uint64_t p1 = NowNs();
          me.pin.Record(t0, p1 - t0);
          spans->Record(t, "rdf.mutable.pin", request, t0, p1);
          t0 = p1;
        }
        ++me.tally.sent;
        const core::AnswerResult r =
            engine.AnswerCached(q, core::AnswerOptions{});
        const uint64_t t1 = NowNs();
        me.latency.Record(t0, t1 - t0);
        spans->Record(t, "core.live.answer", request, t0, t1);
        if (r.status.ok()) {
          ++me.tally.succeeded;
        } else {
          ++me.tally.non_ok;
        }
        if ((j + 1) % kReadsPerWrite != 0) continue;
        std::lock_guard<std::mutex> lock(write_mu);
        std::vector<rdf::MutationOp> batch;
        for (int k = 0; k < kOpsPerBatch; ++k) batch.push_back(writes->Next());
        const uint64_t a0 = NowNs();
        live.Apply(batch);
        const uint64_t a1 = NowNs();
        me.write_latency.push_back(a1 - a0);
        me.write_ops += batch.size();
        // Writes get their own span buffer; the readers' fill with reads.
        spans->Record(readers, "rdf.mutable.apply",
                      request_base + (1ull << 40) + batches++, a0, a1);
        if (traced) {
          const auto snap = live.Pin();
          me.overlay_edges_sum +=
              snap->overlay->num_adds + snap->overlay->tombstones.size();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  mark.Delta(&w);
  w.merges = live.merges_completed() - merges_before;
  for (const Window& me : per) {
    w.tally.Add(me.tally);
    w.latency.Merge(me.latency);
    w.pin.Merge(me.pin);
    w.write_latency.insert(w.write_latency.end(), me.write_latency.begin(),
                           me.write_latency.end());
    w.write_ops += me.write_ops;
    w.overlay_edges_sum += me.overlay_edges_sum;
  }
  w.tally.sent += w.write_latency.size();  // every write batch is an attempt
  w.tally.succeeded += w.write_latency.size();
  return w;
}

/// Freshness: replaces the single literal value of up to 8 pool facts, then
/// requires reads after WaitForMergeIdle, and again after a forced merge,
/// to return the new values.
void CheckFreshness(System& sys, const Inputs& inputs, uint64_t seed,
                    Checks* checks) {
  rdf::MutableKb& live = *sys.live;
  live.WaitForMergeIdle();
  const auto snap = live.Pin();
  std::vector<rdf::MutationOp> batch;
  std::vector<std::pair<size_t, std::string>> probes;
  std::unordered_set<rdf::TermId> used;
  for (size_t i = 0; i < inputs.pool.size() && probes.size() < 8; ++i) {
    const core::AnswerResult r =
        sys.live_engine->AnswerCached(inputs.pool[i], core::AnswerOptions{});
    // A tie would be broken by value id, and a fresh value's id is the
    // newest: only a strict winner keeps winning after its value changes.
    if (!r.answered || r.predicate.find("->") != std::string::npos ||
        (r.ranked.size() > 1 && r.ranked[0].score <= r.ranked[1].score)) {
      continue;
    }
    const rdf::TermId e = r.ranked.front().best_entity;
    const auto p = snap->LookupPredicate(r.predicate);
    if (!p || !used.insert(e).second) continue;
    const std::vector<rdf::TermId> values = snap->Objects(e, *p);
    if (values.size() != 1 || !snap->IsLiteral(values[0]) ||
        snap->NodeString(values[0]) != r.value) {
      continue;
    }
    const std::string fresh = "fresh value " + std::to_string(seed) + " " +
                              std::to_string(probes.size());
    batch.push_back({true, snap->NodeString(e), r.predicate, r.value, true});
    batch.push_back({false, snap->NodeString(e), r.predicate, fresh, true});
    probes.emplace_back(i, fresh);
  }
  checks->Expect(probes.size() >= 4, "live_rw: at least 4 freshness probes (" +
                                         std::to_string(probes.size()) + ")");
  live.Apply(batch);
  // The old value may keep winning through another (entity, predicate)
  // pair, so a read reflects the write when the new value is a candidate.
  auto verify = [&](const char* when) {
    const auto now = live.Pin();
    for (const auto& [i, fresh] : probes) {
      const core::AnswerResult r =
          sys.live_engine->AnswerCached(inputs.pool[i], core::AnswerOptions{});
      const std::optional<rdf::TermId> fresh_id = now->LookupNode(fresh);
      bool candidate = false;
      for (const core::AnswerCandidate& c : r.ranked) {
        candidate = candidate || (fresh_id && c.value == *fresh_id);
      }
      checks->Expect(candidate, std::string("live_rw freshness ") + when +
                                    ": '" + inputs.pool[i] + "' -> '" +
                                    r.value + "', missing '" + fresh + "'");
    }
  };
  live.WaitForMergeIdle();
  verify("after WaitForMergeIdle");
  live.ForceMerge();
  verify("after a forced merge");
}

// ---------------------------------------------------------------------------
// Traced-run replays: the workload's own inputs through each layer's public
// calls, timed per call.

struct PipelineCost {
  uint64_t questions = 0;
  uint64_t tokenize_ns = 0, ner_ns = 0, conceptualize_ns = 0,
           template_ns = 0, value_ns = 0;
  uint64_t conceptualize_calls = 0, template_lookups = 0, template_hits = 0,
           value_lookups = 0;

  double PerQ(uint64_t x) const {
    return Ratio(static_cast<double>(x), static_cast<double>(questions));
  }
};

/// Replays tokenize -> NER -> conceptualize -> template lookup -> V(e, p+)
/// in the order OnlineInference walks them, over `questions` (cycled to at
/// least `min_replays`). `lookup(entity, path, out)` is the engine's value
/// source.
template <typename Lookup>
PipelineCost ReplayPipeline(const core::KbqaSystem& kbqa,
                            const corpus::World& world,
                            const std::vector<std::string>& questions,
                            size_t min_replays, Lookup&& lookup,
                            SpanRecorder* spans, int buffer,
                            uint64_t request_base) {
  const core::OnlineInference::Options& opt = kbqa.options().online;
  const core::TemplateStore& store = kbqa.template_store();
  PipelineCost cost;
  std::vector<rdf::TermId> values;
  for (size_t k = 0; k < std::max(min_replays, questions.size()); ++k) {
    const std::string& question = questions[k % questions.size()];
    const uint64_t request = request_base + k;
    ++cost.questions;
    const uint64_t q0 = NowNs();
    const std::vector<std::string> tokens = nlp::TokenizeQuestion(question);
    const uint64_t q1 = NowNs();
    const std::vector<nlp::Mention> mentions = kbqa.ner().FindMentions(tokens);
    const uint64_t q2 = NowNs();
    cost.tokenize_ns += q1 - q0;
    cost.ner_ns += q2 - q1;
    spans->Record(buffer, "nlp.tokenize", request, q0, q1);
    spans->Record(buffer, "nlp.ner", request, q1, q2);
    for (const nlp::Mention& mention : mentions) {
      std::vector<std::string> context;
      for (size_t i = 0; i < tokens.size(); ++i) {
        if (i < mention.begin || i >= mention.end) context.push_back(tokens[i]);
      }
      for (rdf::TermId entity : mention.entities) {
        const uint64_t c0 = NowNs();
        std::vector<taxonomy::ScoredCategory> categories =
            world.taxonomy.Conceptualize(entity, context);
        const uint64_t c1 = NowNs();
        cost.conceptualize_ns += c1 - c0;
        ++cost.conceptualize_calls;
        spans->Record(buffer, "taxonomy.conceptualize", request, c0, c1);
        if (categories.size() > opt.max_categories_per_entity) {
          categories.resize(opt.max_categories_per_entity);
        }
        for (const taxonomy::ScoredCategory& sc : categories) {
          if (sc.probability < opt.min_category_prob) continue;
          const uint64_t t0 = NowNs();
          const auto t = store.Lookup(core::MakeTemplateText(
              tokens, mention.begin, mention.end,
              world.taxonomy.CategoryName(sc.category)));
          const uint64_t t1 = NowNs();
          cost.template_ns += t1 - t0;
          ++cost.template_lookups;
          spans->Record(buffer, "core.template.lookup", request, t0, t1);
          if (!t) continue;
          ++cost.template_hits;
          for (const core::PredicateProb& pp : store.Distribution(*t)) {
            if (pp.probability < opt.min_predicate_prob) continue;
            const uint64_t v0 = NowNs();
            lookup(entity, pp.path, &values);
            const uint64_t v1 = NowNs();
            cost.value_ns += v1 - v0;
            ++cost.value_lookups;
            spans->Record(buffer, "rdf.value.walk", request, v0, v1);
          }
        }
      }
    }
    spans->Record(buffer, "replay.question", request, q0, NowNs());
  }
  return cost;
}

struct TrainSplit {
  double seed_reduction_s = 0, expand_s = 0, em_s = 0, compress_s = 0,
         pattern_index_s = 0;
};

/// Replays KbqaSystem::Train's public steps with the trained system's
/// options; the replay must reproduce the trained template count.
TrainSplit ReplayTrain(const System& sys, SpanRecorder* spans, int buffer,
                       Checks* checks) {
  const corpus::World& world = *sys.world;
  const core::KbqaSystem& kbqa = *sys.kbqa;
  const core::KbqaOptions& options = kbqa.options();
  const uint64_t request = 1ull << 50;
  TrainSplit split;
  auto timed = [&](const char* name, double* seconds, auto&& step) {
    const uint64_t t0 = NowNs();
    step();
    const uint64_t t1 = NowNs();
    *seconds = NsToS(t1 - t0);
    spans->Record(buffer, name, request, t0, t1);
  };

  std::vector<nlp::PatternQuestion> pattern_questions;
  std::vector<rdf::TermId> seeds;
  timed("core.train.seed_reduction", &split.seed_reduction_s, [&] {
    std::unordered_set<rdf::TermId> seed_set;
    for (const corpus::QaPair& pair : sys.corpus.pairs) {
      nlp::PatternQuestion pq;
      pq.tokens = nlp::TokenizeQuestion(pair.question);
      for (const nlp::Mention& m : kbqa.ner().FindMentions(pq.tokens)) {
        pq.mention_spans.emplace_back(m.begin, m.end);
        seed_set.insert(m.entities.begin(), m.entities.end());
      }
      pattern_questions.push_back(std::move(pq));
    }
    seeds.assign(seed_set.begin(), seed_set.end());
    std::sort(seeds.begin(), seeds.end());
  });

  rdf::ExpansionOptions expansion = options.expansion;
  if (expansion.num_threads == 0) expansion.num_threads = options.em.num_threads;
  std::optional<rdf::ExpandedKb> ekb;
  timed("rdf.expand", &split.expand_s, [&] {
    auto built =
        rdf::ExpandedKb::Build(world.kb, seeds, world.name_like, expansion);
    if (built.ok()) ekb.emplace(std::move(built).value());
  });
  checks->Expect(ekb.has_value(), "train replay: expansion");
  if (!ekb) return split;

  nlp::QuestionClassifier classifier;
  core::EvExtractor extractor(&world.kb, &*ekb, &kbqa.ner(), &classifier,
                              &world.predicate_class, &world.name_like,
                              options.ev);
  core::EmLearner learner(&world.kb, &*ekb, &world.taxonomy, &extractor,
                          options.em);
  core::TemplateStore store;
  core::EmStats stats;
  Status em;
  timed("core.em", &split.em_s,
        [&] { em = learner.Train(sys.corpus, &store, &stats); });
  checks->Expect(em.ok() && store.num_templates() ==
                                kbqa.template_store().num_templates(),
                 "train replay reproduces the trained template store");

#ifdef PERFBENCH_HAS_COMPRESSED_EKB
  if (kbqa.compressed_expanded_kb() != nullptr) {
    rdf::CompressedExpandedKb::Options compress;
    compress.target_block_edges = options.compressed_block_edges;
    bool compressed = false;
    timed("rdf.compress", &split.compress_s, [&] {
      compressed =
          rdf::CompressedExpandedKb::FromExpanded(*ekb, compress).ok();
    });
    checks->Expect(compressed, "train replay: compression");
  }
#endif

  size_t patterns = 0;
  timed("nlp.pattern_index", &split.pattern_index_s, [&] {
    patterns = nlp::PatternIndex::Build(pattern_questions).num_patterns();
  });
  checks->Expect(patterns > 0, "train replay: pattern index");
  return split;
}

// ---------------------------------------------------------------------------
// Driver.

double MedianOf(std::vector<double> v) { return Percentile(v, 0.5); }

/// Emits `specs` in order from `values`; every computed value must be
/// listed (a typo would otherwise drop a metric silently).
bool EmitAll(std::span<const MetricSpec> specs,
             std::map<std::string, double> values, MetricSink* sink) {
  for (const MetricSpec& m : specs) {
    const auto it = values.find(m.name);
    sink->Add(m.name, it == values.end() ? 0.0 : it->second, m.unit);
    if (it != values.end()) values.erase(it);
  }
  for (const auto& [name, value] : values) {
    std::fprintf(stderr, "internal error: unlisted metric %s\n", name.c_str());
  }
  return values.empty();
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const int cpus = NumCpus();
  std::fprintf(stderr,
               "[config] workload=%s seed=%llu seconds=%g trace=%d cpus=%d\n",
               args.workload_name.c_str(),
               static_cast<unsigned long long>(args.seed), args.seconds,
               args.trace ? 1 : 0, cpus);

  // ---- Set-up, repeated: setup_s and train_s are the medians. ----
  Inputs inputs;
  std::unique_ptr<System> sys;
  std::vector<double> setup_s, train_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    sys.reset();
    sys = SetUp(args, &inputs);
    setup_s.push_back(sys->setup_s);
    train_s.push_back(sys->train_s);
    std::fprintf(stderr, "[setup] %d: %.3f s (Train %.3f s)\n", k + 1,
                 sys->setup_s, sys->train_s);
  }

  Checks checks;
  checks.Expect(inputs.questions.size() == kStreamSize &&
                    inputs.pool.size() == kPoolSize,
                "seeded inputs have the configured sizes");
  const Quality quality = CheckAnswers(args, *sys, inputs, &checks);
  std::fprintf(stderr, "[check] precision %.4f recall %.4f over %zu BFQs\n",
               quality.precision, quality.recall, inputs.questions.size());
  std::vector<core::AnswerResult> pool_expected;
  for (const std::string& q : inputs.pool) {
    pool_expected.push_back(sys->kbqa->Answer(q));
  }

  SpanRecorder spans(args.trace, cpus + 1);
  SpanRecorder no_spans(false, 0);
  std::unique_ptr<WriteStream> writes;
  if (args.workload == Workload::kLiveRw) {
    writes = std::make_unique<WriteStream>(*sys->world, inputs.pool_entities,
                                           args.seed);
  }
  auto window = [&](double seconds, SpanRecorder* recorder, uint64_t salt) {
    const uint64_t seed = args.seed * 1000003 + salt;
    const uint64_t request_base = salt << 44;
    switch (args.workload) {
      case Workload::kAnswerCold:
        return RunCold(*sys->kbqa, inputs, sys->warm_answers, seconds, seed,
                       recorder, request_base);
      case Workload::kLiveRw:
        return RunLive(*sys, inputs, writes.get(), seconds, seed, recorder,
                       request_base);
    }
    std::abort();
  };

  Tally total;
  MetricSink sink;
  std::map<std::string, double> metrics;
  if (!args.trace) {
    Window w = window(args.seconds, &no_spans, 1);
    total.Add(w.tally);
    metrics["setup_s"] = MedianOf(setup_s);
    metrics["train_s"] = MedianOf(train_s);
    metrics["rss_mb"] = PeakRssMb();
    const Summary summary = w.latency.Summarize();
    metrics["throughput_qps"] = summary.qps;
    metrics["latency_p50_us"] = summary.p50_us;
    metrics["latency_p99_us"] = summary.p99_us;
    metrics["answer_precision"] = quality.precision;
    metrics["answer_recall"] = quality.recall;
    if (!EmitAll(kEndToEnd, metrics, &sink)) return 1;
  } else {
    Window plain = window(args.seconds / 2, &no_spans, 1);
    Window w = window(args.seconds / 2, &spans, 2);
    total.Add(plain.tally);
    total.Add(w.tally);
    const Summary untraced = plain.latency.Summarize();
    const Summary traced = w.latency.Summarize();
    metrics["trace.overhead_p50_us"] = traced.p50_us - untraced.p50_us;
    metrics["trace.overhead_p99_us"] = traced.p99_us - untraced.p99_us;
    metrics["trace.overhead_qps_frac"] =
        Ratio(untraced.qps - traced.qps, untraced.qps);

    // Load generator and accounting over both halves.
    Tally windows = plain.tally;
    windows.Add(w.tally);
    metrics["loadgen.sent"] = static_cast<double>(windows.sent);
    metrics["loadgen.succeeded"] = static_cast<double>(windows.succeeded);
    metrics["loadgen.failed"] = static_cast<double>(windows.failed());
    metrics["loadgen.non_ok"] = static_cast<double>(windows.non_ok);
    metrics["loadgen.failed_frac"] =
        Ratio(static_cast<double>(windows.failed()),
              static_cast<double>(windows.sent));

    // The answer call as this workload makes it.
    const SliceRecorder& calls =
        args.workload == Workload::kAnswerCold ? w.bfq : w.latency;
    const double answer_mean_ns = calls.MeanNs();
    const double answer_calls = static_cast<double>(calls.Count());
    metrics["core.online.answer_p50_us"] = calls.PercentileNs(0.5) / 1e3;
    metrics["core.online.answer_p99_us"] = calls.PercentileNs(0.99) / 1e3;
    const double answer_lookups =
        static_cast<double>(w.answer_hits + w.answer_misses);
    const double value_lookups =
        static_cast<double>(w.value_hits + w.value_misses);
    metrics["core.online.answer_cache_hit_frac"] =
        Ratio(static_cast<double>(w.answer_hits), answer_lookups);
    metrics["core.online.answer_cache_lookups"] = answer_lookups;
    metrics["core.online.value_cache_hit_frac"] =
        Ratio(static_cast<double>(w.value_hits), value_lookups);
    metrics["core.online.value_cache_lookups"] = value_lookups;
    metrics["core.online.value_cache_evictions"] =
        static_cast<double>(w.value_evictions);

    if (args.workload == Workload::kLiveRw) {
      // The serve probe: the front door under open-loop load over the
      // frozen engine, after the live window. Its figures are per-layer
      // only: on a 4-vCPU virtual machine its tail follows the host's wake-up
      // latency and swung 10x between runs of the same code.
      Window probe = RunServe(*sys->server, inputs, pool_expected, kServeQps,
                              kServeProbeSeconds, args.seed * 1000003 + 3, 0,
                              &spans, 3ull << 44);
      total.Add(probe.tally);
      std::fprintf(stderr,
                   "[serve probe] %.0f req/s for %.0f s: p50 %.1f us, p99 "
                   "%.1f us, generator lag p99 %.1f us\n",
                   kServeQps, kServeProbeSeconds,
                   probe.latency.PercentileNs(0.5) / 1e3,
                   probe.latency.PercentileNs(0.99) / 1e3, probe.lag_p99_us);
      metrics["loadgen.lag_p50_us"] = Percentile(probe.lag, 0.5) / 1e3;
      metrics["loadgen.lag_p99_us"] = probe.lag_p99_us;
      metrics["serve.admit_p50_ns"] = Percentile(probe.admit, 0.5);
      metrics["serve.admit_p99_ns"] = Percentile(probe.admit, 0.99);
      metrics["serve.queue_p50_us"] = Percentile(probe.queue, 0.5) / 1e3;
      metrics["serve.queue_p99_us"] = Percentile(probe.queue, 0.99) / 1e3;
      metrics["serve.service_p50_us"] = Percentile(probe.service, 0.5) / 1e3;
      metrics["serve.service_p99_us"] =
          Percentile(probe.service, 0.99) / 1e3;
      metrics["serve.batch_size_mean"] = probe.batch_size_mean;
      metrics["serve.rejected"] = static_cast<double>(probe.tally.rejected);
      metrics["serve.shed"] = static_cast<double>(probe.tally.shed);
      metrics["serve.unattributed_p50_us"] =
          Percentile(probe.unattributed, 0.5) / 1e3;
      metrics["obs.wide_events_recorded"] =
          static_cast<double>(probe.wide_recorded);
      metrics["obs.wide_events_dropped_frac"] =
          Ratio(static_cast<double>(probe.wide_dropped),
                static_cast<double>(probe.wide_recorded));

      // serve.slo_qps over the fixed ladder; stops at the first miss.
      double slo_qps = 0;
      uint64_t salt = 3;
      for (const double qps : kSloLadderQps) {
        // A late step is re-run once; late twice, the generator cannot
        // offer this rate through Submit, and the step misses.
        std::optional<Window> step;
        for (int attempt = 0; attempt < 2; ++attempt) {
          ++salt;
          step.emplace(RunServe(*sys->server, inputs, pool_expected, qps,
                                kSloStepSeconds, args.seed * 1000003 + salt,
                                kSloMaxBacklog, &no_spans, salt << 44));
          total.Add(step->tally);
          if (step->lag_p99_us <= kServeMaxLagP99Us) break;
        }
        const double p99 = step->latency.PercentileNs(0.99) / 1e3;
        const bool pass = !step->backlog_exceeded &&
                          step->lag_p99_us <= kServeMaxLagP99Us &&
                          step->tally.failed() == 0 && p99 <= kSloP99LimitUs;
        std::fprintf(stderr,
                     "[slo] %.0f qps: sent %llu, p99 %.1f us, lag p99 %.1f "
                     "us, backlog %s -> %s\n",
                     qps, static_cast<unsigned long long>(step->tally.sent),
                     p99, step->lag_p99_us,
                     step->backlog_exceeded ? "grew" : "bounded",
                     pass ? "meets" : "misses");
        if (!pass) break;
        slo_qps = qps;
      }
      metrics["serve.slo_qps"] = slo_qps;
    }
    if (args.workload == Workload::kLiveRw) {
      metrics["rdf.mutable.write_p50_us"] =
          Percentile(w.write_latency, 0.5) / 1e3;
      metrics["rdf.mutable.write_p99_us"] =
          Percentile(w.write_latency, 0.99) / 1e3;
      metrics["rdf.mutable.apply_per_op_us"] =
          Ratio(Mean(w.write_latency) *
                    static_cast<double>(w.write_latency.size()),
                static_cast<double>(w.write_ops)) /
          1e3;
      metrics["rdf.mutable.overlay_edges_mean"] =
          Ratio(static_cast<double>(w.overlay_edges_sum),
                static_cast<double>(w.write_latency.size()));
      metrics["rdf.mutable.pin_ns"] = w.pin.PercentileNs(0.5);
      metrics["rdf.mutable.merges"] =
          static_cast<double>(w.merges + plain.merges);
    }

    // The replays below time single calls; let the last merge finish first.
    if (args.workload == Workload::kLiveRw) sys->live->WaitForMergeIdle();

    // Pipeline replay over the workload's own questions.
    const std::vector<std::string>& replay_questions =
        args.workload == Workload::kAnswerCold ? inputs.questions
                                               : inputs.pool;
    const rdf::PathDictionary& paths = sys->kbqa->expanded_kb().paths();
    const uint64_t replay_base = 1ull << 52;
    PipelineCost pipeline;
    if (args.workload == Workload::kLiveRw) {
      const auto snap = sys->live->Pin();
      pipeline = ReplayPipeline(
          *sys->kbqa, *sys->world, replay_questions, 20000,
          [&](rdf::TermId e, rdf::PathId p, std::vector<rdf::TermId>* out) {
            *out = snap->ObjectsViaPath(e, paths.GetPath(p));
          },
          &spans, cpus, replay_base);
    } else {
      const rdf::KnowledgeBase& kb = sys->world->kb;
      pipeline = ReplayPipeline(
          *sys->kbqa, *sys->world, replay_questions, 20000,
          [&](rdf::TermId e, rdf::PathId p, std::vector<rdf::TermId>* out) {
#ifdef PERFBENCH_HAS_COMPRESSED_EKB
            const rdf::CompressedExpandedKb* cekb =
                sys->kbqa->compressed_expanded_kb();
            if (cekb != nullptr && cekb->TryObjects(e, p, out)) return;
#endif
            *out = rdf::ObjectsViaPath(kb, e, paths.GetPath(p));
          },
          &spans, cpus, replay_base);
    }
    metrics["nlp.tokenize_ns"] = pipeline.PerQ(pipeline.tokenize_ns);
    metrics["nlp.ner_ns"] = pipeline.PerQ(pipeline.ner_ns);
    metrics["taxonomy.conceptualize_ns"] =
        Ratio(static_cast<double>(pipeline.conceptualize_ns),
              static_cast<double>(pipeline.conceptualize_calls));
    metrics["core.template.lookup_ns"] =
        Ratio(static_cast<double>(pipeline.template_ns),
              static_cast<double>(pipeline.template_lookups));
    metrics["core.template.hit_frac"] =
        Ratio(static_cast<double>(pipeline.template_hits),
              static_cast<double>(pipeline.template_lookups));
    metrics["rdf.value.walk_ns"] =
        Ratio(static_cast<double>(pipeline.value_ns),
              static_cast<double>(pipeline.value_lookups));
    metrics["rdf.value.lookups_per_q"] = pipeline.PerQ(pipeline.value_lookups);

    // Shares of the mean request. The pipeline runs once per answer-cache
    // miss (once per BFQ call on answer_cold), and only value lookups that
    // missed the value cache walk the KB. A live_rw reader's Apply calls
    // are not part of its requests.
    const double requests = static_cast<double>(w.latency.Count());
    const double e2e_ns = w.latency.MeanNs();
    const double runs_per_request =
        args.workload == Workload::kAnswerCold
            ? Ratio(static_cast<double>(w.bfq.Count()), requests)
            : Ratio(static_cast<double>(w.answer_misses), requests);
    const double value_miss_frac =
        value_lookups == 0
            ? 1.0
            : Ratio(static_cast<double>(w.value_misses), value_lookups);
    const std::pair<const char*, double> stages[] = {
        {"share.nlp.tokenize", pipeline.PerQ(pipeline.tokenize_ns)},
        {"share.nlp.ner", pipeline.PerQ(pipeline.ner_ns)},
        {"share.taxonomy.conceptualize",
         pipeline.PerQ(pipeline.conceptualize_ns)},
        {"share.core.template", pipeline.PerQ(pipeline.template_ns)},
        {"share.rdf.value",
         pipeline.PerQ(pipeline.value_ns) * value_miss_frac},
    };
    double pipeline_run_ns = 0;
    double attributed = 0;
    for (const auto& [name, ns] : stages) {
      pipeline_run_ns += ns;
      metrics[name] = Ratio(ns * runs_per_request, e2e_ns);
      attributed += metrics[name];
    }
    const double complex_ns =
        w.complex.MeanNs() * static_cast<double>(w.complex.Count());
    metrics["share.rdf.mutable.pin"] = Ratio(w.pin.MeanNs(), e2e_ns);
    metrics["share.core.complex"] = Ratio(complex_ns, e2e_ns * requests);
    attributed +=
        metrics["share.rdf.mutable.pin"] + metrics["share.core.complex"];
    metrics["share.unattributed"] = 1.0 - attributed;
    const double runs_per_answer_call =
        args.workload == Workload::kAnswerCold
            ? 1.0
            : Ratio(static_cast<double>(w.answer_misses), answer_calls);
    metrics["core.online.unattributed_frac"] =
        1.0 - Ratio(pipeline_run_ns * runs_per_answer_call, answer_mean_ns);

    // Decomposition of the Table 15 questions.
    {
      const core::OnlineInference& online = sys->kbqa->online();
      const core::ComplexDecomposer decomposer(
          sys->kbqa->pattern_index(),
          [&online](const std::vector<std::string>& tokens) {
            return online.IsPrimitiveBfq(tokens);
          },
          sys->kbqa->options().decomposition);
      constexpr int kRounds = 50;
      uint64_t decompose_ns = 0;
      size_t hops = 0;
      std::vector<uint64_t> complex_calls;
      for (int round = 0; round < kRounds; ++round) {
        for (size_t c = 0; c < kNumComplex; ++c) {
          const std::vector<std::string> tokens =
              nlp::TokenizeQuestion(kComplexCases[c].question);
          const uint64_t request = (1ull << 53) + round * kNumComplex + c;
          const uint64_t d0 = NowNs();
          const core::Decomposition d = decomposer.Decompose(tokens);
          const uint64_t d1 = NowNs();
          decompose_ns += d1 - d0;
          hops += d.sequence.size();
          spans.Record(cpus, "core.decompose", request, d0, d1);
          if (args.workload != Workload::kAnswerCold) {
            (void)sys->kbqa->AnswerComplex(kComplexCases[c].question);
            complex_calls.push_back(NowNs() - d1);
          }
        }
      }
      const double decompositions = kRounds * static_cast<double>(kNumComplex);
      metrics["core.decompose.decompose_us"] =
          static_cast<double>(decompose_ns) / decompositions / 1e3;
      metrics["core.decompose.hops_per_q"] =
          static_cast<double>(hops) / decompositions;
      metrics["core.decompose.complex_p50_us"] =
          (args.workload == Workload::kAnswerCold
               ? w.complex.PercentileNs(0.5)
               : Percentile(complex_calls, 0.5)) /
          1e3;
    }

    const TrainSplit split = ReplayTrain(*sys, &spans, cpus, &checks);
    metrics["core.train.seed_reduction_s"] = split.seed_reduction_s;
    metrics["rdf.expand_s"] = split.expand_s;
    metrics["core.em_s"] = split.em_s;
    metrics["rdf.compress_s"] = split.compress_s;
    metrics["nlp.pattern_index_s"] = split.pattern_index_s;
    metrics["core.train.unattributed_s"] =
        MedianOf(train_s) - split.seed_reduction_s - split.expand_s -
        split.em_s - split.compress_s - split.pattern_index_s;

    if (args.workload == Workload::kLiveRw) {
      const auto snap = sys->live->Pin();
      const uint64_t r0 = NowNs();
      const rdf::KnowledgeBase rebuilt =
          rdf::RebuildKb(*snap->base, *snap->overlay, /*num_threads=*/1);
      const uint64_t r1 = NowNs();
      metrics["rdf.mutable.rebuild_ms"] = static_cast<double>(r1 - r0) / 1e6;
      spans.Record(cpus, "rdf.mutable.rebuild", 1ull << 54, r0, r1);
      checks.Expect(rebuilt.num_nodes() == snap->num_nodes(),
                    "rebuild keeps every node of the final snapshot");
    }
    if (!EmitAll(kPerLayer, metrics, &sink)) return 1;
  }

  if (args.workload == Workload::kLiveRw) {
    CheckFreshness(*sys, inputs, args.seed, &checks);
  }
  checks.Expect(total.wrong == 0,
                "every OK answer in the measured windows matches the "
                "expected answer (" +
                    std::to_string(total.wrong) + " differ)");
  checks.Expect(total.failed() == 0,
                "no request failed (" + std::to_string(total.failed()) + ")");
  std::fprintf(stderr,
               "[accounting] sent %llu, succeeded %llu, rejected %llu, shed "
               "%llu, non-OK %llu, wrong %llu\n",
               static_cast<unsigned long long>(total.sent),
               static_cast<unsigned long long>(total.succeeded),
               static_cast<unsigned long long>(total.rejected),
               static_cast<unsigned long long>(total.shed),
               static_cast<unsigned long long>(total.non_ok),
               static_cast<unsigned long long>(total.wrong));
  if (args.trace) {
    spans.WriteCsv(".bench_build/spans-" + args.workload_name + ".csv",
                   stderr);
  }
  std::fprintf(stderr, "[metrics] %s (%s)\n", args.workload_name.c_str(),
               args.trace ? "per-layer, traced" : "end-to-end, untraced");
  sink.PrintTable(stderr);
  sink.PrintResult(stdout, checks.ok, std::max<uint64_t>(1, total.sent),
                   total.failed());
  return checks.ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
