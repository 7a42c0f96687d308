// Mixed read/write benchmark for live KB mutation (DESIGN.md §10): a
// LiveKbqaEngine over rdf::MutableKb serves a benchmark question pool
// while a writer applies overlay batches and forces background merges.
// Three phases:
//
//   1. quiescent    — readers only, no writes: the baseline answer
//                     latency distribution over the live engine
//   2. during_merge — same readers while a writer thread applies op
//                     batches and drives continuous re-freeze/merge
//                     cycles: read p99 must stay bounded (the RCU swap
//                     never blocks readers)
//   Both phases also report the answer-cache hit rate of their reads.
//   3. equivalence  — after the final merge, the merged base must be
//                     byte-identical to a from-scratch freeze of the
//                     mutated world (independent op-log replay), and
//                     every pool answer must match a frozen engine built
//                     over that reference, question by question
//
// Emits BENCH_mutation.json (scripts/validate_bench.py checks the merge
// count, the equivalence bits, the p99 bound, and that both hit rates and
// the hardware thread count are present). --smoke runs the Small
// experiment with short phases for CI.

#include <atomic>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/kbqa_system.h"
#include "core/live_engine.h"
#include "core/online.h"
#include "corpus/qa_generator.h"
#include "eval/experiment.h"
#include "nlp/ner.h"
#include "obs/metrics.h"
#include "rdf/knowledge_base.h"
#include "rdf/mutable_kb.h"
#include "util/mutex.h"
#include "util/rng.h"

namespace {

using namespace kbqa;
using Clock = std::chrono::steady_clock;

struct Args {
  double duration_s = 5;  // per measured phase
  int threads = 3;        // reader threads
  bool smoke = false;
};

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
    if (std::sscanf(arg, "--duration_s=%lf", &v) == 1) {
      args.duration_s = v;
    } else if (std::sscanf(arg, "--threads=%lf", &v) == 1) {
      args.threads = static_cast<int>(v);
    } else if (std::strcmp(arg, "--smoke") == 0) {
      args.smoke = true;
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nusage: bench_mutation [--duration_s=N] "
                   "[--threads=N] [--smoke]\n",
                   arg);
      std::exit(2);
    }
  }
  if (args.threads < 1) args.threads = 1;
  return args;
}

uint64_t ElapsedNs(Clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           since)
          .count());
}

/// Deterministic op-log generator: mostly adds (new entities and extra
/// values on base entities), some deletes of earlier adds, some deletes
/// of base-resident triples (tombstones). Every generated op is recorded
/// so the equivalence phase can replay the exact mutated world.
class OpGenerator {
 public:
  OpGenerator(const rdf::KnowledgeBase& base, uint64_t seed)
      : base_(base), entities_(base.AllEntities()), rng_(seed) {}

  rdf::MutationOp Next() {
    const uint64_t roll = rng_.Uniform(10);
    rdf::MutationOp op;
    if (roll < 5) {  // brand-new entity with one literal fact
      const std::string tag = std::to_string(counter_++);
      op = {false, "live/entity" + tag, "live_fact", "live value " + tag,
            true};
    } else if (roll < 7) {  // extra value on an existing entity
      const rdf::TermId e =
          entities_[rng_.Uniform(static_cast<uint64_t>(entities_.size()))];
      op = {false, base_.NodeString(e), "live_fact",
            "extra value " + std::to_string(counter_++), true};
    } else if (roll < 9 && !added_.empty()) {  // delete an earlier add
      const size_t i = rng_.Uniform(static_cast<uint64_t>(added_.size()));
      op = added_[i];
      op.is_delete = true;
    } else {  // tombstone a base-resident triple
      const rdf::TermId s =
          entities_[rng_.Uniform(static_cast<uint64_t>(entities_.size()))];
      const auto out = base_.Out(s);
      if (out.empty()) return Next();
      const rdf::PredicateObject& po = out[rng_.Uniform(
          static_cast<uint64_t>(out.size()))];
      op = {true, base_.NodeString(s), base_.PredicateString(po.p),
            base_.NodeString(po.o), base_.IsLiteral(po.o)};
    }
    if (!op.is_delete) added_.push_back(op);
    log_.push_back(op);
    return op;
  }

  const std::vector<rdf::MutationOp>& log() const { return log_; }

 private:
  const rdf::KnowledgeBase& base_;
  std::vector<rdf::TermId> entities_;
  Rng rng_;
  uint64_t counter_ = 0;
  std::vector<rdf::MutationOp> added_;
  std::vector<rdf::MutationOp> log_;
};

/// From-scratch freeze of the mutated world (same independent replay the
/// mutable_kb tests use): base dictionary re-interned in id order, then
/// the op log replayed over a plain triple set, then one Freeze.
rdf::KnowledgeBase BuildReference(const rdf::KnowledgeBase& base,
                                  const std::vector<rdf::MutationOp>& ops,
                                  int num_threads) {
  rdf::KnowledgeBase next;
  for (rdf::TermId id = 0; id < base.num_nodes(); ++id) {
    if (base.IsLiteral(id)) {
      next.AddLiteral(base.NodeString(id));
    } else {
      next.AddEntity(base.NodeString(id));
    }
  }
  for (rdf::PredId p = 0; p < base.num_predicates(); ++p) {
    next.AddPredicate(base.PredicateString(p));
  }
  if (base.name_predicate() != rdf::kInvalidPred) {
    next.SetNamePredicate(base.name_predicate());
  }
  std::set<std::array<uint64_t, 3>> triples;
  for (rdf::TermId s = 0; s < base.num_nodes(); ++s) {
    for (const rdf::PredicateObject& po : base.Out(s)) {
      triples.insert({s, po.p, po.o});
    }
  }
  for (const rdf::MutationOp& op : ops) {
    if (op.is_delete) {
      auto s = next.LookupNode(op.s);
      auto p = next.LookupPredicate(op.p);
      auto o = next.LookupNode(op.o);
      if (!s || !p || !o) continue;
      triples.erase({*s, *p, *o});
      continue;
    }
    const rdf::TermId s = next.AddEntity(op.s);
    const rdf::PredId p = next.AddPredicate(op.p);
    const rdf::TermId o =
        op.object_is_literal ? next.AddLiteral(op.o) : next.AddEntity(op.o);
    triples.insert({s, p, o});
  }
  for (const auto& t : triples) {
    next.AddTriple(static_cast<rdf::TermId>(t[0]),
                   static_cast<rdf::PredId>(t[1]),
                   static_cast<rdf::TermId>(t[2]));
  }
  next.Freeze(num_threads);
  return next;
}

std::string ReadFileBytes(const std::string& path) {
  std::string bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  Check(f != nullptr, "open snapshot for byte comparison");
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

struct PhaseResult {
  bench::LatencyReservoir latency;
  uint64_t answers = 0;
  /// Share of the phase's AnswerCached calls served from the answer cache.
  double answer_cache_hit_rate = 0;
};

/// The process-wide answer-cache hit and miss counts. The live engine
/// rebuilds its OnlineInference (and its per-instance stats) on every
/// merge, so a phase reads the registry counters around itself instead.
std::pair<uint64_t, uint64_t> AnswerCacheHitsAndMisses() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  return {registry.GetCounter("online.answer_cache.hits")->Value(),
          registry.GetCounter("online.answer_cache.misses")->Value()};
}

/// Drives `threads` readers round-robin over the pool until the deadline,
/// recording per-answer latency and the answer-cache hit rate.
PhaseResult RunReaders(const core::LiveKbqaEngine& engine,
                       const std::vector<std::string>& pool,
                       double duration_s, int threads) {
  const auto [hits_before, misses_before] = AnswerCacheHitsAndMisses();
  std::vector<bench::LatencyReservoir> reservoirs(
      static_cast<size_t>(threads));
  std::vector<std::thread> readers;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(duration_s));
  core::AnswerOptions answer_options;
  for (int t = 0; t < threads; ++t) {
    readers.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (Clock::now() < deadline) {
        const auto begin = Clock::now();
        const core::AnswerResult r =
            engine.AnswerCached(pool[i % pool.size()], answer_options);
        Check(r.status.ok(), "answer status during load phase");
        reservoirs[static_cast<size_t>(t)].Record(ElapsedNs(begin));
        ++i;
      }
    });
  }
  for (auto& th : readers) th.join();
  const auto [hits_after, misses_after] = AnswerCacheHitsAndMisses();
  PhaseResult result;
  for (const auto& r : reservoirs) result.latency.Merge(r);
  result.answers = result.latency.count();
  const uint64_t hits = hits_after - hits_before;
  const uint64_t lookups = hits + (misses_after - misses_before);
  if (lookups != 0) {
    result.answer_cache_hit_rate =
        static_cast<double>(hits) / static_cast<double>(lookups);
  }
  return result;
}

bool SameAnswer(const core::AnswerResult& a, const core::AnswerResult& b) {
  return a.answered == b.answered && a.value == b.value &&
         a.score == b.score && a.predicate == b.predicate &&
         a.sparql == b.sparql && a.values == b.values;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = Parse(argc, argv);
  if (args.smoke && args.duration_s > 0.5) args.duration_s = 0.5;
  std::printf("[config] %s, duration_s=%.1f per phase, readers=%d\n",
              args.smoke ? "smoke (Small world)" : "full (Standard world)",
              args.duration_s, args.threads);

  auto built = eval::Experiment::Build(args.smoke
                                           ? eval::ExperimentConfig::Small()
                                           : eval::ExperimentConfig::Standard());
  Check(built.ok(), "experiment build");
  const auto experiment = std::move(built).value();
  const corpus::World& world = experiment->world();
  const core::KbqaSystem& kbqa = experiment->kbqa();

  corpus::BenchmarkConfig pool_config;
  pool_config.num_questions = args.smoke ? 48 : 192;
  pool_config.seed = 20260808;
  std::vector<std::string> pool;
  for (const corpus::QaPair& pair :
       corpus::GenerateBenchmark(world, pool_config).questions.pairs) {
    pool.push_back(pair.question);
  }
  Check(!pool.empty(), "benchmark pool non-empty");

  // Seed the live KB with a Save/Load copy of the trained world's KB (ids
  // preserved bit-for-bit, so the trained model stays valid).
  const std::string kb_copy_path = "bench_mutation_kb.bin";
  Check(world.kb.Save(kb_copy_path).ok(), "save base KB copy");
  auto loaded = rdf::KnowledgeBase::Load(kb_copy_path);
  Check(loaded.ok(), "load base KB copy");
  rdf::MutableKb::Options live_options;
  live_options.auto_merge = false;  // the writer drives merges explicitly
  live_options.merge_threads = 2;
  rdf::MutableKb live(std::move(loaded).value(), live_options);

  core::LiveKbqaEngine::Options engine_options;
  engine_options.alias_predicates = world.alias_predicates;
  engine_options.online = kbqa.options().online;
  engine_options.online.enable_answer_cache = true;
  core::LiveKbqaEngine engine(&live, &world.taxonomy, &kbqa.template_store(),
                              &kbqa.expanded_kb().paths(), engine_options);

  // ---- Phase 1: quiescent ----
  std::printf("[quiescent] readers only, %.1fs...\n", args.duration_s);
  const PhaseResult quiescent =
      RunReaders(engine, pool, args.duration_s, args.threads);
  std::printf("[quiescent] %" PRIu64
              " answers, p50 %.3fms p99 %.3fms, answer-cache hit rate %.4f\n",
              quiescent.answers,
              quiescent.latency.ValueAtQuantile(0.5) / 1e6,
              quiescent.latency.ValueAtQuantile(0.99) / 1e6,
              quiescent.answer_cache_hit_rate);

  // ---- Phase 2: reads during continuous mutation + merge ----
  std::printf("[during_merge] readers + writer forcing merges, %.1fs...\n",
              args.duration_s);
  OpGenerator ops(world.kb, /*seed=*/97);
  bench::LatencyReservoir merge_latency;
  std::atomic<bool> stop{false};
  const uint64_t merges_before = live.merges_completed();
  std::thread writer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<rdf::MutationOp> batch;
      batch.reserve(16);
      for (int i = 0; i < 16; ++i) batch.push_back(ops.Next());
      live.Apply(batch);
      const auto begin = Clock::now();
      live.ForceMerge();
      merge_latency.Record(ElapsedNs(begin));
    }
  });
  const PhaseResult during =
      RunReaders(engine, pool, args.duration_s, args.threads);
  stop.store(true, std::memory_order_release);
  writer.join();
  live.ForceMerge();
  const uint64_t merges = live.merges_completed() - merges_before;
  Check(merges >= 1, "at least one merge during the load phase");
  Check(live.pending_ops() == 0, "overlay drained after final merge");
  std::printf("[during_merge] %" PRIu64 " answers, p50 %.3fms p99 %.3fms, "
              "answer-cache hit rate %.4f; "
              "%" PRIu64 " merges over %zu ops, merge p50 %.3fms p99 %.3fms\n",
              during.answers, during.latency.ValueAtQuantile(0.5) / 1e6,
              during.latency.ValueAtQuantile(0.99) / 1e6,
              during.answer_cache_hit_rate, merges,
              ops.log().size(), merge_latency.ValueAtQuantile(0.5) / 1e6,
              merge_latency.ValueAtQuantile(0.99) / 1e6);

  // ---- Phase 3: equivalence against a from-scratch freeze ----
  std::printf("[equivalence] replaying %zu ops from scratch...\n",
              ops.log().size());
  const rdf::KnowledgeBase reference =
      BuildReference(world.kb, ops.log(), /*num_threads=*/4);
  const std::string merged_path = "bench_mutation_merged.bin";
  const std::string reference_path = "bench_mutation_reference.bin";
  Check(live.Pin()->base->Save(merged_path).ok(), "save merged base");
  Check(reference.Save(reference_path).ok(), "save reference");
  const bool kb_bit_identical =
      ReadFileBytes(merged_path) == ReadFileBytes(reference_path);
  Check(kb_bit_identical, "merged base == from-scratch freeze (bytes)");

  nlp::GazetteerNer reference_ner(reference, world.alias_predicates);
  core::OnlineInference reference_engine(
      &reference, &world.taxonomy, &reference_ner, &kbqa.template_store(),
      &kbqa.expanded_kb().paths(), kbqa.options().online);
  bool answers_identical = true;
  for (const std::string& question : pool) {
    if (!SameAnswer(
            engine.AnswerCached(question, core::AnswerOptions{}),
            reference_engine.AnswerCached(question, core::AnswerOptions{}))) {
      answers_identical = false;
      std::fprintf(stderr, "answer mismatch: %s\n", question.c_str());
    }
  }
  Check(answers_identical, "live answers == from-scratch engine answers");
  std::printf("[equivalence] merged base byte-identical; %zu answers match\n",
              pool.size());
  std::remove(kb_copy_path.c_str());
  std::remove(merged_path.c_str());
  std::remove(reference_path.c_str());

  // ---- JSON ----
  std::FILE* out = std::fopen("BENCH_mutation.json", "w");
  Check(out != nullptr, "open BENCH_mutation.json");
  std::fprintf(out, "{\n  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out,
               "  \"config\": {\"smoke\": %s, \"duration_s\": %.1f, "
               "\"threads\": %d, \"pool_size\": %zu, \"batch_ops\": 16},\n"
               "  \"base\": {\"num_triples\": %zu, \"num_entities\": %zu},\n",
               args.smoke ? "true" : "false", args.duration_s, args.threads,
               pool.size(), world.kb.num_triples(), world.kb.num_entities());
  std::fprintf(out,
               "  \"quiescent\": {\"answers\": %" PRIu64
               ", \"p50_ns\": %" PRIu64 ", \"p99_ns\": %" PRIu64
               ", \"mean_ns\": %.0f, \"answer_cache_hit_rate\": %.4f},\n",
               quiescent.answers, quiescent.latency.ValueAtQuantile(0.5),
               quiescent.latency.ValueAtQuantile(0.99),
               quiescent.latency.MeanNanos(), quiescent.answer_cache_hit_rate);
  std::fprintf(out,
               "  \"during_merge\": {\"answers\": %" PRIu64
               ", \"p50_ns\": %" PRIu64 ", \"p99_ns\": %" PRIu64
               ", \"mean_ns\": %.0f, \"answer_cache_hit_rate\": %.4f"
               ", \"merges\": %" PRIu64
               ", \"ops_applied\": %zu, \"merge_p50_ns\": %" PRIu64
               ", \"merge_p99_ns\": %" PRIu64 "},\n",
               during.answers, during.latency.ValueAtQuantile(0.5),
               during.latency.ValueAtQuantile(0.99),
               during.latency.MeanNanos(), during.answer_cache_hit_rate,
               merges, ops.log().size(),
               merge_latency.ValueAtQuantile(0.5),
               merge_latency.ValueAtQuantile(0.99));
  std::fprintf(out,
               "  \"final\": {\"epoch\": %" PRIu64 ", \"version\": %" PRIu64
               "},\n"
               "  \"equivalence\": {\"kb_bit_identical\": %s, "
               "\"answers_identical\": %s, \"questions\": %zu}\n}\n",
               live.epoch(), live.version(),
               kb_bit_identical ? "true" : "false",
               answers_identical ? "true" : "false", pool.size());
  std::fclose(out);
  std::printf("[done] wrote BENCH_mutation.json\n");
  return 0;
}
