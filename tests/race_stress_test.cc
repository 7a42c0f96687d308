// Concurrency stress for every shared-state subsystem, written to run
// under ThreadSanitizer (cmake -DTSAN=ON; scripts/check.sh --tsan). The
// assertions matter in every configuration, but the real gate is TSan
// proving the synchronization: each test drives genuinely concurrent
// access — pool scheduling, sharded LRU mutation, metric shards, the
// wide-event ring, one engine answering from many threads, parallel
// Freeze/Build — so a missing happens-before edge anywhere in those paths
// becomes a CI failure instead of a corrupted answer in production.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/kbqa_system.h"
#include "core/online.h"
#include "corpus/qa_generator.h"
#include "eval/experiment.h"
#include "obs/metrics.h"
#include "obs/wide_event.h"
#include "core/live_engine.h"
#include "rdf/expanded_predicate.h"
#include "rdf/knowledge_base.h"
#include "rdf/mutable_kb.h"
#include "serve/server.h"
#include "util/lru_cache.h"
#include "util/thread_pool.h"

namespace kbqa {
namespace {

// ---------- ThreadPool ----------

TEST(RaceStressTest, ThreadPoolHammerSharedCounter) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  for (int round = 0; round < 200; ++round) {
    pool.RunShards(32, [&](size_t shard) {
      sum.fetch_add(static_cast<long>(shard), std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 200L * (31 * 32 / 2));
}

TEST(RaceStressTest, ThreadPoolShutdownWithIdleWorkers) {
  // Construct-and-destroy: workers park in the wait loop and must observe
  // shutdown_ under the mutex — the teardown handshake TSan verifies.
  for (int i = 0; i < 50; ++i) {
    ThreadPool pool(4);
  }
}

TEST(RaceStressTest, ThreadPoolDeterministicShutdownAfterQueuedWork) {
  // Destruction immediately after a job drains: the queued shards were
  // being pulled by workers moments before ~ThreadPool sets shutdown_, so
  // the join must synchronize with the last DrainShards of every worker.
  for (int i = 0; i < 50; ++i) {
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    pool.RunShards(64, [&](size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(ran.load(), 64);
    // ~ThreadPool here, with workers potentially still inside their final
    // bookkeeping section.
  }
}

TEST(RaceStressTest, ThreadPoolDrivenFromAnotherThread) {
  // The pool's owner and the thread calling RunShards differ; destruction
  // happens after join, the contract every engine follows.
  for (int i = 0; i < 20; ++i) {
    auto pool = std::make_unique<ThreadPool>(3);
    std::atomic<int> ran{0};
    std::thread driver([&] {
      pool->RunShards(16, [&](size_t) {
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    });
    driver.join();
    EXPECT_EQ(ran.load(), 16);
    pool.reset();
  }
}

// ---------- ShardedLruCache ----------

TEST(RaceStressTest, LruCacheConcurrentMixedOperations) {
  constexpr uint64_t kBudget = 1 << 14;
  ShardedLruCache<uint64_t, std::vector<int>> cache(kBudget, 8);
  std::vector<std::thread> threads;
  std::atomic<uint64_t> hits{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, &hits, t] {
      std::vector<int> out;
      for (int i = 0; i < 2000; ++i) {
        const uint64_t key = static_cast<uint64_t>((i * 7 + t * 13) % 257);
        if (cache.Get(key, &out)) {
          hits.fetch_add(1, std::memory_order_relaxed);
          // Copied-out value must be intact even if the entry is being
          // evicted concurrently.
          ASSERT_EQ(out.size(), key % 17 + 1);
        } else {
          cache.Insert(key, std::vector<int>(key % 17 + 1, t),
                       (key % 17 + 1) * sizeof(int));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto stats = cache.GetStats();
  EXPECT_LE(stats.bytes, kBudget);
  EXPECT_GT(hits.load(), 0u);
}

// ---------- MetricsRegistry / wide-event ring ----------

TEST(RaceStressTest, MetricsConcurrentUpdatesAndSnapshots) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("race.counter");
  obs::Histogram* histogram = registry.GetHistogram("race.histogram");
  std::atomic<bool> done{false};
  // Reader thread snapshots (and interns new names) while writers bump.
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      obs::MetricsSnapshot snap = registry.Snapshot();
      const auto* c = snap.counter("race.counter");
      ASSERT_NE(c, nullptr);
      ASSERT_LE(c->value, 4u * 10000u);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < 10000; ++i) {
        counter->Add(1);
        histogram->Record(static_cast<uint64_t>(i));
        if (i % 1000 == 0) {
          registry.GetGauge("race.gauge." + std::to_string(t))->Set(i);
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(counter->Value(), 4u * 10000u);
  EXPECT_EQ(histogram->Count(), 4u * 10000u);
}

// An event whose every numeric field carries its trace id, so a row that
// mixes two events fails CarriesOneEvent.
obs::WideEvent EventCarrying(uint64_t id) {
  const auto id32 = static_cast<uint32_t>(id);
  obs::WideEvent e;
  e.trace_id = id;
  e.admit_ns = id;
  e.outcome = static_cast<obs::WideOutcome>(id % obs::kWideOutcomeCount);
  e.has_deadline = id % 2 == 1;
  e.question_bytes = id32;
  e.queue_wait_ns = id;
  e.service_ns = id;
  e.total_ns = id;
  e.deadline_budget_ns = static_cast<int64_t>(id);
  for (obs::StageRecord& stage : e.stages) stage = {id, id32};
  e.value_cache_hits = id32;
  e.value_cache_misses = id32;
  e.answer_cache_hits = id32;
  e.answer_cache_misses = id32;
  e.kb_epoch = id;
  return e;
}

bool CarriesOneEvent(const obs::WideEvent& row) {
  const obs::WideEvent want = EventCarrying(row.trace_id);
  bool same =
      row.admit_ns == want.admit_ns && row.outcome == want.outcome &&
      row.has_deadline == want.has_deadline &&
      row.question_bytes == want.question_bytes &&
      row.queue_wait_ns == want.queue_wait_ns &&
      row.service_ns == want.service_ns && row.total_ns == want.total_ns &&
      row.deadline_budget_ns == want.deadline_budget_ns &&
      row.value_cache_hits == want.value_cache_hits &&
      row.value_cache_misses == want.value_cache_misses &&
      row.answer_cache_hits == want.answer_cache_hits &&
      row.answer_cache_misses == want.answer_cache_misses &&
      row.kb_epoch == want.kb_epoch;
  for (size_t s = 0; s < obs::kWideStageCount; ++s) {
    same = same && row.stages[s].ns == want.stages[s].ns &&
           row.stages[s].count == want.stages[s].count;
  }
  return same;
}

TEST(RaceStressTest, WideEventRingsConcurrentRecordAndRecent) {
  // The /eventz view reads every resident row while 4 writers record. Each
  // row it returns must be one whole event, never a mix of two.
  obs::WideEvents::ResetForTest();
  constexpr uint64_t kWriters = 4;
  constexpr int kReads = 100;
  std::atomic<uint64_t> filled{0};  // writers past a ring's worth of rows
  std::atomic<uint64_t> recorded{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (uint64_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([t, &filled, &recorded, &done] {
      uint64_t i = 0;
      for (; !done.load(std::memory_order_acquire); ++i) {
        obs::WideEvents::Record(EventCarrying(i * kWriters + t + 1));
        if (i + 1 == obs::WideEvents::kRingCapacity) filled.fetch_add(1);
      }
      recorded.fetch_add(i);
    });
  }
  // Every read overlaps all 4 writers, and the ring is full by then.
  while (filled.load() < kWriters) std::this_thread::yield();
  uint64_t rows = 0;
  uint64_t mixed = 0;
  for (int r = 0; r < kReads; ++r) {
    for (const obs::WideEvent& row :
         obs::WideEvents::Recent(std::numeric_limits<size_t>::max())) {
      ++rows;
      if (!CarriesOneEvent(row)) ++mixed;
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& th : writers) th.join();
  EXPECT_EQ(obs::WideEvents::TotalRecorded(), recorded.load());
  EXPECT_GT(rows, 0u);
  EXPECT_EQ(mixed, 0u) << "of " << rows << " rows read";
  // One ring for the process: it keeps the newest kRingCapacity rows.
  EXPECT_EQ(obs::WideEvents::Drain().size(),
            obs::WideEvents::kRingCapacity);
}

// ---------- Parallel RDF substrate ----------

TEST(RaceStressTest, ParallelFreezeAndExpandedKbBuild) {
  rdf::KnowledgeBase kb;
  const rdf::PredId name = kb.AddPredicate("name");
  const rdf::PredId knows = kb.AddPredicate("knows");
  kb.SetNamePredicate(name);
  constexpr int kPeople = 400;
  std::vector<rdf::TermId> people;
  for (int i = 0; i < kPeople; ++i) {
    const rdf::TermId person = kb.AddEntity("person/" + std::to_string(i));
    people.push_back(person);
    kb.AddTriple(person, name,
                 kb.AddLiteral("person " + std::to_string(i)));
  }
  for (int i = 0; i < kPeople; ++i) {
    kb.AddTriple(people[static_cast<size_t>(i)], knows,
                 people[static_cast<size_t>((i + 1) % kPeople)]);
    kb.AddTriple(people[static_cast<size_t>(i)], knows,
                 people[static_cast<size_t>((i * 7 + 3) % kPeople)]);
  }
  kb.Freeze(4);  // parallel counting-sort under TSan

  rdf::ExpansionOptions options;
  options.max_length = 3;
  options.num_threads = 4;  // parallel frontier scan under TSan
  std::vector<rdf::TermId> seeds(people.begin(), people.begin() + 32);
  auto built = rdf::ExpandedKb::Build(kb, seeds, {name}, options);
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_GT(built.value().num_triples(), 0u);
}

// ---------- One engine, many answering threads ----------

class RaceStressSystemTest : public ::testing::Test {
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

  static std::vector<std::string> BenchmarkQuestions(size_t n,
                                                     uint64_t seed) {
    corpus::BenchmarkConfig config;
    config.num_questions = n;
    config.seed = seed;
    std::vector<std::string> questions;
    for (const corpus::QaPair& pair :
         corpus::GenerateBenchmark(experiment().world(), config)
             .questions.pairs) {
      questions.push_back(pair.question);
    }
    return questions;
  }

  /// A fresh engine over the shared trained model, so per-test cache
  /// options don't disturb the shared experiment's engine.
  static std::unique_ptr<core::OnlineInference> MakeEngine(
      const core::OnlineInference::Options& options) {
    const core::KbqaSystem& kbqa = experiment().kbqa();
    return std::make_unique<core::OnlineInference>(
        &experiment().world().kb, &experiment().world().taxonomy,
        &kbqa.ner(), &kbqa.template_store(), &kbqa.expanded_kb().paths(),
        options);
  }
};

TEST_F(RaceStressSystemTest, ConcurrentAnswerOnOneEngineMatchesSerial) {
  const std::vector<std::string> questions = BenchmarkQuestions(20, 4242);
  const core::KbqaSystem& kbqa = experiment().kbqa();

  std::vector<core::AnswerResult> reference;
  reference.reserve(questions.size());
  for (const std::string& q : questions) reference.push_back(kbqa.Answer(q));

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 3; ++round) {
        for (size_t i = 0; i < questions.size(); ++i) {
          const core::AnswerResult result = kbqa.Answer(questions[i]);
          ASSERT_EQ(result.answered, reference[i].answered) << questions[i];
          ASSERT_EQ(result.value, reference[i].value) << questions[i];
          ASSERT_EQ(result.score, reference[i].score) << questions[i];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
}

TEST_F(RaceStressSystemTest, ConcurrentAnswerCachedWithSharedAnswerCache) {
  core::OnlineInference::Options options =
      experiment().kbqa().options().online;
  options.enable_answer_cache = true;
  options.answer_cache_budget_bytes = 1 << 16;  // small: force evictions
  const auto engine = MakeEngine(options);

  const std::vector<std::string> questions = BenchmarkQuestions(30, 977);
  std::vector<core::AnswerResult> reference;
  for (const std::string& q : questions) {
    reference.push_back(engine->AnswerCached(q, core::AnswerOptions{}));
  }

  // Each caller starts at its own offset, so callers insert, hit and
  // evict different entries at the same time.
  constexpr size_t kCallers = 4;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kCallers; ++t) {
    threads.emplace_back([&, t] {
      for (size_t k = 0; k < questions.size(); ++k) {
        const size_t i = (k + t * 7) % questions.size();
        const core::AnswerResult result =
            engine->AnswerCached(questions[i], core::AnswerOptions{});
        ASSERT_EQ(result.answered, reference[i].answered);
        ASSERT_EQ(result.value, reference[i].value);
        ASSERT_EQ(result.score, reference[i].score);
      }
    });
  }
  for (auto& th : threads) th.join();
  const core::ValueCacheStats stats = engine->answer_cache_stats();
  EXPECT_LE(stats.bytes, options.answer_cache_budget_bytes);
  EXPECT_EQ(stats.hits + stats.misses, (kCallers + 1) * questions.size());
}

TEST_F(RaceStressSystemTest, EngineShutdownImmediatelyAfterInFlightWork) {
  // The engine is destroyed the instant its last callers finish. TSan
  // checks the join edges against every cache entry the callers wrote and
  // the engine's destructor frees.
  const std::vector<std::string> questions = BenchmarkQuestions(10, 31337);
  core::OnlineInference::Options options =
      experiment().kbqa().options().online;
  for (int round = 0; round < 10; ++round) {
    auto engine = MakeEngine(options);
    const auto answer_questions = [&] {
      for (const std::string& q : questions) {
        (void)engine->AnswerCached(q, core::AnswerOptions{});
      }
    };
    std::thread a(answer_questions);
    std::thread b(answer_questions);
    a.join();
    b.join();
    engine.reset();
  }
}

// ---------- Serving front door ----------

TEST(RaceStressTest, ServeHammerSubmittersAgainstBatcherAndTeardown) {
  // Many submitter threads race the pulling workers and an immediate
  // teardown; the small queue forces the admission-control path
  // concurrently with accepts. The invariant under all interleavings:
  // every *accepted* request's callback runs exactly once (completed or
  // shed at shutdown), every rejected one's never runs — and every
  // submitted request (accepted or not) leaves exactly one wide event,
  // even when teardown resolves it.
  obs::WideEvents::ResetForTest();
  for (int round = 0; round < 20; ++round) {
    std::atomic<uint64_t> accepted{0};
    std::atomic<uint64_t> callbacks{0};
    {
      serve::ServingOptions options;
      options.num_workers = 3;
      options.max_queue_depth = 64;
      serve::Server server(
          [](const std::string& question, const core::AnswerOptions&) {
            core::AnswerResult result;
            result.answered = true;
            result.value = question;
            return result;
          },
          options);
      std::vector<std::thread> submitters;
      for (int t = 0; t < 4; ++t) {
        submitters.emplace_back([&] {
          for (int i = 0; i < 200; ++i) {
            const Status admitted = server.Submit(
                "q", [&](serve::ServeResponse) { callbacks.fetch_add(1); });
            if (admitted.ok()) accepted.fetch_add(1);
          }
        });
      }
      for (auto& th : submitters) th.join();
      // ~Server tears down with takes still being answered and (likely)
      // requests still queued.
    }
    ASSERT_EQ(callbacks.load(), accepted.load());
    // Exactly-once emission through teardown: 800 submissions -> 800 wide
    // events, with accepted requests split between answered and
    // shutdown-shed exactly as their callbacks resolved, and every
    // rejection accounted for. (800 events fit the ring: no drops.)
    const std::vector<obs::WideEvent> events = obs::WideEvents::Drain();
    ASSERT_EQ(events.size(), 4u * 200u);
    uint64_t answered = 0, shed = 0, rejected = 0, other = 0;
    for (const obs::WideEvent& e : events) {
      switch (e.outcome) {
        case obs::WideOutcome::kAnswered: ++answered; break;
        case obs::WideOutcome::kShedShutdown: ++shed; break;
        case obs::WideOutcome::kShedExpired: ++shed; break;
        case obs::WideOutcome::kRejected: ++rejected; break;
        default: ++other; break;
      }
    }
    ASSERT_EQ(other, 0u);
    ASSERT_EQ(answered + shed, accepted.load());
    ASSERT_EQ(rejected, 4u * 200u - accepted.load());
  }
}

TEST_F(RaceStressSystemTest, ServeEngineAnswersUnderConcurrentLoadCycles) {
  // Engine-backed serve loop: concurrent blocking callers through the
  // workers into a shared engine (answer cache on), with the server torn
  // down and rebuilt every round so TSan sees the full construct/serve/
  // destruct edge set against live engine state.
  core::OnlineInference::Options options =
      experiment().kbqa().options().online;
  options.enable_answer_cache = true;
  const auto engine = MakeEngine(options);
  const std::vector<std::string> questions = BenchmarkQuestions(12, 555);
  std::vector<core::AnswerResult> reference;
  for (const std::string& q : questions) {
    reference.push_back(engine->AnswerCached(q, core::AnswerOptions{}));
  }
  for (int round = 0; round < 5; ++round) {
    serve::ServingOptions serving;
    serving.num_workers = 3;
    const auto server = serve::Server::ForEngine(engine.get(), serving);
    std::vector<std::thread> callers;
    for (int t = 0; t < 3; ++t) {
      callers.emplace_back([&] {
        for (size_t i = 0; i < questions.size(); ++i) {
          serve::ServeResponse response = server->Answer(questions[i]);
          ASSERT_TRUE(response.result.status.ok());
          ASSERT_EQ(response.result.answered, reference[i].answered);
          ASSERT_EQ(response.result.value, reference[i].value);
        }
      });
    }
    for (auto& th : callers) th.join();
  }
}

// ---------- Live KB mutation (DESIGN.md §10) ----------

TEST_F(RaceStressSystemTest, LiveEngineAnswersAcrossMutationsAndSwaps) {
  // Reader threads answer through a LiveKbqaEngine while a mutator thread
  // applies overlay batches and forces merges, so every RCU edge is
  // exercised concurrently: Pin() against Apply's snapshot publish, the
  // merge thread's base rebuild + swap, and the publish hook rebuilding
  // the per-epoch engine state that each read acquires.
  const std::string path = ::testing::TempDir() + "/race_live_kb.bin";
  ASSERT_TRUE(experiment().world().kb.Save(path).ok());
  auto loaded = rdf::KnowledgeBase::Load(path);
  ASSERT_TRUE(loaded.ok());
  rdf::MutableKb::Options live_options;
  live_options.merge_trigger_ops = 8;
  rdf::MutableKb live(std::move(loaded).value(), live_options);
  const auto engine = experiment().kbqa().MakeLiveEngine(&live);
  ASSERT_NE(engine, nullptr);

  const std::vector<std::string> questions = BenchmarkQuestions(12, 7777);
  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    for (int round = 0; round < 15; ++round) {
      for (int i = 0; i < 4; ++i) {
        const std::string tag =
            std::to_string(round) + "_" + std::to_string(i);
        live.AddTriple("race/entity" + tag, "likes", "value" + tag,
                       /*object_is_literal=*/true);
      }
      live.DeleteTriple("race/entity" + std::to_string(round) + "_0",
                        "likes",
                        "value" + std::to_string(round) + "_0");
      live.ForceMerge();
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      do {
        for (const std::string& q : questions) {
          ASSERT_TRUE(
              engine->AnswerCached(q, core::AnswerOptions{}).status.ok());
        }
      } while (!stop.load(std::memory_order_acquire));
    });
  }
  mutator.join();
  for (auto& th : readers) th.join();
  live.WaitForMergeIdle();
  EXPECT_GE(live.merges_completed(), 1u);
  EXPECT_EQ(live.pending_ops(), 0u);
}

TEST_F(RaceStressSystemTest, LiveCachesMatchUncachedAfterRewritesAndMerges) {
  // Readers hammer a LiveKbqaEngine's AnswerCached while a writer
  // rewrites the very facts those answers read and forces merges, so every
  // cache re-validation, re-stamp and insert races an Apply or a publish.
  // Once the writer stops, the engine must answer exactly like an engine
  // with no caches over the same snapshot.
  const std::string path = ::testing::TempDir() + "/race_live_cache_kb.bin";
  ASSERT_TRUE(experiment().world().kb.Save(path).ok());
  auto loaded = rdf::KnowledgeBase::Load(path);
  ASSERT_TRUE(loaded.ok());
  rdf::MutableKb::Options live_options;
  live_options.auto_merge = false;  // the writer decides when to merge
  rdf::MutableKb live(std::move(loaded).value(), live_options);

  const core::KbqaSystem& kbqa = experiment().kbqa();
  const rdf::KnowledgeBase& kb = experiment().world().kb;
  const rdf::PathDictionary& paths = kbqa.expanded_kb().paths();
  core::LiveKbqaEngine::Options engine_options;
  engine_options.alias_predicates = experiment().world().alias_predicates;
  engine_options.online = kbqa.options().online;
  engine_options.online.enable_answer_cache = true;
  engine_options.online.enable_value_cache = true;
  core::LiveKbqaEngine engine(&live, &experiment().world().taxonomy,
                              &kbqa.template_store(), &paths, engine_options);
  core::OnlineInference::Options uncached_options = engine_options.online;
  uncached_options.enable_answer_cache = false;
  uncached_options.enable_value_cache = false;
  // An engine with no caches over `base`: it computes every answer from
  // the snapshot it is given.
  const auto uncached_over = [&](const rdf::KnowledgeBase* base) {
    return std::make_unique<core::OnlineInference>(
        base, &experiment().world().taxonomy, &kbqa.ner(),
        &kbqa.template_store(), &paths, uncached_options);
  };

  // The answered questions, and for each the last hop of its winning path
  // out of the first node the walk reaches before that hop — the
  // question's entity on a one-hop path, an intermediate node on longer
  // ones. Rewriting a last hop changes the answer and keeps it answerable.
  std::vector<std::string> questions;
  std::vector<std::pair<std::string, std::string>> facts;
  const auto unmutated = uncached_over(&kb);
  for (const std::string& q : BenchmarkQuestions(60, 5151)) {
    const core::AnswerResult r = unmutated->Answer(q);
    if (!r.answered) continue;
    const rdf::PredPath& hops = paths.GetPath(r.ranked[0].best_path);
    const std::vector<rdf::TermId> subjects = rdf::ObjectsViaPath(
        kb, r.ranked[0].best_entity,
        rdf::PredPath(hops.begin(), hops.end() - 1));
    questions.push_back(q);
    facts.emplace_back(kb.NodeString(subjects.front()),
                       kb.PredicateString(hops.back()));
    if (questions.size() == 12) break;
  }
  ASSERT_GE(questions.size(), 4u);

  constexpr int kReaders = 3;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> passes{0};  // reader passes over the pool
  std::thread writer([&] {
    // A merge after every sixth round; the last two rounds stay in the
    // overlay, so the final comparison covers both kinds of state.
    for (int round = 0; round < 32; ++round) {
      const auto& [s, p] = facts[static_cast<size_t>(round) % facts.size()];
      const auto snap = live.Pin();
      std::vector<rdf::MutationOp> batch;
      for (const rdf::TermId o :
           snap->Objects(*snap->LookupNode(s), *snap->LookupPredicate(p))) {
        batch.push_back({true, s, p, snap->NodeString(o), snap->IsLiteral(o)});
      }
      batch.push_back({false, s, p, "race value " + std::to_string(round),
                       /*object_is_literal=*/true});
      live.Apply(batch);
      if (round % 6 == 5) live.ForceMerge();
      // Let the readers cache answers over this write before the next one
      // lands: kReaders + 1 more passes include one that began after it.
      const uint64_t target =
          passes.load(std::memory_order_acquire) + kReaders + 1;
      while (passes.load(std::memory_order_acquire) < target) {
        std::this_thread::yield();
      }
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      do {
        for (const std::string& q : questions) {
          EXPECT_TRUE(engine.AnswerCached(q, core::AnswerOptions{}).status.ok())
              << q;
        }
        passes.fetch_add(1, std::memory_order_acq_rel);
      } while (!stop.load(std::memory_order_acquire));
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  ASSERT_FALSE(live.Pin()->overlay->empty());

  const auto expect_uncached = [&](const char* when) {
    const auto snapshot = live.Pin();
    const auto uncached = uncached_over(snapshot->base.get());
    for (const std::string& q : questions) {
      const core::AnswerResult want =
          uncached->Answer(q, core::AnswerOptions{}, *snapshot);
      const core::AnswerResult got =
          engine.AnswerCached(q, core::AnswerOptions{});
      EXPECT_EQ(got.answered, want.answered) << when << ": " << q;
      EXPECT_EQ(got.value, want.value) << when << ": " << q;
      EXPECT_EQ(got.score, want.score) << when << ": " << q;
      EXPECT_EQ(got.predicate, want.predicate) << when << ": " << q;
      EXPECT_EQ(got.values, want.values) << when << ": " << q;
    }
  };
  expect_uncached("overlay pending");
  live.ForceMerge();
  expect_uncached("after the final merge");
}

TEST_F(RaceStressSystemTest, ServeLiveEngineWideEventsExactlyOnceAcrossSwaps) {
  // The wide-event exactly-once invariant must survive snapshot swaps:
  // submitters race the workers and a mutator forcing merges underneath
  // the serving engine, and every submission still resolves to exactly
  // one wide event, each stamped with a kb_epoch the KB actually reached.
  const std::string path = ::testing::TempDir() + "/race_serve_kb.bin";
  ASSERT_TRUE(experiment().world().kb.Save(path).ok());
  auto loaded = rdf::KnowledgeBase::Load(path);
  ASSERT_TRUE(loaded.ok());
  rdf::MutableKb::Options live_options;
  live_options.auto_merge = false;
  rdf::MutableKb live(std::move(loaded).value(), live_options);
  const auto engine = experiment().kbqa().MakeLiveEngine(&live);
  ASSERT_NE(engine, nullptr);
  const std::vector<std::string> questions = BenchmarkQuestions(8, 3131);

  obs::WideEvents::ResetForTest();
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> callbacks{0};
  {
    serve::ServingOptions serving;
    serving.num_workers = 3;
    const auto server = serve::Server::ForEngine(engine.get(), serving);
    std::atomic<bool> stop{false};
    std::promise<void> first_write;
    const std::future<void> first_write_done = first_write.get_future();
    std::thread mutator([&] {
      // The first round runs whatever `stop` says, so at least one merge
      // lands; the submitters start once its write is in, so the swap
      // races requests that are still queued.
      for (int round = 0; round == 0 || !stop.load(std::memory_order_acquire);
           ++round) {
        live.AddTriple("serve/entity" + std::to_string(round), "likes",
                       "value" + std::to_string(round),
                       /*object_is_literal=*/true);
        if (round == 0) first_write.set_value();
        live.ForceMerge();
      }
    });
    first_write_done.wait();
    std::vector<std::thread> submitters;
    for (int t = 0; t < 3; ++t) {
      submitters.emplace_back([&] {
        for (int i = 0; i < 60; ++i) {
          const Status admitted = server->Submit(
              questions[static_cast<size_t>(i) % questions.size()],
              [&](serve::ServeResponse) { callbacks.fetch_add(1); });
          if (admitted.ok()) accepted.fetch_add(1);
        }
      });
    }
    for (auto& th : submitters) th.join();
    stop.store(true, std::memory_order_release);
    mutator.join();
    // ~Server drains or sheds everything still queued.
  }
  ASSERT_EQ(callbacks.load(), accepted.load());
  const std::vector<obs::WideEvent> events = obs::WideEvents::Drain();
  ASSERT_EQ(events.size(), 3u * 60u);
  const uint64_t final_epoch = live.epoch();
  EXPECT_GE(final_epoch, 1u);
  for (const obs::WideEvent& e : events) {
    EXPECT_LE(e.kb_epoch, final_epoch);
  }
}

TEST_F(RaceStressSystemTest, ParallelTrainingUnderTsan) {
  // Parallel EM (sharded BuildObservations + dense E-step merge) under the
  // race detector; the bit-identity itself is parallel_test's job.
  core::KbqaOptions options = experiment().kbqa().options();
  options.em.num_threads = 4;
  core::KbqaSystem system(&experiment().world(), options);
  ASSERT_TRUE(system.Train(experiment().train_corpus()).ok());
  EXPECT_GT(system.template_store().num_templates(), 0u);
}

}  // namespace
}  // namespace kbqa
