// Live-mutation serving semantics (DESIGN.md §10): a LiveKbqaEngine over
// a MutableKb must (a) answer exactly like the frozen engine while no
// mutation has happened, (b) never serve a pre-mutation answer after a
// mutation — whether the write touched the question's entity, an
// intermediate node of its winning path, or the winning value's name, and
// whether it was made on the reading thread or another one —
// while (c) keeping every cached answer whose read set no write touched,
// and (d) answer identically before and after the background merge folds
// the overlay into a fresh frozen base (id stability makes the trained
// model valid across merges). An OnlineInference reads one base: it
// refuses snapshots of any other, answer entries computed against its own
// snapshot serve a live snapshot only while that overlay is empty, and its
// value cache serves its own snapshot alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/kbqa_system.h"
#include "core/live_engine.h"
#include "core/online.h"
#include "corpus/qa_generator.h"
#include "eval/experiment.h"
#include "obs/wide_event.h"
#include "rdf/expanded_predicate.h"
#include "rdf/knowledge_base.h"
#include "rdf/mutable_kb.h"

namespace kbqa {
namespace {

class LiveEngineTest : public ::testing::Test {
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

  /// The Save/Load roundtrip preserves ids bit-for-bit, so the copy seeds
  /// a MutableKb whose base TermIds/PredIds match the trained model's.
  static rdf::KnowledgeBase CopyBaseKb() {
    const std::string path = ::testing::TempDir() + "/live_engine_kb.bin";
    auto saved = experiment().world().kb.Save(path);
    EXPECT_TRUE(saved.ok()) << saved;
    auto loaded = rdf::KnowledgeBase::Load(path);
    EXPECT_TRUE(loaded.ok());
    return std::move(loaded).value();
  }

  static void ExpectSameAnswer(const core::AnswerResult& got,
                               const core::AnswerResult& want,
                               const std::string& question) {
    EXPECT_EQ(got.answered, want.answered) << question;
    EXPECT_EQ(got.value, want.value) << question;
    EXPECT_EQ(got.score, want.score) << question;
    EXPECT_EQ(got.predicate, want.predicate) << question;
    EXPECT_EQ(got.sparql, want.sparql) << question;
    EXPECT_EQ(got.values, want.values) << question;
  }

  static rdf::MutableKb::Options ManualMerge() {
    rdf::MutableKb::Options options;
    options.auto_merge = false;
    return options;
  }

  /// An OnlineInference over `live`'s current base, constructed directly
  /// so a test can drive its caches with snapshots of its own choosing.
  /// `cached` turns both memo caches on or off; an uncached engine
  /// computes every answer from the snapshot it is given.
  static std::unique_ptr<core::OnlineInference> MakeLiveOnline(
      const rdf::MutableKb& live, bool cached) {
    const core::KbqaSystem& kbqa = experiment().kbqa();
    core::OnlineInference::Options options = kbqa.options().online;
    options.enable_answer_cache = cached;
    options.enable_value_cache = cached;
    return std::make_unique<core::OnlineInference>(
        live.Pin()->base.get(), &experiment().world().taxonomy, &kbqa.ner(),
        &kbqa.template_store(), &kbqa.expanded_kb().paths(), options);
  }

  /// A LiveKbqaEngine over `live` with the trained system's online
  /// options and the answer cache on (KbqaSystem::MakeLiveEngine leaves
  /// it off, as the system's options do).
  static std::unique_ptr<core::LiveKbqaEngine> MakeCachedLiveEngine(
      rdf::MutableKb* live) {
    const core::KbqaSystem& kbqa = experiment().kbqa();
    core::LiveKbqaEngine::Options options;
    options.alias_predicates = experiment().world().alias_predicates;
    options.online = kbqa.options().online;
    options.online.enable_answer_cache = true;
    return std::make_unique<core::LiveKbqaEngine>(
        live, &experiment().world().taxonomy, &kbqa.template_store(),
        &kbqa.expanded_kb().paths(), options);
  }

  /// `online`'s cached answer against the newest snapshot of `live`.
  static core::AnswerResult AnswerLive(const core::OnlineInference& online,
                                       const rdf::MutableKb& live,
                                       const std::string& question) {
    return online.AnswerCached(question, core::AnswerOptions{}, *live.Pin());
  }

  /// A question answered through a path of `hops` predicates with a
  /// single winning value and no tie for first place — rewriting that
  /// value's facts must change what the question answers.
  struct Winner {
    std::string question;
    core::AnswerResult answer;
    rdf::TermId entity = rdf::kInvalidTerm;
    rdf::PredPath path;
  };
  static Winner FindStrictWinner(const core::OnlineInference& online,
                                 size_t hops) {
    const rdf::PathDictionary& paths =
        experiment().kbqa().expanded_kb().paths();
    for (const std::string& q : BenchmarkQuestions(60, 2468)) {
      const core::AnswerResult r = online.Answer(q);
      if (!r.answered || r.values.size() != 1) continue;
      if (r.ranked.size() > 1 && r.ranked[0].score <= r.ranked[1].score) {
        continue;
      }
      const rdf::PredPath& path = paths.GetPath(r.ranked[0].best_path);
      if (path.size() != hops) continue;
      return Winner{q, r, r.ranked[0].best_entity, path};
    }
    return Winner{};
  }

  /// Replaces every object of (s, p) with one new object, in one batch.
  static void ReplaceObjects(rdf::MutableKb* live, const std::string& s,
                             const std::string& p, const std::string& object,
                             bool object_is_literal) {
    const auto snap = live->Pin();
    std::vector<rdf::MutationOp> batch;
    for (rdf::TermId o :
         snap->Objects(*snap->LookupNode(s), *snap->LookupPredicate(p))) {
      batch.push_back({true, s, p, snap->NodeString(o), snap->IsLiteral(o)});
    }
    batch.push_back({false, s, p, object, object_is_literal});
    live->Apply(batch);
  }
};

TEST_F(LiveEngineTest, UnmutatedLiveEngineMatchesFrozenEngineExactly) {
  const core::KbqaSystem& kbqa = experiment().kbqa();
  rdf::MutableKb live(CopyBaseKb());
  core::LiveKbqaEngine::Options options;
  options.alias_predicates = experiment().world().alias_predicates;
  options.online = kbqa.options().online;
  core::LiveKbqaEngine engine(&live, &experiment().world().taxonomy,
                              &kbqa.template_store(),
                              &kbqa.expanded_kb().paths(), options);

  core::OnlineInference frozen(
      &experiment().world().kb, &experiment().world().taxonomy, &kbqa.ner(),
      &kbqa.template_store(), &kbqa.expanded_kb().paths(),
      kbqa.options().online);

  size_t answered = 0;
  for (const std::string& q : BenchmarkQuestions(25, 808)) {
    const core::AnswerResult want = frozen.Answer(q);
    ExpectSameAnswer(engine.Answer(q), want, q);
    if (want.answered) ++answered;
  }
  EXPECT_GT(answered, 0u);
  EXPECT_EQ(engine.epoch(), 0u);
}

TEST_F(LiveEngineTest, PostMutationQueryNeverReturnsPreMutationAnswer) {
  const core::KbqaSystem& kbqa = experiment().kbqa();
  const rdf::KnowledgeBase& base = experiment().world().kb;
  const rdf::PathDictionary& paths = kbqa.expanded_kb().paths();

  rdf::MutableKb::Options live_options;
  live_options.auto_merge = false;  // merge only when the test says so
  rdf::MutableKb live(CopyBaseKb(), live_options);
  // The answer cache on: the whole point is that read-set validation
  // keeps a warm cache from replaying the pre-mutation world.
  const auto engine = MakeCachedLiveEngine(&live);
  ASSERT_NE(engine, nullptr);
  core::AnswerOptions answer_options;

  // Pick a question answered through a single-hop path, so the winning
  // fact is one (entity, predicate) whose triples we can rewrite.
  std::string question;
  core::AnswerResult before;
  rdf::TermId entity = rdf::kInvalidTerm;
  rdf::PredId pred = 0;
  for (const std::string& q : BenchmarkQuestions(40, 2468)) {
    const core::AnswerResult r = engine->AnswerCached(q, answer_options);
    if (!r.answered || r.ranked.empty()) continue;
    const rdf::PredPath& path = paths.GetPath(r.ranked[0].best_path);
    if (path.size() != 1) continue;
    question = q;
    before = r;
    entity = r.ranked[0].best_entity;
    pred = path[0];
    break;
  }
  ASSERT_FALSE(question.empty()) << "no single-hop answered question";

  // Warm the answer cache at the current version, then rewrite the
  // winning fact: delete every value of (entity, pred), add a sentinel.
  obs::RequestContext warm;
  core::AnswerOptions warm_options;
  warm_options.request_context = &warm;
  ExpectSameAnswer(engine->AnswerCached(question, warm_options), before,
                   question);
  EXPECT_EQ(warm.answer_cache_hits, 1u) << "the warm read missed the cache";
  const std::string s = base.NodeString(entity);
  const std::string p = base.PredicateString(pred);
  for (const rdf::TermId v : base.Objects(entity, pred)) {
    live.DeleteTriple(s, p, base.NodeString(v));
  }
  const std::string sentinel = "freshness sentinel value";
  live.AddTriple(s, p, sentinel, /*object_is_literal=*/true);
  ASSERT_EQ(live.epoch(), 0u) << "mutation must not require a merge";

  // The pre-mutation answer must be gone immediately — before any merge —
  // even though it is still sitting in the answer cache.
  const core::AnswerResult after =
      engine->AnswerCached(question, answer_options);
  EXPECT_FALSE(after.answered == before.answered &&
               after.value == before.value && after.values == before.values &&
               after.predicate == before.predicate)
      << "stale pre-mutation answer served for: " << question;
  if (after.answered && after.predicate == before.predicate) {
    EXPECT_EQ(after.values, std::vector<std::string>{sentinel});
  }
  // Memoized again: asking again replays the fresh answer.
  ExpectSameAnswer(engine->AnswerCached(question, answer_options), after,
                   question);

  // Merging folds the overlay into a new frozen base; the answer must not
  // change, and the old epoch's cache entries must stay unreachable.
  live.ForceMerge();
  EXPECT_GE(live.epoch(), 1u);
  ExpectSameAnswer(engine->AnswerCached(question, answer_options), after,
                   question);
  ExpectSameAnswer(engine->Answer(question), after, question);
}

TEST_F(LiveEngineTest, WarmAnswersSurviveAnApplyOutsideTheirReadSets) {
  rdf::MutableKb live(CopyBaseKb(), ManualMerge());
  const auto online = MakeLiveOnline(live, /*cached=*/true);
  const std::vector<std::string> questions = BenchmarkQuestions(20, 1357);
  std::vector<core::AnswerResult> warm;
  for (const std::string& q : questions) {
    warm.push_back(AnswerLive(*online, live, q));
  }
  const core::ValueCacheStats before = online->answer_cache_stats();

  // A write whose subject no answer can have read.
  live.AddTriple("live/unrelated entity", "live_fact", "unrelated value",
                 /*object_is_literal=*/true);
  ASSERT_EQ(live.epoch(), 0u);
  for (size_t i = 0; i < questions.size(); ++i) {
    ExpectSameAnswer(AnswerLive(*online, live, questions[i]), warm[i],
                     questions[i]);
  }
  const core::ValueCacheStats after = online->answer_cache_stats();
  EXPECT_EQ(after.hits, before.hits + questions.size());
  EXPECT_EQ(after.misses, before.misses);
}

TEST_F(LiveEngineTest, RewritingAnIntermediateNodeChangesTheCachedAnswer) {
  const rdf::KnowledgeBase& base = experiment().world().kb;
  rdf::MutableKb live(CopyBaseKb(), ManualMerge());
  const auto online = MakeLiveOnline(live, /*cached=*/true);
  const auto uncached = MakeLiveOnline(live, /*cached=*/false);
  const Winner winner = FindStrictWinner(*uncached, /*hops=*/2);
  ASSERT_FALSE(winner.question.empty()) << "no strict two-hop winner";
  const std::vector<rdf::TermId> mids =
      base.Objects(winner.entity, winner.path[0]);
  ASSERT_FALSE(mids.empty());

  // Warm both caches, then rewrite the second hop of every node the first
  // hop reached. The question's entity is untouched: only a read set that
  // holds the intermediate nodes can notice.
  ExpectSameAnswer(AnswerLive(*online, live, winner.question), winner.answer,
                   winner.question);
  const std::string p2 = base.PredicateString(winner.path[1]);
  for (rdf::TermId mid : mids) {
    ReplaceObjects(&live, base.NodeString(mid), p2, "rewritten hop value",
                   /*object_is_literal=*/true);
  }
  const core::AnswerResult after = AnswerLive(*online, live, winner.question);
  EXPECT_NE(after.value, winner.answer.value) << winner.question;
  EXPECT_EQ(after.values, std::vector<std::string>{"rewritten hop value"});
  ExpectSameAnswer(after, AnswerLive(*uncached, live, winner.question),
                   winner.question);
}

TEST_F(LiveEngineTest, RenamingTheWinningValueChangesTheCachedAnswer) {
  const rdf::KnowledgeBase& base = experiment().world().kb;
  rdf::MutableKb live(CopyBaseKb(), ManualMerge());
  const auto online = MakeLiveOnline(live, /*cached=*/true);
  const auto uncached = MakeLiveOnline(live, /*cached=*/false);
  const Winner winner = FindStrictWinner(*uncached, /*hops=*/1);
  ASSERT_FALSE(winner.question.empty()) << "no strict single-hop winner";
  const std::string s = base.NodeString(winner.entity);
  const std::string p = base.PredicateString(winner.path[0]);
  const std::string name = base.PredicateString(base.name_predicate());

  // Make the winning value an entity, which materializes through its name.
  // The walk reads only the question's entity; the value's name edges are
  // read by materialization alone.
  const std::string value_entity = "live/value entity";
  live.AddTriple(value_entity, name, "first name", /*object_is_literal=*/true);
  ReplaceObjects(&live, s, p, value_entity, /*object_is_literal=*/false);
  const core::AnswerResult named = AnswerLive(*online, live, winner.question);
  ASSERT_EQ(named.value, "first name") << winner.question;
  ExpectSameAnswer(AnswerLive(*online, live, winner.question), named,
                   winner.question);

  ReplaceObjects(&live, value_entity, name, "second name",
                 /*object_is_literal=*/true);
  const core::AnswerResult renamed =
      AnswerLive(*online, live, winner.question);
  EXPECT_EQ(renamed.value, "second name") << winner.question;
  EXPECT_EQ(renamed.values, std::vector<std::string>{"second name"});
  ExpectSameAnswer(renamed, AnswerLive(*uncached, live, winner.question),
                   winner.question);
}

TEST_F(LiveEngineTest, ReaderThreadSeesAnApplyFromAnotherThread) {
  // A reader thread keeps its local pin and its warm answer entry while
  // it waits. Once a write made on another thread has returned, the
  // reader's next read must see it, after an Apply and after a merge.
  const rdf::KnowledgeBase& base = experiment().world().kb;
  rdf::MutableKb live(CopyBaseKb(), ManualMerge());
  const auto uncached = MakeLiveOnline(live, /*cached=*/false);
  const Winner winner = FindStrictWinner(*uncached, /*hops=*/1);
  ASSERT_FALSE(winner.question.empty()) << "no strict single-hop winner";
  const auto engine = MakeCachedLiveEngine(&live);
  const std::string s = base.NodeString(winner.entity);
  const std::string p = base.PredicateString(winner.path[0]);

  std::mutex mu;
  std::condition_variable cv;
  int released = 0;                // rounds the main thread has let run
  std::vector<std::string> seen;  // the reader's answer in each round
  std::thread reader([&] {
    for (int round = 0; round < 3; ++round) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return released >= round; });
      }
      core::AnswerResult r =
          engine->AnswerCached(winner.question, core::AnswerOptions{});
      if (round == 0) {  // a hit on the entry the first read inserted
        r = engine->AnswerCached(winner.question, core::AnswerOptions{});
      }
      std::lock_guard<std::mutex> lock(mu);
      seen.push_back(r.value);
      cv.notify_all();
    }
  });
  const auto release_and_wait = [&](int round) {
    std::unique_lock<std::mutex> lock(mu);
    released = round;
    cv.notify_all();
    cv.wait(lock, [&] { return seen.size() > static_cast<size_t>(round); });
  };
  release_and_wait(0);
  ReplaceObjects(&live, s, p, "value written on another thread",
                 /*object_is_literal=*/true);
  release_and_wait(1);
  ReplaceObjects(&live, s, p, "value merged on another thread",
                 /*object_is_literal=*/true);
  live.ForceMerge();
  ASSERT_EQ(live.epoch(), 1u);
  release_and_wait(2);
  reader.join();

  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], winner.answer.value) << winner.question;
  EXPECT_EQ(seen[1], "value written on another thread") << winner.question;
  EXPECT_EQ(seen[2], "value merged on another thread") << winner.question;
}

TEST_F(LiveEngineTest, OwnSnapshotEntriesServeOnlyAnEmptyOverlay) {
  // Answer entries computed against the engine's own snapshot carry no
  // read set, so no write can invalidate them: they may serve a live
  // snapshot only while its overlay is empty, i.e. while it reads exactly
  // the base. Value entries serve the engine's own snapshot alone, so a
  // live answer walks every lookup and its read set is always complete.
  const rdf::KnowledgeBase& base = experiment().world().kb;
  rdf::MutableKb live(CopyBaseKb(), ManualMerge());
  const auto answers = MakeLiveOnline(live, /*cached=*/true);
  const auto values = MakeLiveOnline(live, /*cached=*/true);
  const auto uncached = MakeLiveOnline(live, /*cached=*/false);
  const Winner winner = FindStrictWinner(*uncached, /*hops=*/1);
  ASSERT_FALSE(winner.question.empty()) << "no strict single-hop winner";
  const std::string& q = winner.question;

  // `answers` memoizes the answer on its own snapshot, and serves it to
  // the live snapshot while nothing is written.
  ExpectSameAnswer(answers->AnswerCached(q, core::AnswerOptions{}),
                   winner.answer, q);
  const uint64_t hits = answers->answer_cache_stats().hits;
  ExpectSameAnswer(AnswerLive(*answers, live, q), winner.answer, q);
  EXPECT_EQ(answers->answer_cache_stats().hits, hits + 1);
  // `values` memoizes V(e, p+) on its own snapshot; the live answer walks
  // past those entries and is memoized with its full read set.
  ExpectSameAnswer(values->Answer(q), winner.answer, q);
  ExpectSameAnswer(AnswerLive(*values, live, q), winner.answer, q);

  ReplaceObjects(&live, base.NodeString(winner.entity),
                 base.PredicateString(winner.path[0]), "rewritten value",
                 /*object_is_literal=*/true);
  const auto snapshot = live.Pin();
  const core::AnswerResult want =
      uncached->Answer(q, core::AnswerOptions{}, *snapshot);
  EXPECT_EQ(want.value, "rewritten value") << q;
  ExpectSameAnswer(answers->AnswerCached(q, core::AnswerOptions{}, *snapshot),
                   want, q);
  ExpectSameAnswer(values->AnswerCached(q, core::AnswerOptions{}, *snapshot),
                   want, q);
  // The engine's own snapshot still reads the unmutated base.
  ExpectSameAnswer(answers->AnswerCached(q, core::AnswerOptions{}),
                   winner.answer, q);
}

TEST_F(LiveEngineTest, LiveReadsNeverEnterTheValueCache) {
  // A snapshot the caller pinned walks every V(e, p+) lookup, so the
  // answer cache is the only memo a live read has: the value cache
  // memoizes walks over the engine's own snapshot alone.
  const rdf::KnowledgeBase& base = experiment().world().kb;
  rdf::MutableKb live(CopyBaseKb(), ManualMerge());
  const auto online = MakeLiveOnline(live, /*cached=*/true);
  const auto uncached = MakeLiveOnline(live, /*cached=*/false);
  const Winner winner = FindStrictWinner(*uncached, /*hops=*/1);
  ASSERT_FALSE(winner.question.empty()) << "no strict single-hop winner";
  const auto expect_untouched = [&](const char* when) {
    const core::ValueCacheStats stats = online->value_cache_stats();
    EXPECT_EQ(stats.entries, 0u) << when;
    EXPECT_EQ(stats.hits, 0u) << when;
    EXPECT_EQ(stats.misses, 0u) << when;
  };

  for (const std::string& q : BenchmarkQuestions(20, 1357)) {
    AnswerLive(*online, live, q);
  }
  ExpectSameAnswer(AnswerLive(*online, live, winner.question), winner.answer,
                   winner.question);
  expect_untouched("before the write");

  // The rewrite sends the winner's answer entry back through the
  // pipeline; the fresh questions and the uncached-answer overload miss
  // the answer cache outright.
  ReplaceObjects(&live, base.NodeString(winner.entity),
                 base.PredicateString(winner.path[0]), "rewritten value",
                 /*object_is_literal=*/true);
  ASSERT_EQ(live.epoch(), 0u);
  EXPECT_EQ(AnswerLive(*online, live, winner.question).value,
            "rewritten value");
  const auto snapshot = live.Pin();
  for (const std::string& q : BenchmarkQuestions(20, 9753)) {
    AnswerLive(*online, live, q);
    online->Answer(q, core::AnswerOptions{}, *snapshot);
  }
  expect_untouched("after the write");

  // One answer on the engine's own snapshot, which still reads the
  // unmutated base, fills the value cache.
  ExpectSameAnswer(online->Answer(winner.question), winner.answer,
                   winner.question);
  const core::ValueCacheStats own = online->value_cache_stats();
  EXPECT_GT(own.entries, 0u);
  EXPECT_GT(own.misses, 0u);
}

TEST_F(LiveEngineTest, EngineRefusesSnapshotsOfAMergedBase) {
  // A merge publish folds the overlay into a new base and drops every
  // subject stamp of the closed epoch, so a pre-merge entry re-validated
  // against the new, empty overlay would look current. An engine answers
  // only snapshots of the base it was built over, so it never gets there.
  const rdf::KnowledgeBase& base = experiment().world().kb;
  rdf::MutableKb live(CopyBaseKb(), ManualMerge());
  const auto epoch0 = live.Pin();  // keeps the engine's base alive
  const auto online = MakeLiveOnline(live, /*cached=*/true);
  const Winner winner = FindStrictWinner(*online, /*hops=*/1);
  ASSERT_FALSE(winner.question.empty()) << "no strict single-hop winner";
  const std::string& q = winner.question;
  ExpectSameAnswer(AnswerLive(*online, live, q), winner.answer, q);

  // Rewrite the winning fact without asking again, then merge.
  ReplaceObjects(&live, base.NodeString(winner.entity),
                 base.PredicateString(winner.path[0]), "post-merge value",
                 /*object_is_literal=*/true);
  live.ForceMerge();
  ASSERT_EQ(live.epoch(), 1u);
  const auto merged = live.Pin();
  ASSERT_TRUE(merged->overlay->empty());
  ASSERT_TRUE(merged->overlay->subject_versions.empty());

  for (const core::AnswerResult& refused :
       {online->AnswerCached(q, core::AnswerOptions{}, *merged),
        online->Answer(q, core::AnswerOptions{}, *merged)}) {
    EXPECT_EQ(refused.status.code(), StatusCode::kFailedPrecondition) << q;
    EXPECT_FALSE(refused.answered) << q;
    EXPECT_TRUE(refused.value.empty()) << q;
    EXPECT_TRUE(refused.ranked.empty()) << q;
  }
  // An engine over the merged base answers it.
  const auto fresh = MakeLiveOnline(live, /*cached=*/true);
  EXPECT_EQ(AnswerLive(*fresh, live, q).value, "post-merge value") << q;
}

TEST_F(LiveEngineTest, MakeLiveEngineAnswersBenchmarkAfterBackgroundMerges) {
  const core::KbqaSystem& kbqa = experiment().kbqa();
  rdf::MutableKb::Options live_options;
  live_options.merge_trigger_ops = 4;  // force background merges early
  rdf::MutableKb live(CopyBaseKb(), live_options);
  const auto engine = kbqa.MakeLiveEngine(&live);
  ASSERT_NE(engine, nullptr);

  const std::vector<std::string> questions = BenchmarkQuestions(15, 909);
  std::vector<core::AnswerResult> want;
  for (const std::string& q : questions) {
    want.push_back(engine->AnswerCached(q, core::AnswerOptions{}));
  }

  // Churn unrelated entities through several background merges.
  for (int i = 0; i < 12; ++i) {
    live.AddTriple("live/entity" + std::to_string(i), "likes",
                   "value" + std::to_string(i), /*object_is_literal=*/true);
  }
  live.WaitForMergeIdle();
  EXPECT_GE(live.merges_completed(), 1u);

  // Unrelated churn must not disturb any benchmark answer (id stability:
  // the trained model's ids survived every merge).
  for (size_t i = 0; i < questions.size(); ++i) {
    ExpectSameAnswer(engine->AnswerCached(questions[i], core::AnswerOptions{}),
                     want[i], questions[i]);
  }
}

TEST_F(LiveEngineTest, DestroyingTheEngineDuringAMergeIsSafe) {
  // Every Apply requests a merge, and each engine dies 0-5 ms after its
  // write: some teardowns land while the merge thread is building that
  // engine's state for the rebuilt base. Clearing the factory must wait
  // that call out, or it reads the destroyed engine (a heap-use-after-free
  // under ASan).
  const core::KbqaSystem& kbqa = experiment().kbqa();
  rdf::MutableKb::Options live_options;
  live_options.merge_trigger_ops = 1;
  rdf::MutableKb live(CopyBaseKb(), live_options);
  for (int round = 0; round < 200; ++round) {
    auto engine = kbqa.MakeLiveEngine(&live);
    ASSERT_NE(engine, nullptr);
    live.AddTriple("teardown/entity" + std::to_string(round), "likes",
                   "value", /*object_is_literal=*/true);
    std::this_thread::sleep_for(std::chrono::milliseconds(round % 6));
    engine.reset();
  }
  live.WaitForMergeIdle();
  EXPECT_GE(live.merges_completed(), 1u);
  EXPECT_EQ(live.Pin()->state, nullptr);
}

}  // namespace
}  // namespace kbqa
