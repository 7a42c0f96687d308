// The threading layer's determinism contract (DESIGN.md "Threading model &
// determinism"): the thread pool's static sharding, bit-identical EM
// training for any thread count, concurrent AnswerCached callers ==
// Answer per question, and the online value cache being unobservable in
// results.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/kbqa_system.h"
#include "core/online.h"
#include "eval/experiment.h"
#include "nlp/tokenizer.h"
#include "util/thread_pool.h"

namespace kbqa {
namespace {

// ---------- ThreadPool / sharding primitives ----------

TEST(ShardOfTest, PartitionsRangeContiguously) {
  for (size_t n : {0u, 1u, 7u, 32u, 100u, 1001u}) {
    for (size_t shards : {1u, 2u, 3u, 32u}) {
      size_t expected_begin = 0;
      for (size_t s = 0; s < shards; ++s) {
        ShardRange r = ShardOf(n, s, shards);
        EXPECT_EQ(r.begin, expected_begin) << n << "/" << shards << "#" << s;
        EXPECT_LE(r.begin, r.end);
        expected_begin = r.end;
      }
      EXPECT_EQ(expected_begin, n);
    }
  }
}

TEST(ThreadPoolTest, RunsEveryShardExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    for (size_t num_shards : {size_t{1}, size_t{3}, size_t{257}}) {
      ThreadPool pool(threads);
      EXPECT_EQ(pool.num_threads(), threads);
      std::vector<std::atomic<int>> hits(num_shards);
      for (auto& h : hits) h = 0;
      std::vector<std::thread::id> ran_on(num_shards);
      pool.RunShards(num_shards, [&](size_t shard) {
        ++hits[shard];
        ran_on[shard] = std::this_thread::get_id();
      });
      for (size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "shard " << i;
      }
      // At most min(threads, shards) threads run shards, and a job that
      // gets no helper runs on the caller.
      std::sort(ran_on.begin(), ran_on.end());
      const size_t distinct = static_cast<size_t>(
          std::unique(ran_on.begin(), ran_on.end()) - ran_on.begin());
      EXPECT_LE(distinct, std::min(static_cast<size_t>(threads), num_shards))
          << threads << " threads, " << num_shards << " shards";
      if (threads == 1 || num_shards == 1) {
        EXPECT_EQ(ran_on[0], std::this_thread::get_id());
      }
    }
  }
}

TEST(ThreadPoolTest, ReusableAcrossJobs) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.RunShards(16, [&](size_t shard) { sum += static_cast<long>(shard); });
  }
  EXPECT_EQ(sum.load(), 50 * (15 * 16 / 2));
}

TEST(ThreadPoolTest, ConcurrentCallersEachRunTheirOwnJob) {
  // Two threads share one pool; each call must run exactly its own shards.
  ThreadPool pool(4);
  constexpr int kRounds = 50;
  constexpr size_t kShards = 37;
  std::atomic<int> arrived{0};
  auto caller = [&](std::vector<std::atomic<int>>* hits) {
    arrived.fetch_add(1);
    while (arrived.load() < 2) std::this_thread::yield();
    for (int round = 0; round < kRounds; ++round) {
      pool.RunShards(kShards, [&](size_t shard) { ++(*hits)[shard]; });
    }
  };
  std::vector<std::atomic<int>> hits_a(kShards), hits_b(kShards);
  for (size_t i = 0; i < kShards; ++i) hits_a[i] = hits_b[i] = 0;
  std::thread a(caller, &hits_a), b(caller, &hits_b);
  a.join();
  b.join();
  for (size_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(hits_a[i].load(), kRounds) << "caller a, shard " << i;
    EXPECT_EQ(hits_b[i].load(), kRounds) << "caller b, shard " << i;
  }
}

TEST(ParallelForTest, CoversRangeWithLocalWrites) {
  ThreadPool pool(4);
  std::vector<int> marks(1000, 0);
  ParallelFor(pool, marks.size(), 32, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) marks[i] += 1;
  });
  EXPECT_EQ(std::accumulate(marks.begin(), marks.end(), 0), 1000);
}

// ---------- End-to-end determinism over a trained system ----------

class ParallelSystemTest : public ::testing::Test {
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

  static std::vector<std::string> BenchmarkQuestions(size_t n, uint64_t seed) {
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

  /// Answers questions[i] into results[i] through `engine.AnswerCached`
  /// from `threads` concurrent callers, caller c taking every
  /// threads-th question from the c-th.
  static std::vector<core::AnswerResult> AnswerConcurrently(
      const core::OnlineInference& engine,
      const std::vector<std::string>& questions, int threads) {
    std::vector<core::AnswerResult> results(questions.size());
    std::vector<std::thread> callers;
    for (int c = 0; c < threads; ++c) {
      callers.emplace_back([&, c] {
        for (size_t i = static_cast<size_t>(c); i < questions.size();
             i += static_cast<size_t>(threads)) {
          results[i] = engine.AnswerCached(questions[i], core::AnswerOptions{});
        }
      });
    }
    for (std::thread& caller : callers) caller.join();
    return results;
  }
};

TEST_F(ParallelSystemTest, TrainingIsBitIdenticalAcrossThreadCounts) {
  // The shared experiment trains with the default single thread; retrain
  // with 2 and 8 threads and demand the same seeds and pattern index,
  // bit-identical θ, template ids, frequencies, and per-iteration
  // log-likelihoods, and the same Table 15 decompositions.
  const core::KbqaSystem& ref_kbqa = experiment().kbqa();
  const core::TemplateStore& reference = ref_kbqa.template_store();
  const core::EmStats& ref_stats = ref_kbqa.em_stats();
  const char* const kComplexQuestions[] = {
      "how many people live in the capital of japan",
      "when was barack obama's wife born",
      "what are books written by author of harry potter",
      "what is the area of the capital of britain",
      "how large is the capital of germany",
      "what instrument do members of coldplay play",
      "what is the birthday of the ceo of google",
      "in which country is the headquarter of google located",
  };

  for (int threads : {2, 8}) {
    core::KbqaOptions options = experiment().kbqa().options();
    options.em.num_threads = threads;
    core::KbqaSystem system(&experiment().world(), options);
    ASSERT_TRUE(system.Train(experiment().train_corpus()).ok());

    EXPECT_EQ(system.expansion_seeds(), ref_kbqa.expansion_seeds())
        << threads << " threads";
    EXPECT_EQ(system.pattern_index()->num_patterns(),
              ref_kbqa.pattern_index()->num_patterns())
        << threads << " threads";
    for (const char* question : kComplexQuestions) {
      const core::ComplexAnswer complex = system.AnswerComplex(question);
      const core::ComplexAnswer ref_complex = ref_kbqa.AnswerComplex(question);
      EXPECT_EQ(complex.sequence, ref_complex.sequence) << question;
      EXPECT_EQ(complex.decomposition_probability,
                ref_complex.decomposition_probability)
          << question << " (bit-exact)";
    }

    const core::TemplateStore& store = system.template_store();
    const core::EmStats& stats = system.em_stats();
    ASSERT_EQ(store.num_templates(), reference.num_templates())
        << threads << " threads";
    for (core::TemplateId t = 0; t < store.num_templates(); ++t) {
      EXPECT_EQ(store.TemplateText(t), reference.TemplateText(t));
      EXPECT_EQ(store.Frequency(t), reference.Frequency(t));
      auto dist = store.Distribution(t);
      auto ref_dist = reference.Distribution(t);
      ASSERT_EQ(dist.size(), ref_dist.size()) << store.TemplateText(t);
      for (size_t i = 0; i < dist.size(); ++i) {
        EXPECT_EQ(dist[i].path, ref_dist[i].path);
        EXPECT_EQ(dist[i].probability, ref_dist[i].probability)
            << store.TemplateText(t) << " entry " << i << " (bit-exact)";
      }
    }
    EXPECT_EQ(stats.num_observations, ref_stats.num_observations);
    EXPECT_EQ(stats.iterations, ref_stats.iterations);
    ASSERT_EQ(stats.log_likelihood.size(), ref_stats.log_likelihood.size());
    for (size_t i = 0; i < stats.log_likelihood.size(); ++i) {
      EXPECT_EQ(stats.log_likelihood[i], ref_stats.log_likelihood[i])
          << "iteration " << i << " (bit-exact)";
    }
  }
}

TEST_F(ParallelSystemTest, ConcurrentCallersMatchAnswerForAnyThreadCount) {
  std::vector<std::string> questions = BenchmarkQuestions(40, 8181);
  const core::KbqaSystem& kbqa = experiment().kbqa();

  std::vector<core::AnswerResult> reference;
  reference.reserve(questions.size());
  for (const std::string& q : questions) reference.push_back(kbqa.Answer(q));

  for (int threads : {1, 2, 8}) {
    std::vector<core::AnswerResult> batched =
        AnswerConcurrently(kbqa.online(), questions, threads);
    ASSERT_EQ(batched.size(), reference.size());
    for (size_t i = 0; i < batched.size(); ++i) {
      EXPECT_EQ(batched[i].answered, reference[i].answered) << questions[i];
      EXPECT_EQ(batched[i].value, reference[i].value) << questions[i];
      EXPECT_EQ(batched[i].score, reference[i].score) << questions[i];
      EXPECT_EQ(batched[i].sparql, reference[i].sparql) << questions[i];
      EXPECT_EQ(batched[i].values, reference[i].values) << questions[i];
      EXPECT_EQ(batched[i].ranked.size(), reference[i].ranked.size());
    }
  }
}

TEST_F(ParallelSystemTest, CachedInferenceMatchesUncached) {
  const core::KbqaSystem& kbqa = experiment().kbqa();
  core::OnlineInference::Options cached_options = kbqa.options().online;
  cached_options.enable_value_cache = true;
  core::OnlineInference::Options uncached_options = kbqa.options().online;
  uncached_options.enable_value_cache = false;

  core::OnlineInference cached(
      &experiment().world().kb, &experiment().world().taxonomy, &kbqa.ner(),
      &kbqa.template_store(), &kbqa.expanded_kb().paths(), cached_options);
  core::OnlineInference uncached(
      &experiment().world().kb, &experiment().world().taxonomy, &kbqa.ner(),
      &kbqa.template_store(), &kbqa.expanded_kb().paths(), uncached_options);

  // Two passes over the same questions: the second pass hits a warm cache
  // and must still agree field-for-field with the uncached engine.
  std::vector<std::string> questions = BenchmarkQuestions(30, 9292);
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& q : questions) {
      core::AnswerResult a = cached.Answer(q);
      core::AnswerResult b = uncached.Answer(q);
      EXPECT_EQ(a.answered, b.answered) << q;
      EXPECT_EQ(a.value, b.value) << q;
      EXPECT_EQ(a.score, b.score) << q;
      EXPECT_EQ(a.predicate, b.predicate) << q;
      EXPECT_EQ(a.sparql, b.sparql) << q;
      EXPECT_EQ(a.values, b.values) << q;
      EXPECT_EQ(a.num_predicates, b.num_predicates) << q;
      EXPECT_EQ(a.num_values, b.num_values) << q;
      ASSERT_EQ(a.ranked.size(), b.ranked.size()) << q;
      for (size_t i = 0; i < a.ranked.size(); ++i) {
        EXPECT_EQ(a.ranked[i].value, b.ranked[i].value);
        EXPECT_EQ(a.ranked[i].score, b.ranked[i].score);
        EXPECT_EQ(a.ranked[i].best_entity, b.ranked[i].best_entity);
      }

      std::vector<std::string> tokens = nlp::TokenizeQuestion(q);
      EXPECT_EQ(cached.IsPrimitiveBfq(tokens), uncached.IsPrimitiveBfq(tokens))
          << q;
    }
  }
  // Cache accounting: this test is single-threaded, so every lookup is
  // exactly a hit or a miss, every miss inserts, and the cached engine's
  // books must balance. The uncached engine bypasses the cache entirely.
  const core::ValueCacheStats stats = cached.value_cache_stats();
  EXPECT_GT(stats.entries, 0u);
  EXPECT_GT(stats.hits, 0u);  // Pass 2 rereads pass 1's entries.
  EXPECT_EQ(stats.misses, stats.entries);
  EXPECT_GT(stats.hits + stats.misses, stats.entries);
  const core::ValueCacheStats none = uncached.value_cache_stats();
  EXPECT_EQ(none.hits, 0u);
  EXPECT_EQ(none.misses, 0u);
  EXPECT_EQ(none.entries, 0u);
  EXPECT_EQ(none.bytes, 0u);
}

TEST_F(ParallelSystemTest, BudgetedCacheMatchesUnboundedAndStaysUnderBudget) {
  const core::KbqaSystem& kbqa = experiment().kbqa();
  core::OnlineInference::Options unbounded_options = kbqa.options().online;
  unbounded_options.enable_value_cache = true;
  unbounded_options.value_cache_budget_bytes = 0;
  core::OnlineInference::Options budgeted_options = unbounded_options;
  // Small enough to force evictions on a real question stream, large
  // enough to still admit entries (per-shard slice must fit one vector).
  budgeted_options.value_cache_budget_bytes = 16 * 1024;

  core::OnlineInference unbounded(
      &experiment().world().kb, &experiment().world().taxonomy, &kbqa.ner(),
      &kbqa.template_store(), &kbqa.expanded_kb().paths(), unbounded_options);
  core::OnlineInference budgeted(
      &experiment().world().kb, &experiment().world().taxonomy, &kbqa.ner(),
      &kbqa.template_store(), &kbqa.expanded_kb().paths(), budgeted_options);

  // Eviction must be semantically invisible: evicted entries are simply
  // recomputed from the immutable KB on the next miss.
  std::vector<std::string> questions = BenchmarkQuestions(40, 7171);
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& q : questions) {
      core::AnswerResult a = budgeted.Answer(q);
      core::AnswerResult b = unbounded.Answer(q);
      EXPECT_EQ(a.answered, b.answered) << q;
      EXPECT_EQ(a.value, b.value) << q;
      EXPECT_EQ(a.score, b.score) << q;
      EXPECT_EQ(a.sparql, b.sparql) << q;
      EXPECT_EQ(a.values, b.values) << q;
      EXPECT_TRUE(a.status.ok());
    }
  }

  const core::ValueCacheStats capped = budgeted.value_cache_stats();
  EXPECT_EQ(capped.budget_bytes, budgeted_options.value_cache_budget_bytes);
  EXPECT_LE(capped.bytes, capped.budget_bytes);
  EXPECT_GT(capped.entries, 0u);
  const core::ValueCacheStats full = unbounded.value_cache_stats();
  EXPECT_EQ(full.budget_bytes, 0u);
  EXPECT_EQ(full.evictions, 0u);
  // Same stream, so the budgeted engine can only have lost hits (every
  // eviction it suffered turns a would-be hit into a miss).
  EXPECT_EQ(capped.hits + capped.misses, full.hits + full.misses);
  EXPECT_GE(capped.misses, full.misses);
}

TEST_F(ParallelSystemTest, AnswerCacheMatchesUncachedAcrossBatches) {
  const core::KbqaSystem& kbqa = experiment().kbqa();
  core::OnlineInference::Options cached_options = kbqa.options().online;
  cached_options.enable_answer_cache = true;
  cached_options.answer_cache_budget_bytes = 0;  // unbounded memo

  core::OnlineInference cached(
      &experiment().world().kb, &experiment().world().taxonomy, &kbqa.ner(),
      &kbqa.template_store(), &kbqa.expanded_kb().paths(), cached_options);

  // Head-heavy batch: every question appears twice (serving traffic shape
  // the memo exists for).
  std::vector<std::string> unique_questions = BenchmarkQuestions(20, 5353);
  std::vector<std::string> batch = unique_questions;
  batch.insert(batch.end(), unique_questions.begin(), unique_questions.end());

  std::vector<core::AnswerResult> reference;
  reference.reserve(batch.size());
  for (const std::string& q : batch) reference.push_back(kbqa.Answer(q));

  // Pass 1 single-threaded (cold cache), pass 2 from 4 callers (warm
  // cache): both must be field-identical to the uncached engine.
  for (int pass_threads : {1, 4}) {
    std::vector<core::AnswerResult> batched =
        AnswerConcurrently(cached, batch, pass_threads);
    ASSERT_EQ(batched.size(), reference.size());
    for (size_t i = 0; i < batched.size(); ++i) {
      EXPECT_EQ(batched[i].answered, reference[i].answered) << batch[i];
      EXPECT_EQ(batched[i].value, reference[i].value) << batch[i];
      EXPECT_EQ(batched[i].score, reference[i].score) << batch[i];
      EXPECT_EQ(batched[i].predicate, reference[i].predicate) << batch[i];
      EXPECT_EQ(batched[i].sparql, reference[i].sparql) << batch[i];
      EXPECT_EQ(batched[i].values, reference[i].values) << batch[i];
      EXPECT_TRUE(batched[i].status.ok()) << batch[i];
    }
  }

  // Books: pass 1 ran single-threaded, so each unique question missed
  // exactly once (its duplicate hit the fresh entry); pass 2 was all hits.
  const core::ValueCacheStats stats = cached.answer_cache_stats();
  EXPECT_EQ(stats.misses, unique_questions.size());
  EXPECT_EQ(stats.hits, 2 * batch.size() - unique_questions.size());
  EXPECT_EQ(stats.entries, unique_questions.size());
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.budget_bytes, 0u);

  // Single-shot Answer bypasses the whole-question memo (benchmarks measure
  // the pipeline): stats must not move.
  (void)cached.Answer(unique_questions[0]);  // memo bypass asserted below
  EXPECT_EQ(cached.answer_cache_stats().hits, stats.hits);
  EXPECT_EQ(cached.answer_cache_stats().misses, stats.misses);

  // With the memo disabled (the default), the books stay empty.
  EXPECT_EQ(kbqa.online().answer_cache_stats().entries, 0u);
  EXPECT_EQ(kbqa.online().answer_cache_stats().hits, 0u);
}

TEST_F(ParallelSystemTest, AnswerCacheKeyIsNormalizedAcrossSurfaceVariants) {
  // The memo key is NormalizeText(question), so casing / whitespace /
  // punctuation-spacing paraphrases of one canonical question must share
  // a single cache entry — and, since they tokenize identically, a single
  // identical answer.
  const core::KbqaSystem& kbqa = experiment().kbqa();
  core::OnlineInference::Options options = kbqa.options().online;
  options.enable_answer_cache = true;
  core::OnlineInference cached(
      &experiment().world().kb, &experiment().world().taxonomy, &kbqa.ner(),
      &kbqa.template_store(), &kbqa.expanded_kb().paths(), options);

  const std::string question = BenchmarkQuestions(1, 8080).front();
  std::string upper = question;
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  std::string spaced;
  for (char c : question) {
    spaced += c;
    if (c == ' ') spaced += "  ";
  }
  const std::vector<std::string> variants = {
      question, upper, "  " + question + "  ", spaced};
  for (const std::string& variant : variants) {
    ASSERT_EQ(nlp::NormalizeText(variant), nlp::NormalizeText(question))
        << variant;
  }

  const core::AnswerResult reference = kbqa.Answer(question);
  for (const std::string& variant : variants) {
    const core::AnswerResult result =
        cached.AnswerCached(variant, core::AnswerOptions{});
    EXPECT_EQ(result.answered, reference.answered) << variant;
    EXPECT_EQ(result.value, reference.value) << variant;
    EXPECT_EQ(result.score, reference.score) << variant;
    EXPECT_EQ(result.values, reference.values) << variant;
  }
  // One miss (the first variant computed), then every paraphrase hit the
  // same normalized entry.
  const core::ValueCacheStats stats = cached.answer_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, variants.size() - 1);
  EXPECT_EQ(stats.entries, 1u);
}

TEST_F(ParallelSystemTest, AnswerCacheBudgetBoundsResidentBytes) {
  const core::KbqaSystem& kbqa = experiment().kbqa();
  core::OnlineInference::Options budgeted_options = kbqa.options().online;
  budgeted_options.enable_answer_cache = true;
  // Small enough that a realistic stream cannot keep everything resident,
  // large enough for a per-shard slice to admit typical AnswerResults.
  budgeted_options.answer_cache_budget_bytes = 64 * 1024;

  core::OnlineInference budgeted(
      &experiment().world().kb, &experiment().world().taxonomy, &kbqa.ner(),
      &kbqa.template_store(), &kbqa.expanded_kb().paths(), budgeted_options);

  std::vector<std::string> questions = BenchmarkQuestions(40, 2718);
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<core::AnswerResult> batched =
        AnswerConcurrently(budgeted, questions, 2);
    for (size_t i = 0; i < batched.size(); ++i) {
      // Eviction must be semantically invisible: dropped memo entries are
      // recomputed by the full pipeline on the next miss.
      core::AnswerResult direct = kbqa.Answer(questions[i]);
      EXPECT_EQ(batched[i].answered, direct.answered) << questions[i];
      EXPECT_EQ(batched[i].value, direct.value) << questions[i];
      EXPECT_EQ(batched[i].score, direct.score) << questions[i];
      EXPECT_EQ(batched[i].values, direct.values) << questions[i];
    }
  }

  const core::ValueCacheStats stats = budgeted.answer_cache_stats();
  EXPECT_EQ(stats.budget_bytes, budgeted_options.answer_cache_budget_bytes);
  EXPECT_LE(stats.bytes, stats.budget_bytes);
  EXPECT_GT(stats.entries, 0u);
  EXPECT_EQ(stats.hits + stats.misses, 2 * questions.size());
}

TEST_F(ParallelSystemTest, DeadlineExceededDegradesGracefully) {
  const core::KbqaSystem& kbqa = experiment().kbqa();
  std::vector<std::string> questions = BenchmarkQuestions(10, 6464);

  core::AnswerOptions expired;
  expired.deadline = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1);
  core::AnswerOptions generous;
  generous.deadline = std::chrono::steady_clock::now() +
                      std::chrono::hours(1);

  for (const std::string& q : questions) {
    // An already-expired deadline returns immediately: empty answer,
    // kDeadlineExceeded status, nothing enumerated.
    core::AnswerResult late = kbqa.Answer(q, expired);
    EXPECT_FALSE(late.answered) << q;
    EXPECT_EQ(late.status.code(), StatusCode::kDeadlineExceeded) << q;
    EXPECT_EQ(late.num_templates, 0u) << q;

    // A generous deadline is semantically invisible.
    core::AnswerResult bounded = kbqa.Answer(q, generous);
    core::AnswerResult reference = kbqa.Answer(q);
    EXPECT_TRUE(bounded.status.ok()) << q;
    EXPECT_EQ(bounded.answered, reference.answered) << q;
    EXPECT_EQ(bounded.value, reference.value) << q;
    EXPECT_EQ(bounded.score, reference.score) << q;
    EXPECT_EQ(bounded.values, reference.values) << q;
  }
}

}  // namespace
}  // namespace kbqa
