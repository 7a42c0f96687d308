// Cross-cutting consistency properties: repeated calls are deterministic
// and side-effect free for every QA system; variant predicate resolution
// behaves as specified; emitted SPARQL agrees with the posterior for a
// sample of benchmark questions.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/variants.h"
#include "eval/experiment.h"
#include "eval/runner.h"
#include "nlp/tokenizer.h"
#include "rdf/query.h"

namespace kbqa {
namespace {

class ConsistencyTest : public ::testing::Test {
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
};

TEST_F(ConsistencyTest, EverySystemIsIdempotentAcrossCalls) {
  corpus::BenchmarkConfig config;
  config.num_questions = 25;
  config.seed = 20202;
  corpus::BenchmarkSet set =
      corpus::GenerateBenchmark(experiment().world(), config);

  std::vector<const core::QaSystemInterface*> systems =
      experiment().Baselines();
  systems.push_back(&experiment().kbqa());
  for (const core::QaSystemInterface* system : systems) {
    for (const corpus::QaPair& pair : set.questions.pairs) {
      core::AnswerResult first = system->Answer(pair.question);
      core::AnswerResult second = system->Answer(pair.question);
      EXPECT_EQ(first.answered, second.answered)
          << system->name() << ": " << pair.question;
      EXPECT_EQ(first.value, second.value)
          << system->name() << ": " << pair.question;
    }
  }
}

TEST_F(ConsistencyTest, BenchmarkRunsAreReproducible) {
  corpus::BenchmarkSet set = experiment().MakeQald1();
  eval::RunResult a = eval::RunBenchmark(experiment().kbqa(), set);
  eval::RunResult b = eval::RunBenchmark(experiment().kbqa(), set);
  EXPECT_EQ(a.counts.ri, b.counts.ri);
  EXPECT_EQ(a.counts.pro, b.counts.pro);
  EXPECT_EQ(a.counts.par, b.counts.par);
}

TEST_F(ConsistencyTest, EmittedSparqlAgreesWithAnswers) {
  // For every answered BFQ in a sample, executing the emitted structured
  // query must yield the answered value (the §1 contract: the question is
  // "mapped precisely to a structured query").
  corpus::BenchmarkConfig config;
  config.num_questions = 60;
  config.bfq_ratio = 1.0;
  config.seed = 30303;
  corpus::BenchmarkSet set =
      corpus::GenerateBenchmark(experiment().world(), config);
  size_t checked = 0;
  for (const corpus::QaPair& pair : set.questions.pairs) {
    core::AnswerResult answer = experiment().kbqa().Answer(pair.question);
    if (!answer.answered || answer.sparql.empty()) continue;
    auto query = rdf::ParseQuery(answer.sparql);
    ASSERT_TRUE(query.ok()) << answer.sparql;
    auto rows = rdf::ExecuteQuery(experiment().world().kb, query.value());
    ASSERT_TRUE(rows.ok());
    bool found = false;
    for (const auto& row : rows.value()) {
      const rdf::KnowledgeBase& kb = experiment().world().kb;
      std::string surface = kb.IsLiteral(row[0]) ? kb.NodeString(row[0])
                                                 : kb.EntityName(row[0]);
      found = found || surface == answer.value;
    }
    EXPECT_TRUE(found) << pair.question << " -> " << answer.sparql;
    ++checked;
  }
  EXPECT_GT(checked, 15u);
}

TEST_F(ConsistencyTest, VariantPredicateResolution) {
  const core::KbqaSystem& kbqa = experiment().kbqa();
  core::VariantSolver solver(
      &experiment().world().kb, &experiment().world().taxonomy, &kbqa.ner(),
      &kbqa.template_store(), &kbqa.expanded_kb().paths());

  // "people" resolves to population for $city through learned templates
  // even though no predicate is named "people".
  auto population = solver.ResolvePredicate("$city", {"population"});
  ASSERT_TRUE(population.has_value());
  auto people = solver.ResolvePredicate("$city", {"people"});
  ASSERT_TRUE(people.has_value());
  EXPECT_EQ(*population, *people);
  EXPECT_EQ(kbqa.expanded_kb().paths().ToString(*people,
                                                experiment().world().kb),
            "population");

  // Unknown phrases and stopword-only phrases resolve to nothing.
  EXPECT_FALSE(solver.ResolvePredicate("$city", {"flibbertigibbet"})
                   .has_value());
  EXPECT_FALSE(solver.ResolvePredicate("$city", {"the", "of"}).has_value());
  // A phrase from another category's vocabulary doesn't leak across.
  EXPECT_FALSE(solver.ResolvePredicate("$fruit", {"population"}).has_value());
}

TEST_F(ConsistencyTest, AnswerValuesListMatchesSparqlRowCount) {
  core::AnswerResult result =
      experiment().kbqa().Answer("who are the members of coldplay");
  ASSERT_TRUE(result.answered);
  ASSERT_FALSE(result.sparql.empty());
  auto query = rdf::ParseQuery(result.sparql);
  ASSERT_TRUE(query.ok());
  auto rows = rdf::ExecuteQuery(experiment().world().kb, query.value());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), result.values.size());
}

TEST_F(ConsistencyTest, HybridNeverAnswersLessThanPrimary) {
  corpus::BenchmarkSet set = experiment().MakeQald3();
  for (const core::QaSystemInterface* baseline : experiment().Baselines()) {
    core::HybridSystem hybrid(&experiment().kbqa(), baseline);
    eval::RunResult primary = eval::RunBenchmark(experiment().kbqa(), set);
    eval::RunResult combined = eval::RunBenchmark(hybrid, set);
    EXPECT_GE(combined.counts.pro, primary.counts.pro) << baseline->name();
    EXPECT_GE(combined.counts.ri, primary.counts.ri) << baseline->name();
  }
}

}  // namespace
}  // namespace kbqa
