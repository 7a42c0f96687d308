#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/kbqa_system.h"
#include "core/model_io.h"
#include "core/variants.h"
#include "eval/experiment.h"
#include "rdf/query.h"
#include "util/strings.h"

namespace kbqa {
namespace {

// ---------- SPARQL-lite query engine ----------

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rdf::PredId name = kb_.AddPredicate("name");
    kb_.SetNamePredicate(name);
    rdf::PredId dob = kb_.AddPredicate("dob");
    rdf::PredId marriage = kb_.AddPredicate("marriage");
    rdf::PredId person = kb_.AddPredicate("person");

    rdf::TermId a = kb_.AddEntity("person/a");
    rdf::TermId b = kb_.AddEntity("marriage/b");
    rdf::TermId c = kb_.AddEntity("person/c");
    kb_.AddTriple(a, name, kb_.AddLiteral("barack obama"));
    kb_.AddTriple(a, dob, kb_.AddLiteral("1961"));
    kb_.AddTriple(a, marriage, b);
    kb_.AddTriple(b, person, c);
    kb_.AddTriple(c, name, kb_.AddLiteral("michelle obama"));
    kb_.AddTriple(c, dob, kb_.AddLiteral("1964"));
    kb_.Freeze();
  }

  rdf::KnowledgeBase kb_;
};

TEST_F(QueryTest, ParseRoundTrip) {
  std::string text =
      "SELECT ?wife WHERE { person/a marriage ?m . ?m person ?p . "
      "?p name ?wife }";
  auto query = rdf::ParseQuery(text);
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_EQ(query.value().select, (std::vector<std::string>{"wife"}));
  EXPECT_EQ(query.value().where.size(), 3u);
  // Round trip through the serializer re-parses identically.
  auto again = rdf::ParseQuery(rdf::QueryToString(query.value()));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().where, query.value().where);
}

TEST_F(QueryTest, ParseQuotedLiteral) {
  auto query =
      rdf::ParseQuery("SELECT ?x WHERE { ?x name \"barack obama\" }");
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_EQ(query.value().where[0].object.text, "barack obama");
  EXPECT_FALSE(query.value().where[0].object.is_variable);
}

TEST_F(QueryTest, ParseErrors) {
  EXPECT_FALSE(rdf::ParseQuery("garbage").ok());
  EXPECT_FALSE(rdf::ParseQuery("SELECT x WHERE { a b c }").ok());
  EXPECT_FALSE(rdf::ParseQuery("SELECT ?x WHERE { a b }").ok());
  EXPECT_FALSE(rdf::ParseQuery("SELECT ?x WHERE { ?x ?p ?o }").ok());
  EXPECT_FALSE(rdf::ParseQuery("SELECT ?x WHERE { }").ok());
  EXPECT_FALSE(
      rdf::ParseQuery("SELECT ?x WHERE { ?x name \"unterminated }").ok());
}

TEST_F(QueryTest, ExecutesChainJoin) {
  auto query = rdf::ParseQuery(
      "SELECT ?wife WHERE { person/a marriage ?m . ?m person ?p . "
      "?p name ?wife }");
  ASSERT_TRUE(query.ok());
  auto rows = rdf::ExecuteQuery(kb_, query.value());
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(kb_.NodeString(rows.value()[0][0]), "michelle obama");
}

TEST_F(QueryTest, ExecutesReverseLookup) {
  // Object bound, subject variable: who was born in 1964?
  auto query = rdf::ParseQuery("SELECT ?who WHERE { ?who dob 1964 }");
  ASSERT_TRUE(query.ok());
  auto rows = rdf::ExecuteQuery(kb_, query.value());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(kb_.NodeString(rows.value()[0][0]), "person/c");
}

TEST_F(QueryTest, UnknownTermsYieldEmpty) {
  auto q1 = rdf::ParseQuery("SELECT ?x WHERE { nobody dob ?x }");
  ASSERT_TRUE(q1.ok());
  EXPECT_TRUE(rdf::ExecuteQuery(kb_, q1.value()).value().empty());
  auto q2 = rdf::ParseQuery("SELECT ?x WHERE { person/a nopred ?x }");
  ASSERT_TRUE(q2.ok());
  EXPECT_TRUE(rdf::ExecuteQuery(kb_, q2.value()).value().empty());
}

TEST_F(QueryTest, PlannerAvoidsFullScansWhenPossible) {
  // Written in the worst order: the planner must start from the constant.
  auto query = rdf::ParseQuery(
      "SELECT ?wife WHERE { ?p name ?wife . ?m person ?p . "
      "person/a marriage ?m }");
  ASSERT_TRUE(query.ok());
  rdf::QueryStats stats;
  auto rows = rdf::ExecuteQuery(kb_, query.value(), &stats);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(kb_.NodeString(rows.value()[0][0]), "michelle obama");
  EXPECT_EQ(stats.full_scans, 0u);
}

TEST_F(QueryTest, MultiVariableSelect) {
  auto query = rdf::ParseQuery("SELECT ?p ?y WHERE { ?p dob ?y }");
  ASSERT_TRUE(query.ok());
  auto rows = rdf::ExecuteQuery(kb_, query.value());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 2u);  // obama and michelle
  for (const auto& row : rows.value()) EXPECT_EQ(row.size(), 2u);
}

TEST_F(QueryTest, BuildPathQueryMatchesManualQuery) {
  auto marriage = *kb_.LookupPredicate("marriage");
  auto person = *kb_.LookupPredicate("person");
  auto name = *kb_.LookupPredicate("name");
  auto entity = kb_.EntitiesByName("barack obama");
  ASSERT_EQ(entity.size(), 1u);
  rdf::Query query =
      rdf::BuildPathQuery(kb_, entity[0], {marriage, person, name});
  auto rows = rdf::ExecuteQuery(kb_, query);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(kb_.NodeString(rows.value()[0][0]), "michelle obama");
}

TEST_F(QueryTest, SelfLoopPatternEnforcesEquality) {
  // Regression: "?x p ?x" must bind one variable with an equality
  // constraint, not two independent ones (caught by the brute-force
  // equivalence property test).
  rdf::KnowledgeBase kb;
  rdf::PredId knows = kb.AddPredicate("knows");
  rdf::TermId a = kb.AddEntity("a");
  rdf::TermId b = kb.AddEntity("b");
  kb.AddTriple(a, knows, a);  // reflexive
  kb.AddTriple(a, knows, b);  // not reflexive
  kb.Freeze();
  auto query = rdf::ParseQuery("SELECT ?x WHERE { ?x knows ?x }");
  ASSERT_TRUE(query.ok());
  auto rows = rdf::ExecuteQuery(kb, query.value());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0][0], a);
}

TEST_F(QueryTest, RequiresFrozenKb) {
  rdf::KnowledgeBase kb;
  kb.AddPredicate("p");
  auto query = rdf::ParseQuery("SELECT ?x WHERE { ?x p ?y }");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(rdf::ExecuteQuery(kb, query.value()).status().code(),
            StatusCode::kFailedPrecondition);
}

// ---------- Shared trained experiment for extension features ----------

class ExtensionsTest : public ::testing::Test {
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

// ---------- SPARQL emission from the online procedure ----------

TEST_F(ExtensionsTest, AnswerCarriesExecutableSparql) {
  core::AnswerResult answer =
      experiment().kbqa().Answer("who is the wife of barack obama");
  ASSERT_TRUE(answer.answered);
  ASSERT_FALSE(answer.sparql.empty());
  auto query = rdf::ParseQuery(answer.sparql);
  ASSERT_TRUE(query.ok()) << answer.sparql;
  auto rows = rdf::ExecuteQuery(experiment().world().kb, query.value());
  ASSERT_TRUE(rows.ok());
  bool found = false;
  for (const auto& row : rows.value()) {
    found = found ||
            experiment().world().kb.NodeString(row[0]) == answer.value;
  }
  EXPECT_TRUE(found) << "the emitted query must return the answered value";
}

// ---------- Model persistence ----------

TEST_F(ExtensionsTest, ModelSaveLoadRoundTrip) {
  std::string path = ::testing::TempDir() + "/kbqa_model.bin";
  ASSERT_TRUE(experiment().kbqa().SaveModel(path).ok());

  core::KbqaSystem restored(&experiment().world());
  EXPECT_FALSE(restored.trained());
  ASSERT_TRUE(restored.LoadModel(path).ok());
  EXPECT_TRUE(restored.trained());
  EXPECT_EQ(restored.template_store().num_templates(),
            experiment().kbqa().template_store().num_templates());

  for (const char* q : {"what is the population of honolulu",
                        "who is the wife of barack obama",
                        "what is the capital of japan"}) {
    EXPECT_EQ(restored.Answer(q).value, experiment().kbqa().Answer(q).value)
        << q;
  }
  // Variant questions resolve through the restored model's path ids too.
  for (const char* q : {"which city has the largest population",
                        "which has more people , honolulu or tokyo"}) {
    const core::AnswerResult want = experiment().kbqa().AnswerVariant(q);
    const core::AnswerResult got = restored.AnswerVariant(q);
    ASSERT_TRUE(want.answered) << q;
    EXPECT_TRUE(got.answered) << q;
    EXPECT_EQ(got.value, want.value) << q;
    EXPECT_EQ(got.predicate, want.predicate) << q;
  }
  // The model file carries no pattern index, so a restored system has no
  // decomposer and AnswerComplex answers the question directly.
  EXPECT_EQ(restored.pattern_index(), nullptr);
  const core::ComplexAnswer complex =
      restored.AnswerComplex("when was barack obama born");
  EXPECT_TRUE(complex.answer.answered);
  EXPECT_EQ(complex.sequence.size(), 1u);
  std::remove(path.c_str());
}

TEST_F(ExtensionsTest, LoadModelRejectsGarbage) {
  std::string path = ::testing::TempDir() + "/garbage_model.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a model", f);
  std::fclose(f);
  core::KbqaSystem restored(&experiment().world());
  Status status = restored.LoadModel(path);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_FALSE(restored.trained());
  std::remove(path.c_str());
}

TEST_F(ExtensionsTest, SaveModelRequiresTraining) {
  core::KbqaSystem fresh(&experiment().world());
  EXPECT_EQ(fresh.SaveModel("/tmp/never.bin").code(),
            StatusCode::kFailedPrecondition);
}

// ---------- Question variants (§1) ----------

TEST(OrdinalTest, ParsesWordsAndSuffixes) {
  EXPECT_EQ(core::ParseOrdinal("first"), 1);
  EXPECT_EQ(core::ParseOrdinal("third"), 3);
  EXPECT_EQ(core::ParseOrdinal("1st"), 1);
  EXPECT_EQ(core::ParseOrdinal("2nd"), 2);
  EXPECT_EQ(core::ParseOrdinal("3rd"), 3);
  EXPECT_EQ(core::ParseOrdinal("12th"), 12);
  EXPECT_EQ(core::ParseOrdinal("fast"), 0);
  EXPECT_EQ(core::ParseOrdinal("3"), 0);
  EXPECT_EQ(core::ParseOrdinal("3x"), 0);
}

TEST_F(ExtensionsTest, SuperlativeVariantUsesLearnedTemplates) {
  // The phrasing "people" never names the predicate ("population") — only
  // the learned template "how many people are there in $city" connects
  // them, which is the point of the extension.
  core::AnswerResult result = experiment().kbqa().AnswerVariant(
      "which city has the largest population");
  ASSERT_TRUE(result.answered);

  // Verify against a direct scan of the world's gold facts.
  const corpus::World& world = experiment().world();
  int intent = world.schema.IntentIndex("city.population");
  long long best = -1;
  rdf::TermId best_e = rdf::kInvalidTerm;
  for (rdf::TermId e :
       world.entities_by_type[world.schema.TypeIndex("city")]) {
    const auto* values = world.FactValues(intent, e);
    if (values == nullptr || values->empty()) continue;
    long long v = ParseNonNegativeInt(world.ValueSurface((*values)[0]));
    if (v > best) {
      best = v;
      best_e = e;
    }
  }
  EXPECT_EQ(result.value, world.kb.EntityName(best_e));
}

TEST_F(ExtensionsTest, KthLargestVariant) {
  core::AnswerResult first = experiment().kbqa().AnswerVariant(
      "which city has the largest population");
  core::AnswerResult second = experiment().kbqa().AnswerVariant(
      "which city has the 2nd largest population");
  ASSERT_TRUE(first.answered);
  ASSERT_TRUE(second.answered);
  EXPECT_NE(first.value, second.value);
}

TEST_F(ExtensionsTest, ComparisonVariant) {
  // Tokyo (13.96M) vs Honolulu (390K).
  core::AnswerResult result = experiment().kbqa().AnswerVariant(
      "which has more people , honolulu or tokyo");
  ASSERT_TRUE(result.answered);
  EXPECT_EQ(result.value, "tokyo");
  core::AnswerResult less = experiment().kbqa().AnswerVariant(
      "which has less people , honolulu or tokyo");
  ASSERT_TRUE(less.answered);
  EXPECT_EQ(less.value, "honolulu");
}

TEST_F(ExtensionsTest, ListingVariant) {
  core::AnswerResult result = experiment().kbqa().AnswerVariant(
      "list cities ordered by population");
  ASSERT_TRUE(result.answered);
  // The largest city leads the list.
  core::AnswerResult top = experiment().kbqa().AnswerVariant(
      "which city has the largest population");
  EXPECT_TRUE(result.value.rfind(top.value, 0) == 0)
      << result.value << " should start with " << top.value;
}

TEST_F(ExtensionsTest, VariantDeclinesNonVariantQuestions) {
  EXPECT_FALSE(
      experiment().kbqa().AnswerVariant("when was barack obama born")
          .answered);
  EXPECT_FALSE(experiment().kbqa().AnswerVariant("hello there").answered);
  EXPECT_FALSE(experiment()
                   .kbqa()
                   .AnswerVariant("which dragon has the largest hoard")
                   .answered);
}

}  // namespace
}  // namespace kbqa
