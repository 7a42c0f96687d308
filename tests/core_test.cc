#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/answer_type.h"
#include "core/em_learner.h"
#include "core/ev_extraction.h"
#include "core/template_store.h"
#include "eval/experiment.h"
#include "nlp/ner.h"
#include "nlp/question_classifier.h"
#include "nlp/tokenizer.h"
#include "rdf/expanded_predicate.h"
#include "rdf/knowledge_base.h"
#include "taxonomy/taxonomy.h"

namespace kbqa::core {
namespace {

using nlp::QuestionClass;

// ---------- ContainsTokenRun ----------

bool ContainsRun(const std::vector<std::string>& haystack,
                 const std::vector<std::string>& needle) {
  const std::vector<HashedToken> h(haystack.begin(), haystack.end());
  const std::vector<HashedToken> n(needle.begin(), needle.end());
  return ContainsTokenRun(h, n);
}

TEST(ContainsTokenRunTest, Basics) {
  std::vector<std::string> haystack = {"it", "s", "390000", "people"};
  EXPECT_TRUE(ContainsRun(haystack, {"390000"}));
  EXPECT_TRUE(ContainsRun(haystack, {"s", "390000"}));
  EXPECT_FALSE(ContainsRun(haystack, {"390"}));
  EXPECT_FALSE(ContainsRun(haystack, {"people", "390000"}));
  EXPECT_FALSE(ContainsRun(haystack, {}));
  EXPECT_FALSE(ContainsRun({}, {"x"}));
}

TEST(ContainsTokenRunTest, EqualHashesAloneDoNotMatch) {
  // A forged collision: same hash, different text.
  HashedToken forged("1961");
  forged.hash = HashedToken("1964").hash;
  const std::vector<HashedToken> haystack = {HashedToken("1964")};
  EXPECT_FALSE(ContainsTokenRun(haystack, std::vector<HashedToken>{forged}));
  EXPECT_TRUE(ContainsTokenRun(haystack,
                               std::vector<HashedToken>{HashedToken("1964")}));
}

// ---------- MakeTemplateText ----------

TEST(TemplateTextTest, ReplacesMentionWithCategory) {
  std::vector<std::string> tokens = {"how", "many", "people", "are", "there",
                                     "in", "honolulu"};
  EXPECT_EQ(MakeTemplateText(tokens, 6, 7, "$city"),
            "how many people are there in $city");
  std::vector<std::string> possessive = {"barack", "obama", "s", "wife"};
  EXPECT_EQ(MakeTemplateText(possessive, 0, 2, "$person"),
            "$person s wife");
}

// ---------- TemplateStore ----------

TEST(TemplateStoreTest, InternLookupRoundTrip) {
  TemplateStore store;
  TemplateId a = store.Intern("when was $person born");
  TemplateId b = store.Intern("when was $person born");
  EXPECT_EQ(a, b);
  EXPECT_EQ(store.Lookup("when was $person born"),
            std::optional<TemplateId>(a));
  EXPECT_FALSE(store.Lookup("unknown $x").has_value());
  EXPECT_EQ(store.TemplateText(a), "when was $person born");
}

TEST(TemplateStoreTest, DistributionIsSortedDescending) {
  TemplateStore store;
  TemplateId t = store.Intern("t");
  store.SetDistribution(t, {{2, 0.1}, {5, 0.7}, {9, 0.2}});
  auto dist = store.Distribution(t);
  ASSERT_EQ(dist.size(), 3u);
  EXPECT_EQ(dist[0].path, 5u);
  EXPECT_EQ(dist[1].path, 9u);
  EXPECT_EQ(dist[2].path, 2u);
  EXPECT_EQ(store.Best(t)->path, 5u);
}

TEST(TemplateStoreTest, EmptyDistributionHasNoBest) {
  TemplateStore store;
  TemplateId t = store.Intern("t");
  EXPECT_FALSE(store.Best(t).has_value());
  EXPECT_TRUE(store.Distribution(t).empty());
}

TEST(TemplateStoreTest, FrequencyRanking) {
  TemplateStore store;
  TemplateId a = store.Intern("a");
  TemplateId b = store.Intern("b");
  store.AddFrequency(b, 10);
  store.AddFrequency(a, 3);
  auto ranked = store.TemplatesByFrequency();
  EXPECT_EQ(ranked.front(), b);
  EXPECT_EQ(store.Frequency(b), 10u);
}

TEST(TemplateStoreTest, DistinctPredicateCounts) {
  TemplateStore store;
  TemplateId a = store.Intern("a");
  TemplateId b = store.Intern("b");
  store.SetDistribution(a, {{1, 0.9}, {2, 0.1}});
  store.SetDistribution(b, {{1, 1.0}});
  EXPECT_EQ(store.NumDistinctPredicates(), 2u);
  EXPECT_EQ(store.NumDistinctBestPredicates(), 1u);  // both argmax to 1
}

// ---------- PathAnswerClass ----------

TEST(AnswerTypeTest, WalksPastNameLikeTail) {
  PredicateClassMap classes = {{1, QuestionClass::kHuman},
                               {3, QuestionClass::kNumeric}};
  std::unordered_set<rdf::PredId> name_like = {0};
  // marriage(2) -> person(1) -> name(0): label of person.
  EXPECT_EQ(PathAnswerClass({2, 1, 0}, classes, name_like),
            QuestionClass::kHuman);
  // dob(3): direct label.
  EXPECT_EQ(PathAnswerClass({3}, classes, name_like),
            QuestionClass::kNumeric);
  // name(0) alone: transparent, unknown.
  EXPECT_EQ(PathAnswerClass({0}, classes, name_like),
            QuestionClass::kUnknown);
  // unlabeled pred(7): unknown.
  EXPECT_EQ(PathAnswerClass({7}, classes, name_like),
            QuestionClass::kUnknown);
}

TEST(AnswerTypeTest, Compatibility) {
  EXPECT_TRUE(AnswerClassCompatible(QuestionClass::kNumeric,
                                    QuestionClass::kNumeric));
  EXPECT_FALSE(
      AnswerClassCompatible(QuestionClass::kNumeric, QuestionClass::kHuman));
  EXPECT_TRUE(AnswerClassCompatible(QuestionClass::kUnknown,
                                    QuestionClass::kHuman));
  EXPECT_TRUE(AnswerClassCompatible(QuestionClass::kNumeric,
                                    QuestionClass::kUnknown));
  EXPECT_TRUE(AnswerClassCompatible(QuestionClass::kDescription,
                                    QuestionClass::kLocation));
}

// ---------- Micro world for extraction + EM ----------

/// A hand-built two-city/two-person world small enough to verify every
/// extraction and learning step by hand.
class MicroWorldTest : public ::testing::Test {
 protected:
  void SetUp() override {
    name_ = kb_.AddPredicate("name");
    kb_.SetNamePredicate(name_);
    population_ = kb_.AddPredicate("population");
    area_ = kb_.AddPredicate("area");
    dob_ = kb_.AddPredicate("dob");
    profession_ = kb_.AddPredicate("profession");
    marriage_ = kb_.AddPredicate("marriage");
    person_pred_ = kb_.AddPredicate("person");

    honolulu_ = AddNamed("city/honolulu", "honolulu");
    tokyo_ = AddNamed("city/tokyo", "tokyo");
    obama_ = AddNamed("person/obama", "barack obama");
    michelle_ = AddNamed("person/michelle", "michelle obama");

    kb_.AddTriple(honolulu_, population_, kb_.AddLiteral("390000"));
    kb_.AddTriple(honolulu_, area_, kb_.AddLiteral("177"));
    kb_.AddTriple(tokyo_, population_, kb_.AddLiteral("13960000"));
    kb_.AddTriple(tokyo_, area_, kb_.AddLiteral("2194"));
    kb_.AddTriple(obama_, dob_, kb_.AddLiteral("1961"));
    kb_.AddTriple(obama_, profession_, kb_.AddLiteral("politician"));
    rdf::TermId cvt = kb_.AddEntity("marriage/1");
    kb_.AddTriple(obama_, marriage_, cvt);
    kb_.AddTriple(cvt, person_pred_, michelle_);
    kb_.AddTriple(michelle_, dob_, kb_.AddLiteral("1964"));
    // A literal without a word: it tokenizes to nothing.
    motto_ = kb_.AddPredicate("motto");
    kb_.AddTriple(honolulu_, motto_, kb_.AddLiteral("?!"));
    kb_.Freeze();

    city_cat_ = taxonomy_.AddCategory("$city");
    person_cat_ = taxonomy_.AddCategory("$person");
    taxonomy_.AddEntityCategory(honolulu_, city_cat_, 1.0);
    taxonomy_.AddEntityCategory(tokyo_, city_cat_, 1.0);
    taxonomy_.AddEntityCategory(obama_, person_cat_, 1.0);
    taxonomy_.AddEntityCategory(michelle_, person_cat_, 1.0);

    classes_ = {{population_, QuestionClass::kNumeric},
                {area_, QuestionClass::kNumeric},
                {dob_, QuestionClass::kNumeric},
                {profession_, QuestionClass::kEntity},
                {person_pred_, QuestionClass::kHuman}};
    name_like_ = {name_};

    rdf::ExpansionOptions options;
    options.max_length = 3;
    auto ekb = rdf::ExpandedKb::Build(
        kb_, {honolulu_, tokyo_, obama_, michelle_}, name_like_, options);
    ASSERT_TRUE(ekb.ok()) << ekb.status();
    ekb_ = std::make_unique<rdf::ExpandedKb>(std::move(ekb).value());

    ner_ = std::make_unique<nlp::GazetteerNer>(kb_);
    EvExtractor::Options ev_options;
    extractor_ = std::make_unique<EvExtractor>(&kb_, ekb_.get(), ner_.get(),
                                               &classifier_, &classes_,
                                               &name_like_, ev_options);
  }

  rdf::TermId AddNamed(const std::string& iri, const std::string& name) {
    rdf::TermId e = kb_.AddEntity(iri);
    kb_.AddTriple(e, name_, kb_.AddLiteral(name));
    return e;
  }

  std::vector<EvCandidate> Extract(const std::string& q,
                                   const std::string& a) {
    return extractor_->Extract(nlp::TokenizeQuestion(q), a);
  }

  rdf::KnowledgeBase kb_;
  taxonomy::Taxonomy taxonomy_;
  rdf::PredId name_, population_, area_, dob_, profession_, marriage_,
      person_pred_, motto_;
  rdf::TermId honolulu_, tokyo_, obama_, michelle_;
  taxonomy::CategoryId city_cat_, person_cat_;
  PredicateClassMap classes_;
  std::unordered_set<rdf::PredId> name_like_;
  std::unique_ptr<rdf::ExpandedKb> ekb_;
  std::unique_ptr<nlp::GazetteerNer> ner_;
  nlp::QuestionClassifier classifier_;
  std::unique_ptr<EvExtractor> extractor_;
};

TEST_F(MicroWorldTest, ExtractsDirectAttribute) {
  auto candidates = Extract("how many people are there in honolulu",
                            "it 's 390000 .");
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].entity, honolulu_);
  EXPECT_EQ(kb_.NodeString(candidates[0].value), "390000");
  ASSERT_EQ(candidates[0].paths.size(), 1u);
  EXPECT_EQ(ekb_->paths().GetPath(candidates[0].paths[0]),
            (rdf::PredPath{population_}));
}

TEST_F(MicroWorldTest, ExtractsCvtSpouse) {
  auto candidates = Extract("who is the wife of barack obama",
                            "michelle obama of course .");
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].entity, obama_);
  ASSERT_EQ(candidates[0].paths.size(), 1u);
  EXPECT_EQ(ekb_->paths().GetPath(candidates[0].paths[0]),
            (rdf::PredPath{marriage_, person_pred_, name_}));
}

TEST_F(MicroWorldTest, RefinementFiltersClassMismatch) {
  // "when was ... born" is NUM; the answer also contains the ENTY-classed
  // profession value "politician", which must be filtered (the paper's
  // Example 2 refinement).
  auto candidates = Extract("when was barack obama born",
                            "the politician was born in 1961 .");
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(kb_.NodeString(candidates[0].value), "1961");

  // Without refinement the noise pair survives.
  EvExtractor::Options loose;
  loose.refine_by_question_class = false;
  EvExtractor unrefined(&kb_, ekb_.get(), ner_.get(), &classifier_, &classes_,
                        &name_like_, loose);
  auto noisy = unrefined.Extract(
      nlp::TokenizeQuestion("when was barack obama born"),
      "the politician was born in 1961 .");
  EXPECT_EQ(noisy.size(), 2u);
}

TEST_F(MicroWorldTest, NoMentionNoCandidates) {
  EXPECT_TRUE(Extract("how is the weather", "it 's 390000 .").empty());
  EXPECT_TRUE(Extract("how many people are there in honolulu", "").empty());
}

TEST_F(MicroWorldTest, ValueMustMatchTokenBoundaries) {
  // "13960000" must not be found inside "913960000x"-style runs; token
  // match requires exact token equality.
  auto candidates = Extract("how many people are there in tokyo",
                            "maybe 113960000 people");
  EXPECT_TRUE(candidates.empty());
}

TEST_F(MicroWorldTest, MultipleEntitiesShareUniformProbability) {
  // Two mentions: honolulu and tokyo; answer carries tokyo's value.
  auto candidates = Extract("is honolulu bigger than tokyo",
                            "tokyo has 13960000 people .");
  ASSERT_GE(candidates.size(), 1u);
  bool found_tokyo = false;
  for (const auto& c : candidates) {
    found_tokyo = found_tokyo || (c.entity == tokyo_);
  }
  EXPECT_TRUE(found_tokyo);
}

TEST_F(MicroWorldTest, MultiTokenValueMustBeOneContiguousRun) {
  // "michelle obama" is one two-token literal: its tokens out of order or
  // apart do not make it a value.
  EXPECT_TRUE(Extract("who is the wife of barack obama",
                      "obama michelle of course .")
                  .empty());
  EXPECT_TRUE(Extract("who is the wife of barack obama",
                      "michelle , not obama .")
                  .empty());
  EXPECT_EQ(Extract("who is the wife of barack obama", "michelle obama .")
                .size(),
            1u);
}

TEST_F(MicroWorldTest, WordlessLiteralNeverMatches) {
  const rdf::TermId motto = kb_.Objects(honolulu_, motto_).at(0);
  ASSERT_TRUE(nlp::Tokenize(kb_.NodeString(motto)).empty());
  for (const char* answer : {"?!", "?! !?", "honolulu ?!", "it is ?! ."}) {
    for (const EvCandidate& cand :
         Extract("what is the motto of honolulu", answer)) {
      EXPECT_NE(cand.value, motto) << answer;
    }
  }
}

// ---------- Literal token table against per-triple tokenization ----------

/// The extraction loop without the literal token table: it tokenizes every
/// literal object and computes its path's answer class per triple.
std::vector<EvCandidate> ReferenceExtract(
    const corpus::World& world, const rdf::ExpandedKb& ekb,
    const nlp::GazetteerNer& ner, bool refine,
    const std::vector<std::string>& question_tokens,
    const std::string& answer) {
  std::vector<EvCandidate> out;
  const std::vector<nlp::Mention> mentions = ner.FindMentions(question_tokens);
  const std::vector<std::string> answer_tokens = nlp::Tokenize(answer);
  if (mentions.empty() || answer_tokens.empty()) return out;
  const QuestionClass question_class =
      refine ? nlp::QuestionClassifier().Classify(question_tokens)
             : QuestionClass::kUnknown;
  auto contains_run = [&](const std::vector<std::string>& needle) {
    return !needle.empty() &&
           std::search(answer_tokens.begin(), answer_tokens.end(),
                       needle.begin(), needle.end()) != answer_tokens.end();
  };
  for (const nlp::Mention& mention : mentions) {
    for (rdf::TermId entity : mention.entities) {
      for (const auto& [path, object] : ekb.Out(entity)) {
        if (refine &&
            !AnswerClassCompatible(
                question_class,
                PathAnswerClass(ekb.paths().GetPath(path),
                                world.predicate_class, world.name_like))) {
          continue;
        }
        if (!world.kb.IsLiteral(object) ||
            !contains_run(nlp::Tokenize(world.kb.NodeString(object)))) {
          continue;
        }
        auto same = [&](const EvCandidate& c) {
          return c.entity == entity && c.value == object &&
                 c.mention_begin == mention.begin;
        };
        auto it = std::find_if(out.begin(), out.end(), same);
        if (it == out.end()) {
          out.push_back(
              EvCandidate{mention.begin, mention.end, entity, object, {}});
          it = out.end() - 1;
        }
        if (std::find(it->paths.begin(), it->paths.end(), path) ==
            it->paths.end()) {
          it->paths.push_back(path);
        }
      }
    }
  }
  return out;
}

TEST(LiteralTableTest, ExtractMatchesPerTripleTokenizationOnSmallWorld) {
  auto built = eval::Experiment::Build(eval::ExperimentConfig::Small());
  ASSERT_TRUE(built.ok()) << built.status();
  const eval::Experiment& experiment = *built.value();
  const corpus::World& world = experiment.world();
  const KbqaSystem& kbqa = experiment.kbqa();
  const nlp::QuestionClassifier classifier;
  for (const bool refine : {true, false}) {
    EvExtractor::Options options;
    options.refine_by_question_class = refine;
    const EvExtractor extractor(&world.kb, &kbqa.expanded_kb(), &kbqa.ner(),
                                &classifier, &world.predicate_class,
                                &world.name_like, options);
    size_t candidates = 0;
    for (const corpus::QaPair& pair : experiment.train_corpus().pairs) {
      const std::vector<std::string> tokens =
          nlp::TokenizeQuestion(pair.question);
      const std::vector<EvCandidate> got =
          extractor.Extract(tokens, pair.answer);
      const std::vector<EvCandidate> want = ReferenceExtract(
          world, kbqa.expanded_kb(), kbqa.ner(), refine, tokens, pair.answer);
      ASSERT_EQ(got.size(), want.size()) << pair.question;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].mention_begin, want[i].mention_begin);
        EXPECT_EQ(got[i].mention_end, want[i].mention_end);
        EXPECT_EQ(got[i].entity, want[i].entity);
        EXPECT_EQ(got[i].value, want[i].value);
        EXPECT_EQ(got[i].paths, want[i].paths) << pair.question;
      }
      candidates += got.size();
    }
    // Most pairs yield a candidate, so the comparison is not vacuous.
    EXPECT_GT(candidates, experiment.train_corpus().pairs.size() / 2);
  }
}

// ---------- EM learning on the micro world ----------

class MicroEmTest : public MicroWorldTest {
 protected:
  corpus::QaCorpus MakePopulationCorpus(int n) const {
    corpus::QaCorpus corpus;
    for (int i = 0; i < n; ++i) {
      const bool tokyo = (i % 2 == 0);
      corpus::QaPair pair;
      pair.question = std::string("how many people are there in ") +
                      (tokyo ? "tokyo" : "honolulu");
      pair.answer = std::string("it 's ") +
                    (tokyo ? "13960000" : "390000") + " .";
      corpus.pairs.push_back(pair);
      corpus.gold.emplace_back();
    }
    return corpus;
  }
};

TEST_F(MicroEmTest, LearnsPopulationTemplate) {
  EmOptions options;
  EmLearner learner(&kb_, ekb_.get(), &taxonomy_, extractor_.get(), options);
  TemplateStore store;
  EmStats stats;
  ASSERT_TRUE(learner.Train(MakePopulationCorpus(20), &store, &stats).ok());

  auto t = store.Lookup("how many people are there in $city");
  ASSERT_TRUE(t.has_value());
  auto best = store.Best(*t);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(ekb_->paths().GetPath(best->path), (rdf::PredPath{population_}));
  EXPECT_GT(best->probability, 0.99);
  EXPECT_EQ(stats.num_observations, 20u);
}

TEST_F(MicroEmTest, LogLikelihoodIsMonotone) {
  EmOptions options;
  options.tolerance = 0;  // force all iterations
  options.max_iterations = 10;
  EmLearner learner(&kb_, ekb_.get(), &taxonomy_, extractor_.get(), options);
  TemplateStore store;
  EmStats stats;
  ASSERT_TRUE(learner.Train(MakePopulationCorpus(20), &store, &stats).ok());
  ASSERT_GE(stats.log_likelihood.size(), 2u);
  for (size_t i = 1; i < stats.log_likelihood.size(); ++i) {
    EXPECT_GE(stats.log_likelihood[i], stats.log_likelihood[i - 1] - 1e-9)
        << "EM likelihood must not decrease (iteration " << i << ")";
  }
}

TEST_F(MicroEmTest, ThetaRowsAreNormalized) {
  EmOptions options;
  EmLearner learner(&kb_, ekb_.get(), &taxonomy_, extractor_.get(), options);
  TemplateStore store;
  EmStats stats;
  ASSERT_TRUE(learner.Train(MakePopulationCorpus(20), &store, &stats).ok());
  for (TemplateId t = 0; t < store.num_templates(); ++t) {
    double sum = 0;
    for (const auto& entry : store.Distribution(t)) sum += entry.probability;
    if (!store.Distribution(t).empty()) {
      EXPECT_NEAR(sum, 1.0, 1e-6) << store.TemplateText(t);
    }
  }
}

TEST_F(MicroEmTest, InitOnlyAblationStaysUniform) {
  // Craft ambiguity: a question whose value matches two predicates —
  // Honolulu with area text equal to population text would be needed; here
  // we instead check that run_em = false leaves θ at the Eq. 23 uniform
  // initialization for a template observed with a single path (still 1.0)
  // and that EM and init-only agree in the unambiguous case.
  EmOptions init_only;
  init_only.run_em = false;
  EmLearner learner(&kb_, ekb_.get(), &taxonomy_, extractor_.get(),
                    init_only);
  TemplateStore store;
  EmStats stats;
  ASSERT_TRUE(learner.Train(MakePopulationCorpus(10), &store, &stats).ok());
  EXPECT_EQ(stats.iterations, 0);
  EXPECT_TRUE(stats.log_likelihood.empty());
  auto t = store.Lookup("how many people are there in $city");
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(store.Best(*t)->probability, 1.0, 1e-9);
}

TEST_F(MicroEmTest, EmDisambiguatesSharedValueText) {
  // Add a trap: give Tokyo an "area" equal to Honolulu's population string
  // is impossible (distinct entities), so instead create ambiguity on one
  // entity: a literal that matches both area and population of Honolulu.
  // We simulate by asking area-phrased questions and population-phrased
  // questions that share the template only through the ambiguous phrasing
  // "how big is $city" — half answered with area, half with population.
  corpus::QaCorpus corpus;
  auto add = [&](const std::string& q, const std::string& a) {
    corpus.pairs.push_back({q, a});
    corpus.gold.emplace_back();
  };
  for (int i = 0; i < 6; ++i) {
    add("how big is honolulu", "it 's 177 .");          // area sense
    add("how big is tokyo", "it 's 2194 .");            // area sense
  }
  for (int i = 0; i < 2; ++i) {
    add("how big is honolulu", "it 's 390000 .");       // population sense
  }
  EmOptions options;
  EmLearner learner(&kb_, ekb_.get(), &taxonomy_, extractor_.get(), options);
  TemplateStore store;
  EmStats stats;
  ASSERT_TRUE(learner.Train(corpus, &store, &stats).ok());
  auto t = store.Lookup("how big is $city");
  ASSERT_TRUE(t.has_value());
  auto dist = store.Distribution(*t);
  ASSERT_GE(dist.size(), 2u);
  // Majority sense (area: 12 of 14) must dominate but not erase the rest.
  EXPECT_EQ(ekb_->paths().GetPath(dist[0].path), (rdf::PredPath{area_}));
  EXPECT_GT(dist[0].probability, 0.6);
  EXPECT_GT(dist[1].probability, 0.0);
}

TEST_F(MicroEmTest, EmptyCorpusFailsCleanly) {
  EmOptions options;
  EmLearner learner(&kb_, ekb_.get(), &taxonomy_, extractor_.get(), options);
  TemplateStore store;
  EmStats stats;
  corpus::QaCorpus empty;
  Status status = learner.Train(empty, &store, &stats);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace kbqa::core
