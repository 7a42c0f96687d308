// Edge-case coverage: untrained systems, empty/degenerate inputs, odd
// questions, option boundaries — behaviors a downstream user will hit.

#include <gtest/gtest.h>

#include <string>

#include "core/kbqa_system.h"
#include "corpus/qa_generator.h"
#include "corpus/world_generator.h"
#include "eval/experiment.h"
#include "eval/runner.h"
#include "nlp/tokenizer.h"

namespace kbqa {
namespace {

class EdgeCaseTest : public ::testing::Test {
 protected:
  static const corpus::World& world() {
    static const corpus::World* const kWorld = [] {
      corpus::WorldConfig config;
      config.schema.scale = 0.05;
      config.schema.generic_attributes_per_type = 2;
      config.schema.generic_relations_per_type = 2;
      return new corpus::World(corpus::GenerateWorld(config));
    }();
    return *kWorld;
  }
};

TEST_F(EdgeCaseTest, UntrainedSystemDeclinesEverything) {
  core::KbqaSystem kbqa(&world());
  EXPECT_FALSE(kbqa.trained());
  EXPECT_FALSE(kbqa.Answer("when was barack obama born").answered);
  EXPECT_FALSE(kbqa.AnswerComplex("when was barack obama's wife born")
                   .answer.answered);
  EXPECT_FALSE(kbqa.AnswerVariant("which city has the largest population")
                   .answered);
}

class TrainedEdgeCaseTest : public EdgeCaseTest {
 protected:
  static const core::KbqaSystem& kbqa() {
    static const core::KbqaSystem* const kSystem = [] {
      corpus::QaGenConfig config;
      config.num_pairs = 3000;
      auto* system = new core::KbqaSystem(&world());
      Status status =
          system->Train(corpus::GenerateTrainingCorpus(world(), config));
      if (!status.ok()) ADD_FAILURE() << status;
      return system;
    }();
    return *kSystem;
  }
};

TEST_F(TrainedEdgeCaseTest, DegenerateInputs) {
  EXPECT_FALSE(kbqa().Answer("").answered);
  EXPECT_FALSE(kbqa().Answer("    ").answered);
  EXPECT_FALSE(kbqa().Answer("?! ?!").answered);
  EXPECT_FALSE(kbqa().Answer("the the the the").answered);
  // Single entity name with no question around it: template is just the
  // category token; nothing learned for it.
  EXPECT_FALSE(kbqa().Answer("honolulu").answered);
}

TEST_F(TrainedEdgeCaseTest, VeryLongQuestionIsHandled) {
  std::string question = "when was barack obama born";
  for (int i = 0; i < 40; ++i) question += " and also maybe perhaps";
  // Far beyond the decomposer's 23-token horizon; must not crash and the
  // direct path must simply fail to match a template.
  core::ComplexAnswer answer = kbqa().AnswerComplex(question);
  (void)answer;  // Any outcome is fine as long as it terminates cleanly.
  SUCCEED();
}

TEST_F(TrainedEdgeCaseTest, CaseAndPunctuationInsensitive) {
  core::AnswerResult plain = kbqa().Answer("when was barack obama born");
  core::AnswerResult shouty = kbqa().Answer("When WAS Barack Obama BORN?!");
  ASSERT_TRUE(plain.answered);
  ASSERT_TRUE(shouty.answered);
  EXPECT_EQ(plain.value, shouty.value);
}

TEST_F(TrainedEdgeCaseTest, UnknownEntityDeclines) {
  EXPECT_FALSE(
      kbqa().Answer("when was zorblax the unpronounceable born").answered);
}

TEST_F(TrainedEdgeCaseTest, RepeatedEntityMention) {
  // The same mention twice: the template formed around either mention still
  // contains the other mention's surface text, so it was never learned —
  // the system must decline cleanly (strict template matching, the paper's
  // documented failure mode), never crash or hallucinate.
  core::AnswerResult result =
      kbqa().Answer("barack obama when was barack obama born");
  EXPECT_FALSE(result.answered);
  EXPECT_GE(result.num_entities, 2u);  // both mentions were considered
}

TEST_F(TrainedEdgeCaseTest, RankedListIsSortedByScore) {
  core::AnswerResult result =
      kbqa().Answer("how many people are there in honolulu");
  ASSERT_TRUE(result.answered);
  for (size_t i = 1; i < result.ranked.size(); ++i) {
    EXPECT_GE(result.ranked[i - 1].score, result.ranked[i].score);
  }
  EXPECT_EQ(result.ranked.front().score, result.score);
}

TEST_F(TrainedEdgeCaseTest, HybridFallsBackOnlyWhenPrimaryDeclines) {
  // A self-hybrid must behave exactly like the system itself.
  core::HybridSystem self_hybrid(&kbqa(), &kbqa());
  for (const char* q :
       {"when was barack obama born", "why is the sky blue"}) {
    EXPECT_EQ(self_hybrid.Answer(q).answered, kbqa().Answer(q).answered);
  }
  EXPECT_EQ(self_hybrid.name(), "KBQA+KBQA");
}

TEST_F(TrainedEdgeCaseTest, RetrainingResetsTheModel) {
  corpus::QaGenConfig config;
  config.num_pairs = 500;
  config.seed = 4242;
  core::KbqaSystem system(&world());
  ASSERT_TRUE(
      system.Train(corpus::GenerateTrainingCorpus(world(), config)).ok());
  size_t first = system.template_store().num_templates();
  // Second training run replaces (not accumulates) the learned artifact.
  ASSERT_TRUE(
      system.Train(corpus::GenerateTrainingCorpus(world(), config)).ok());
  EXPECT_EQ(system.template_store().num_templates(), first);
}

TEST(RetrainTest, FailedRetrainKeepsTheTrainedModel) {
  const eval::ExperimentConfig config = eval::ExperimentConfig::Small();
  const corpus::World world = corpus::GenerateWorld(config.world);
  const corpus::QaCorpus corpus =
      corpus::GenerateTrainingCorpus(world, config.corpus);
  core::KbqaSystem system(&world, config.kbqa);
  ASSERT_TRUE(system.Train(corpus).ok());
  const std::string& question = corpus.pairs.front().question;
  const core::AnswerResult before = system.Answer(question);
  ASSERT_TRUE(before.answered) << question;
  const size_t templates = system.template_store().num_templates();

  // The question's entities expand, but no value of theirs is in the
  // answer, so EM has no observation and the retrain fails.
  corpus::QaCorpus unmatched;
  unmatched.pairs.push_back({question, "zzqx"});
  EXPECT_EQ(system.Train(unmatched).code(), StatusCode::kFailedPrecondition);

  EXPECT_TRUE(system.trained());
  EXPECT_EQ(system.template_store().num_templates(), templates);
  const core::AnswerResult after = system.Answer(question);
  EXPECT_TRUE(after.answered);
  EXPECT_EQ(after.value, before.value);
  EXPECT_EQ(after.score, before.score);
  EXPECT_EQ(after.sparql, before.sparql);
}

TEST_F(TrainedEdgeCaseTest, BenchmarkRunnerCountsDeclinesCorrectly) {
  corpus::BenchmarkConfig config;
  config.num_questions = 30;
  config.bfq_ratio = 0.0;  // all non-BFQs: KBQA declines most
  corpus::BenchmarkSet set = corpus::GenerateBenchmark(world(), config);
  eval::RunResult run = eval::RunBenchmark(kbqa(), set);
  EXPECT_EQ(run.counts.total, 30u);
  EXPECT_EQ(run.counts.bfq, 0u);
  EXPECT_LE(run.counts.pro, run.counts.total);
  EXPECT_EQ(run.judged.size(), 30u);
  EXPECT_EQ(run.bfq_only.total, 0u);
}

TEST_F(TrainedEdgeCaseTest, ExpansionSeedsComeFromCorpus) {
  // Every expansion seed must be a KB entity (the "reduction on s").
  for (rdf::TermId seed : kbqa().expansion_seeds()) {
    EXPECT_TRUE(world().kb.IsEntity(seed));
  }
  EXPECT_GT(kbqa().expansion_seeds().size(), 10u);
  EXPECT_LT(kbqa().expansion_seeds().size(), world().kb.num_entities());
}

}  // namespace
}  // namespace kbqa
