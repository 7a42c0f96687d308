#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "corpus/qa_generator.h"
#include "corpus/world_generator.h"
#include "eval/experiment.h"
#include "nlp/ner.h"
#include "nlp/pattern.h"
#include "nlp/question_classifier.h"
#include "nlp/stopwords.h"
#include "nlp/tokenizer.h"
#include "rdf/knowledge_base.h"
#include "rdf/ntriples.h"
#include "util/thread_pool.h"

namespace kbqa::nlp {
namespace {

// ---------- Tokenizer ----------

TEST(TokenizerTest, LowercasesAndStripsPunctuation) {
  EXPECT_EQ(Tokenize("How many People are there, in Honolulu?"),
            (std::vector<std::string>{"how", "many", "people", "are", "there",
                                      "in", "honolulu"}));
}

TEST(TokenizerTest, KeepsDigitsAndInternalHyphens) {
  EXPECT_EQ(Tokenize("born in 1961 twenty-one"),
            (std::vector<std::string>{"born", "in", "1961", "twenty-one"}));
}

TEST(TokenizerTest, StripsSurroundingQuotesAndHyphens) {
  EXPECT_EQ(Tokenize("'hello' -world-"),
            (std::vector<std::string>{"hello", "world"}));
  EXPECT_TRUE(Tokenize("...!!!").empty());
  EXPECT_TRUE(Tokenize("").empty());
}

TEST(TokenizerTest, PossessiveFormsNormalizeIdentically) {
  // "obama's" and "obama 's" must produce the same token stream — template
  // matching depends on it.
  EXPECT_EQ(TokenizeQuestion("barack obama's wife"),
            TokenizeQuestion("barack obama 's wife"));
  EXPECT_EQ(TokenizeQuestion("obama's wife"),
            (std::vector<std::string>{"obama", "s", "wife"}));
}

TEST(TokenizerTest, NormalizeTextIsCanonical) {
  EXPECT_EQ(NormalizeText("  Who IS Barack Obama's wife? "),
            "who is barack obama s wife");
  EXPECT_EQ(NormalizeText("390,000"), "390 000");
  EXPECT_EQ(SplitTokens(NormalizeText("  Who IS Barack Obama's wife? ")),
            TokenizeQuestion("  Who IS Barack Obama's wife? "));
  EXPECT_EQ(NormalizeText("Who IS it?"), "who is it");
}

TEST(TokenizerTest, StackedPossessivesNormalizeIdempotently) {
  // Each split possessive re-strips its stem and looks again, so the
  // canonical text tokenizes to itself.
  EXPECT_EQ(NormalizeText("x's's"), "x s s");
  EXPECT_EQ(NormalizeText("a-'s b''s"), "a s b s");
  for (const char* q : {"x's's", "a-'s", "b''s", "Obama's wife's AGE"}) {
    const std::string once = NormalizeText(q);
    EXPECT_EQ(NormalizeText(once), once) << q;
  }
}

TEST(TokenizerTest, JoinTokensRoundTrip) {
  std::vector<std::string> tokens = {"a", "b", "c"};
  EXPECT_EQ(JoinTokens(tokens), "a b c");
  EXPECT_EQ(SplitTokens(JoinTokens(tokens)), tokens);
  EXPECT_EQ(JoinTokens({}), "");
  EXPECT_TRUE(SplitTokens("").empty());
}

// ---------- UTF-8 aware lowercasing ----------

TEST(TokenizerUtf8Test, FoldsLatin1AndLatinExtendedA) {
  EXPECT_EQ(Tokenize("José ÉCLAIR Čapek ŁÓDŹ"),
            (std::vector<std::string>{"josé", "éclair", "čapek", "łódź"}));
  // Ÿ is the one upper/lower pair split across the two blocks.
  EXPECT_EQ(Tokenize("Ÿ"), (std::vector<std::string>{"ÿ"}));
  // Turkish dotted capital İ folds to plain ASCII i (gazetteer keys don't
  // want the combining dot of the strict folding).
  EXPECT_EQ(Tokenize("İstanbul"), (std::vector<std::string>{"istanbul"}));
}

TEST(TokenizerUtf8Test, MultiplicationSignIsNotALetter) {
  // U+00D7 sits in the middle of the Latin-1 uppercase range but must not
  // fold to U+00F7 (division sign).
  EXPECT_EQ(Tokenize("3×4"), (std::vector<std::string>{"3×4"}));
}

TEST(TokenizerUtf8Test, AccentedWordsStayWholeTokens) {
  // Bytes >= 0x80 are word content: "josé" must not split after the "s"
  // the way a locale-dependent isalnum could make it.
  EXPECT_EQ(Tokenize("Où est José?"),
            (std::vector<std::string>{"où", "est", "josé"}));
}

TEST(TokenizerUtf8Test, OtherScriptsPassThroughUnchanged) {
  // Cyrillic/CJK are outside the folded blocks: preserved byte-for-byte.
  EXPECT_EQ(Tokenize("МОСКВА 北京"),
            (std::vector<std::string>{"МОСКВА", "北京"}));
}

TEST(TokenizerUtf8Test, MalformedUtf8PassesThroughBytewise) {
  // A stray continuation byte and a truncated lead byte must not be
  // dropped or mangled — copied through as-is inside their token.
  const std::string stray = std::string("ab") + '\x85' + "cd";
  ASSERT_EQ(Tokenize(stray).size(), 1u);
  EXPECT_EQ(Tokenize(stray)[0], stray);
  const std::string truncated = std::string("x") + '\xC3';
  ASSERT_EQ(Tokenize(truncated).size(), 1u);
  EXPECT_EQ(Tokenize(truncated)[0], truncated);
}

TEST(TokenizerUtf8Test, OverlongFormsAreMalformedNotAscii) {
  // C0 A0 is an overlong U+0020 and C1 81 an overlong 'A'. Decoded, they
  // would put a space or an uppercase letter inside a token, and two
  // questions that tokenize differently would share an answer-cache key.
  const std::string overlong_space = "who founded\xC0\xA0google";
  EXPECT_NE(NormalizeText(overlong_space), NormalizeText("who founded google"));
  EXPECT_EQ(TokenizeQuestion(overlong_space),
            (std::vector<std::string>{"who", "founded\xC0\xA0google"}));
  EXPECT_EQ(SplitTokens(NormalizeText(overlong_space)),
            TokenizeQuestion(overlong_space));
  EXPECT_EQ(TokenizeQuestion("WHO\xC1\x81"),
            (std::vector<std::string>{"who\xC1\x81"}));
  // So are surrogates and code points above U+10FFFF.
  for (const std::string bad :
       {"\xE0\x80\xAF", "\xED\xA0\x80", "\xF4\x90\x80\x80"}) {
    EXPECT_EQ(Tokenize("X" + bad), (std::vector<std::string>{"x" + bad}));
  }
}

/// \uXXXX escape of `cp` as written in an N-Triples literal.
std::string UEscape(uint32_t cp) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "\\u%04X", cp);
  return buf;
}

TEST(TokenizerUtf8PropertyTest, EscapedKbNamesFoldLikeTheirLowercaseForms) {
  // Property over every upper/lower pair the tokenizer folds: a KB entity
  // name arriving as an N-Triples \uXXXX escape of the UPPERCASE form must
  // tokenize identically to the plain lowercase form — the invariant
  // gazetteer lookups rely on (names are interned lowercase; questions may
  // use any case).
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (uint32_t cp = 0xC0; cp <= 0xDE; ++cp) {
    if (cp != 0xD7) pairs.emplace_back(cp, cp + 0x20);
  }
  for (uint32_t cp = 0x100; cp <= 0x136; cp += 2) {
    // İ (U+0130) folds to plain ASCII "i", not U+0131 — checked below.
    if (cp != 0x130) pairs.emplace_back(cp, cp + 1);
  }
  pairs.emplace_back(0x130, 'i');
  for (uint32_t cp = 0x139; cp <= 0x147; cp += 2) pairs.emplace_back(cp, cp + 1);
  for (uint32_t cp = 0x14A; cp <= 0x176; cp += 2) pairs.emplace_back(cp, cp + 1);
  pairs.emplace_back(0x178, 0xFF);
  for (uint32_t cp : {0x179u, 0x17Bu, 0x17Du}) pairs.emplace_back(cp, cp + 1);

  for (const auto& [upper, lower] : pairs) {
    const std::string line = "<e/x> <name> \"Q" + UEscape(upper) + "x\" .";
    auto parsed = rdf::ParseNTripleLine(line);
    ASSERT_TRUE(parsed.ok()) << line;
    std::string expected = "q";
    // Lowercase reference form, UTF-8 encoded by hand (every lower half is
    // either ASCII or < 0x800: two bytes).
    if (lower < 0x80) {
      expected.push_back(static_cast<char>(lower));
    } else {
      expected.push_back(static_cast<char>(0xC0 | (lower >> 6)));
      expected.push_back(static_cast<char>(0x80 | (lower & 0x3F)));
    }
    expected.push_back('x');
    const auto tokens = Tokenize(parsed.value().object);
    ASSERT_EQ(tokens.size(), 1u) << line;
    EXPECT_EQ(tokens[0], expected)
        << "U+" << std::hex << upper << " did not fold to U+" << lower;
  }
}

TEST(TokenizerUtf8Test, EscapedKbEntityFoundByGazetteerAnyCase) {
  // End-to-end satellite check: an entity whose name enters the KB via
  // N-Triples \uXXXX escapes is found by the NER regardless of question
  // casing.
  rdf::KnowledgeBase kb;
  const rdf::PredId name = kb.AddPredicate("name");
  kb.SetNamePredicate(name);
  auto parsed = rdf::ParseNTripleLine(
      "<e/jose_garcia> <name> \"Jos\\u00C9 Garc\\u00CDa\" .");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const rdf::NTriple& triple = parsed.value();
  ASSERT_TRUE(triple.object_is_literal);
  kb.AddTriple(triple.subject, triple.predicate, triple.object,
               /*object_is_literal=*/true);
  kb.Freeze();
  GazetteerNer ner(kb);

  for (const char* question :
       {"where was josé garcía born", "where was JOSÉ GARCÍA born",
        "where was JosÉ GarcÍa born"}) {
    const auto mentions = ner.FindMentions(TokenizeQuestion(question));
    ASSERT_EQ(mentions.size(), 1u) << question;
    EXPECT_EQ(mentions[0].size(), 2u) << question;
  }
}

// ---------- Stopwords ----------

TEST(StopwordsTest, FunctionWordsAreStopwords) {
  for (const char* w : {"the", "of", "is", "what", "how", "many", "'s"}) {
    EXPECT_TRUE(IsStopword(w)) << w;
  }
  for (const char* w : {"population", "wife", "honolulu", "capital"}) {
    EXPECT_FALSE(IsStopword(w)) << w;
  }
}

// ---------- NER ----------

class NerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rdf::PredId name = kb_.AddPredicate("name");
    kb_.SetNamePredicate(name);
    obama_ = kb_.AddEntity("person/obama");
    ny_ = kb_.AddEntity("city/ny");
    nyc_ = kb_.AddEntity("city/nyc");
    apple_fruit_ = kb_.AddEntity("fruit/apple");
    apple_co_ = kb_.AddEntity("company/apple");
    kb_.AddTriple(obama_, name, kb_.AddLiteral("barack obama"));
    kb_.AddTriple(ny_, name, kb_.AddLiteral("new york"));
    kb_.AddTriple(nyc_, name, kb_.AddLiteral("new york city"));
    kb_.AddTriple(apple_fruit_, name, kb_.AddLiteral("apple"));
    kb_.AddTriple(apple_co_, name, kb_.AddLiteral("apple"));
    kb_.Freeze();
    ner_ = std::make_unique<GazetteerNer>(kb_);
  }

  rdf::KnowledgeBase kb_;
  rdf::TermId obama_, ny_, nyc_, apple_fruit_, apple_co_;
  std::unique_ptr<GazetteerNer> ner_;
};

TEST_F(NerTest, FindsMultiTokenMention) {
  auto mentions = ner_->FindMentions(TokenizeQuestion(
      "when was barack obama born"));
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].begin, 2u);
  EXPECT_EQ(mentions[0].end, 4u);
  EXPECT_EQ(mentions[0].entities, (std::vector<rdf::TermId>{obama_}));
}

TEST_F(NerTest, LongestMatchWins) {
  auto mentions =
      ner_->FindMentions(TokenizeQuestion("i love new york city a lot"));
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].entities, (std::vector<rdf::TermId>{nyc_}));
  EXPECT_EQ(mentions[0].size(), 3u);
}

TEST_F(NerTest, AmbiguousNameYieldsAllCandidates) {
  auto mentions = ner_->FindMentions(TokenizeQuestion("what about apple"));
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].entities.size(), 2u);
}

TEST_F(NerTest, NoMentionsInPlainText) {
  EXPECT_TRUE(ner_->FindMentions(TokenizeQuestion("how are you today"))
                  .empty());
}

TEST_F(NerTest, MultipleMentions) {
  auto mentions = ner_->FindMentions(
      TokenizeQuestion("which has more people , new york or apple"));
  ASSERT_EQ(mentions.size(), 2u);
  EXPECT_EQ(mentions[0].entities, (std::vector<rdf::TermId>{ny_}));
  EXPECT_EQ(mentions[1].entities.size(), 2u);
}

TEST_F(NerTest, EntitiesForSpanExactOnly) {
  auto tokens = TokenizeQuestion("when was barack obama born");
  EXPECT_EQ(ner_->EntitiesForSpan(tokens, 2, 4),
            (std::vector<rdf::TermId>{obama_}));
  EXPECT_TRUE(ner_->EntitiesForSpan(tokens, 2, 5).empty());
  EXPECT_TRUE(ner_->EntitiesForSpan(tokens, 3, 3).empty());  // empty span
}

TEST_F(NerTest, LooksLikeNumber) {
  EXPECT_TRUE(LooksLikeNumber("1961"));
  EXPECT_FALSE(LooksLikeNumber("19a"));
  EXPECT_FALSE(LooksLikeNumber(""));
}

// ---------- Question classifier ----------

struct ClassifierCase {
  const char* question;
  QuestionClass expected;
};

// Prints the question instead of the struct's raw bytes (which include the
// string's address), so the discovered test names stay stable across
// builds.
void PrintTo(const ClassifierCase& c, std::ostream* os) { *os << c.question; }

class ClassifierTest : public ::testing::TestWithParam<ClassifierCase> {};

TEST_P(ClassifierTest, ClassifiesCase) {
  QuestionClassifier classifier;
  EXPECT_EQ(classifier.Classify(TokenizeQuestion(GetParam().question)),
            GetParam().expected)
      << GetParam().question;
}

INSTANTIATE_TEST_SUITE_P(
    UiucCases, ClassifierTest,
    ::testing::Values(
        ClassifierCase{"who is the wife of barack obama",
                       QuestionClass::kHuman},
        ClassifierCase{"whose idea was it", QuestionClass::kHuman},
        ClassifierCase{"where was barack obama born",
                       QuestionClass::kLocation},
        ClassifierCase{"when was barack obama born", QuestionClass::kNumeric},
        ClassifierCase{"why is the sky blue", QuestionClass::kDescription},
        ClassifierCase{"how many people are there in honolulu",
                       QuestionClass::kNumeric},
        ClassifierCase{"how long is the mississippi river",
                       QuestionClass::kNumeric},
        ClassifierCase{"how do i get to tokyo", QuestionClass::kDescription},
        ClassifierCase{"what is the population of honolulu",
                       QuestionClass::kNumeric},
        ClassifierCase{"what is the capital of japan",
                       QuestionClass::kLocation},
        ClassifierCase{"what is the name of obama 's wife",
                       QuestionClass::kHuman},
        ClassifierCase{"which city was obama born in",
                       QuestionClass::kLocation},
        ClassifierCase{"what currency is used in japan",
                       QuestionClass::kEntity},
        ClassifierCase{"barack obama 's wife", QuestionClass::kHuman},
        ClassifierCase{"the capital of japan", QuestionClass::kLocation}));

TEST(ClassifierTest, EmptyIsUnknown) {
  QuestionClassifier classifier;
  EXPECT_EQ(classifier.Classify({}), QuestionClass::kUnknown);
}

TEST(ClassifierTest, EveryClassHasAName) {
  for (QuestionClass c :
       {QuestionClass::kAbbreviation, QuestionClass::kDescription,
        QuestionClass::kEntity, QuestionClass::kHuman,
        QuestionClass::kLocation, QuestionClass::kNumeric,
        QuestionClass::kUnknown}) {
    EXPECT_STRNE(QuestionClassToString(c), "");
  }
}

// ---------- Pattern index (§5.2) ----------

TEST(PatternTest, MakePattern) {
  std::vector<std::string> tokens = {"when", "was", "michelle", "obama",
                                     "born"};
  EXPECT_EQ(MakePattern(tokens, 2, 4), "when was $e born");
  EXPECT_EQ(MakePattern(tokens, 0, 2), "$e michelle obama born");
  EXPECT_EQ(MakePattern(tokens, 0, 5), "$e");
}

/// The paper's Example 4: two "when was X born" questions where X is an
/// entity, so P("when was $e born") = 1 while P("when $e") = 0 (never a
/// valid entity replacement).
TEST(PatternTest, PaperExampleFour) {
  std::vector<PatternQuestion> corpus(2);
  corpus[0].tokens = {"when", "was", "barack", "obama", "born"};
  corpus[0].mention_spans = {{2, 4}};
  corpus[1].tokens = {"when", "was", "barack", "obama", "born"};
  corpus[1].mention_spans = {{2, 4}};
  PatternIndex index = PatternIndex::Build(corpus);

  EXPECT_DOUBLE_EQ(index.ValidProbability("when was $e born"), 1.0);
  EXPECT_DOUBLE_EQ(index.ValidProbability("when $e"), 0.0);
  auto stats = index.Stats("when was $e born");
  EXPECT_EQ(stats.fo, 2u);
  EXPECT_EQ(stats.fv, 2u);
}

TEST(PatternTest, OverGeneralPatternsArePunished) {
  // "was $e" matches both questions as a substring, but is valid in
  // neither ("was barack" is not an entity) — except in q2 where the
  // mention span happens to be exactly [1,3).
  std::vector<PatternQuestion> corpus(2);
  corpus[0].tokens = {"was", "barack", "obama", "great"};
  corpus[0].mention_spans = {{1, 3}};
  corpus[1].tokens = {"was", "michelle", "obama", "great"};
  corpus[1].mention_spans = {};  // no mention recognized here
  PatternIndex index = PatternIndex::Build(corpus);

  // fv("was $e great") = 1 (q0 mention), fo = 2 (both match by substring).
  EXPECT_DOUBLE_EQ(index.ValidProbability("was $e great"), 0.5);
}

TEST(PatternTest, UnknownPatternIsZero) {
  PatternIndex index = PatternIndex::Build({});
  EXPECT_DOUBLE_EQ(index.ValidProbability("what is $e"), 0.0);
  EXPECT_EQ(index.Stats("what is $e").fo, 0u);
}

TEST(PatternTest, FvNeverExceedsFo) {
  std::vector<PatternQuestion> corpus(3);
  corpus[0].tokens = {"who", "is", "the", "wife", "of", "barack", "obama"};
  corpus[0].mention_spans = {{5, 7}};
  corpus[1].tokens = {"who", "is", "the", "wife", "of", "bill", "gates"};
  corpus[1].mention_spans = {{5, 7}};
  corpus[2].tokens = {"who", "is", "the", "wife", "of", "the", "king"};
  corpus[2].mention_spans = {};
  PatternIndex index = PatternIndex::Build(corpus);
  auto stats = index.Stats("who is the wife of $e");
  EXPECT_LE(stats.fv, stats.fo);
  EXPECT_EQ(stats.fv, 2u);
  EXPECT_EQ(stats.fo, 3u);
}

TEST(PatternTest, LongMentionsBeyondSpanCapStillCount) {
  PatternIndex::Options options;
  options.max_span_tokens = 2;
  std::vector<PatternQuestion> corpus(1);
  corpus[0].tokens = {"about", "the", "very", "long", "entity", "name"};
  corpus[0].mention_spans = {{1, 6}};  // 5 tokens > cap
  PatternIndex index = PatternIndex::Build(corpus, options);
  auto stats = index.Stats("about $e");
  EXPECT_EQ(stats.fv, 1u);
  EXPECT_EQ(stats.fo, 1u);  // counted via the mention fallback
}

/// fo and fv as the string loop counts them: every span of up to
/// max_span_tokens tokens and every longer mention span replaced by `$e`,
/// each distinct pattern counted once per question; only patterns some
/// mention produced are kept.
std::map<std::string, PatternStats> BruteForceCounts(
    const std::vector<PatternQuestion>& questions,
    const PatternIndex::Options& options) {
  std::map<std::string, PatternStats> fv_patterns;
  for (const PatternQuestion& q : questions) {
    std::set<std::string> valid;
    for (const auto& [begin, end] : q.mention_spans) {
      if (begin < end && end <= q.tokens.size()) {
        valid.insert(MakePattern(q.tokens, begin, end));
      }
    }
    for (const std::string& pattern : valid) ++fv_patterns[pattern].fv;
  }
  for (const PatternQuestion& q : questions) {
    const size_t n = q.tokens.size();
    std::set<std::string> occurring;
    for (size_t begin = 0; begin < n; ++begin) {
      for (size_t end = begin + 1;
           end <= n && end - begin <= options.max_span_tokens; ++end) {
        occurring.insert(MakePattern(q.tokens, begin, end));
      }
    }
    for (const auto& [begin, end] : q.mention_spans) {
      if (begin < end && end <= n) {
        occurring.insert(MakePattern(q.tokens, begin, end));
      }
    }
    for (const std::string& pattern : occurring) {
      auto it = fv_patterns.find(pattern);
      if (it != fv_patterns.end()) ++it->second.fo;
    }
  }
  return fv_patterns;
}

void ExpectBruteForceCounts(const std::vector<PatternQuestion>& questions,
                            const PatternIndex::Options& options = {},
                            ThreadPool* pool = nullptr) {
  const PatternIndex index =
      pool == nullptr ? PatternIndex::Build(questions, options)
                      : PatternIndex::Build(questions, options, pool);
  const std::map<std::string, PatternStats> want =
      BruteForceCounts(questions, options);
  EXPECT_EQ(index.num_patterns(), want.size());
  for (const auto& [pattern, stats] : want) {
    EXPECT_EQ(index.Stats(pattern).fo, stats.fo) << pattern;
    EXPECT_EQ(index.Stats(pattern).fv, stats.fv) << pattern;
  }
}

TEST(PatternTest, CountsMatchBruteForceOnSmallCorpus) {
  const eval::ExperimentConfig config = eval::ExperimentConfig::Small();
  const corpus::World world = corpus::GenerateWorld(config.world);
  const corpus::QaCorpus corpus =
      corpus::GenerateTrainingCorpus(world, config.corpus);
  const GazetteerNer ner(world.kb, world.alias_predicates);
  std::vector<PatternQuestion> questions;
  for (const corpus::QaPair& pair : corpus.pairs) {
    PatternQuestion q;
    q.tokens = TokenizeQuestion(pair.question);
    for (const Mention& m : ner.FindMentions(q.tokens)) {
      q.mention_spans.emplace_back(m.begin, m.end);
    }
    questions.push_back(std::move(q));
  }
  ASSERT_GT(PatternIndex::Build(questions).num_patterns(), 10u);
  PatternIndex::Options short_spans;
  short_spans.max_span_tokens = 2;
  // The fo pass is sharded; any pool size must count the same.
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    ThreadPool pool(threads);
    ExpectBruteForceCounts(questions, {}, &pool);
    ExpectBruteForceCounts(questions, short_spans, &pool);
  }
}

TEST(PatternTest, PatternFromTwoSpansOfOneQuestionCountsOnce) {
  // Spans [0,2) and [1,3) both write "$e $e".
  std::vector<PatternQuestion> corpus(1);
  corpus[0].tokens = {"$e", "of", "$e"};
  corpus[0].mention_spans = {{0, 2}, {1, 3}};
  const PatternIndex index = PatternIndex::Build(corpus);
  EXPECT_EQ(index.Stats("$e $e").fo, 1u);
  EXPECT_EQ(index.Stats("$e $e").fv, 1u);
  ExpectBruteForceCounts(corpus);
}

TEST(PatternTest, SharedPrefixDifferentSuffix) {
  std::vector<PatternQuestion> corpus(2);
  corpus[0].tokens = {"when", "was", "obama", "born"};
  corpus[0].mention_spans = {{2, 3}};
  corpus[1].tokens = {"when", "was", "obama", "elected"};
  const PatternIndex index = PatternIndex::Build(corpus);
  EXPECT_EQ(index.Stats("when was $e born").fo, 1u);
  EXPECT_EQ(index.Stats("when was $e born").fv, 1u);
  EXPECT_EQ(index.Stats("when was $e elected").fo, 0u);
  ExpectBruteForceCounts(corpus);
}

TEST(PatternTest, EntitySlotAndEmptyTokensCountAsTheirStrings) {
  // Different spans, one string. A leading empty token adds no space, so
  // ["", "when", "born"] writes "$e born" for [0,2) and for [1,2), as
  // ["when", "born"] does for [0,1). ["$e", "x"] and ["x", "$e"] both
  // write "$e $e". An inner empty token adds a space: ["a", "", "b"]
  // writes "a  $e" for [2,3), as ["a", "", "", "b"] does for [2,4).
  std::vector<PatternQuestion> corpus(6);
  corpus[0].tokens = {"", "when", "born"};
  corpus[0].mention_spans = {{1, 2}};
  corpus[1].tokens = {"when", "born"};
  corpus[1].mention_spans = {{0, 1}};
  corpus[2].tokens = {"$e", "x"};
  corpus[2].mention_spans = {{1, 2}};
  corpus[3].tokens = {"x", "$e"};
  corpus[4].tokens = {"a", "", "b"};
  corpus[4].mention_spans = {{2, 3}};
  corpus[5].tokens = {"a", "", "", "b"};
  const PatternIndex index = PatternIndex::Build(corpus);
  EXPECT_EQ(index.Stats("$e born").fv, 2u);
  EXPECT_EQ(index.Stats("$e born").fo, 2u);
  EXPECT_EQ(index.Stats("$e $e").fv, 1u);
  EXPECT_EQ(index.Stats("$e $e").fo, 2u);
  EXPECT_EQ(index.Stats("a  $e").fv, 1u);
  EXPECT_EQ(index.Stats("a  $e").fo, 2u);
  ExpectBruteForceCounts(corpus);
  PatternIndex::Options one_token;
  one_token.max_span_tokens = 1;
  ExpectBruteForceCounts(corpus, one_token);
}

}  // namespace
}  // namespace kbqa::nlp
