// Golden answers: the exact output of the trained Small-world system for
// every benchmark, complex and variant question, plus the exact Table 7–9
// counters, pinned against tests/data/golden_answers.jsonl.
//
// The pipeline is deterministic (seeded world and corpus, single-threaded
// EM), so any refactor that keeps behaviour keeps this file byte-identical.
// A change that moves an answer must update the file and say why. On a
// mismatch the test writes its full rendering to golden_answers.actual.jsonl
// in its working directory; diff that against the committed file, and copy
// it over only when the change is intended.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "eval/experiment.h"
#include "eval/runner.h"

namespace kbqa {
namespace {

constexpr size_t kTopRanked = 10;
constexpr char kActualPath[] = "golden_answers.actual.jsonl";

/// The §7.5 complex questions of Table 15.
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

/// The §1 ranking / comparison / listing frames, plus questions the
/// variant solver must decline.
const char* const kVariantQuestions[] = {
    "which city has the largest population",
    "which city has the 2nd largest population",
    "which city has the smallest population",
    "which has more people , honolulu or tokyo",
    "which has less people , honolulu or tokyo",
    "list cities ordered by population",
    "when was barack obama born",
    "hello there",
    "which dragon has the largest hoard",
};

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Full precision: %.17g round-trips every double exactly.
std::string Exact(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

class GoldenAnswersTest : public ::testing::Test {
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

  /// Surface string of a KB node: entity name or literal text.
  static std::string Surface(rdf::TermId id) {
    if (id == rdf::kInvalidTerm) return "";
    const rdf::KnowledgeBase& kb = experiment().world().kb;
    return kb.IsLiteral(id) ? kb.NodeString(id) : kb.EntityName(id);
  }

  /// answered, status, value, score, predicate, sparql, values, the
  /// Table 6 support counts [entities, templates, predicates, values,
  /// grounded predicates] and the top ranked candidates as
  /// [value, score, template, predicate, entity].
  static std::string RenderAnswer(const core::AnswerResult& r) {
    const core::KbqaSystem& kbqa = experiment().kbqa();
    const rdf::PathDictionary& paths = kbqa.expanded_kb().paths();
    std::ostringstream os;
    os << "\"answered\":" << (r.answered ? "true" : "false")
       << ",\"status\":" << Quote(r.status.ToString())
       << ",\"value\":" << Quote(r.value) << ",\"score\":" << Exact(r.score)
       << ",\"predicate\":" << Quote(r.predicate)
       << ",\"sparql\":" << Quote(r.sparql) << ",\"values\":[";
    for (size_t i = 0; i < r.values.size(); ++i) {
      os << (i == 0 ? "" : ",") << Quote(r.values[i]);
    }
    os << "],\"support\":[" << r.num_entities << "," << r.num_templates << ","
       << r.num_predicates << "," << r.num_values << ","
       << r.num_grounded_predicates << "],\"ranked\":[";
    for (size_t i = 0; i < r.ranked.size() && i < kTopRanked; ++i) {
      const core::AnswerCandidate& c = r.ranked[i];
      os << (i == 0 ? "" : ",") << "[" << Quote(Surface(c.value)) << ","
         << Exact(c.score) << ","
         << Quote(c.best_template == core::kInvalidTemplate
                      ? ""
                      : kbqa.template_store().TemplateText(c.best_template))
         << ","
         << Quote(c.best_path == rdf::kInvalidPath
                      ? ""
                      : paths.ToString(c.best_path, experiment().world().kb))
         << "," << Quote(Surface(c.best_entity)) << "]";
    }
    os << "]";
    return os.str();
  }

  static std::string RenderCounts(const eval::QaldCounts& c) {
    std::ostringstream os;
    os << "[" << c.total << "," << c.bfq << "," << c.pro << "," << c.ri << ","
       << c.par << "]";
    return os.str();
  }

  /// Every golden line, in file order. Each line starts with its section
  /// tag ({"set":"<name>"), which the per-section tests filter on.
  static const std::vector<std::string>& Actual() {
    static const std::vector<std::string> kLines = [] {
      std::vector<std::string> lines;
      const auto emit = [&lines](const std::ostringstream& os) {
        lines.push_back(os.str());
      };
      const eval::Experiment& exp = experiment();
      const core::KbqaSystem& kbqa = exp.kbqa();
      const std::pair<std::string, corpus::BenchmarkSet> sets[] = {
          {"qald5", exp.MakeQald5()},
          {"qald3", exp.MakeQald3()},
          {"qald1", exp.MakeQald1()},
          {"webquestions", exp.MakeWebQuestions()},
      };
      for (const auto& [tag, set] : sets) {
        for (size_t i = 0; i < set.questions.size(); ++i) {
          const std::string& q = set.questions.pairs[i].question;
          std::ostringstream os;
          os << "{\"set\":\"" << tag << "\",\"i\":" << i
             << ",\"q\":" << Quote(q) << "," << RenderAnswer(kbqa.Answer(q))
             << "}";
          emit(os);
        }
      }
      for (const char* q : kComplexQuestions) {
        const core::ComplexAnswer complex = kbqa.AnswerComplex(q);
        std::ostringstream os;
        os << "{\"set\":\"complex\",\"q\":" << Quote(q) << ",\"sequence\":[";
        for (size_t i = 0; i < complex.sequence.size(); ++i) {
          os << (i == 0 ? "" : ",") << Quote(complex.sequence[i]);
        }
        os << "],\"p\":" << Exact(complex.decomposition_probability) << ","
           << RenderAnswer(complex.answer) << "}";
        emit(os);
      }
      for (const char* q : kVariantQuestions) {
        std::ostringstream os;
        os << "{\"set\":\"variant\",\"q\":" << Quote(q) << ","
           << RenderAnswer(kbqa.AnswerVariant(q)) << "}";
        emit(os);
      }
      // Tables 7–9: [total, bfq, pro, ri, par] over all questions and over
      // the BFQ subset, for KBQA and every baseline family.
      std::vector<const core::QaSystemInterface*> systems = {&kbqa};
      for (const core::QaSystemInterface* b : exp.Baselines()) {
        systems.push_back(b);
      }
      for (const auto& [tag, set] : sets) {
        if (tag == "webquestions") continue;
        for (const core::QaSystemInterface* system : systems) {
          const eval::RunResult run = eval::RunBenchmark(*system, set);
          std::ostringstream os;
          os << "{\"set\":\"table\",\"benchmark\":\"" << tag
             << "\",\"system\":" << Quote(system->name())
             << ",\"counts\":" << RenderCounts(run.counts)
             << ",\"bfq_only\":" << RenderCounts(run.bfq_only) << "}";
          emit(os);
        }
      }
      return lines;
    }();
    return kLines;
  }

  static const std::vector<std::string>& Golden() {
    static const std::vector<std::string> kLines = [] {
      std::vector<std::string> lines;
      std::ifstream in(KBQA_GOLDEN_ANSWERS_PATH);
      for (std::string line; std::getline(in, line);) lines.push_back(line);
      return lines;
    }();
    return kLines;
  }

  /// Compares one section line by line; on any difference, dumps the
  /// whole actual rendering for review.
  static void ExpectSectionMatches(const std::string& set) {
    const std::string prefix = "{\"set\":\"" + set + "\"";
    std::vector<std::string> want;
    std::vector<std::string> got;
    for (const std::string& line : Golden()) {
      if (line.rfind(prefix, 0) == 0) want.push_back(line);
    }
    for (const std::string& line : Actual()) {
      if (line.rfind(prefix, 0) == 0) got.push_back(line);
    }
    if (want != got) {
      std::ofstream out(kActualPath);
      for (const std::string& line : Actual()) out << line << "\n";
    }
    ASSERT_FALSE(want.empty())
        << KBQA_GOLDEN_ANSWERS_PATH << " has no " << set << " records";
    size_t mismatches = 0;
    for (size_t i = 0; i < want.size() && i < got.size(); ++i) {
      if (want[i] == got[i]) continue;
      if (++mismatches <= 5) {
        ADD_FAILURE() << set << " record " << i << " differs\n  golden: "
                      << want[i] << "\n  actual: " << got[i];
      }
    }
    EXPECT_EQ(mismatches, 0u) << set << " records differ from the golden file";
    EXPECT_EQ(got.size(), want.size()) << set << " record count differs";
  }
};

TEST_F(GoldenAnswersTest, Qald5AnswersMatchGolden) {
  ExpectSectionMatches("qald5");
}

TEST_F(GoldenAnswersTest, Qald3AnswersMatchGolden) {
  ExpectSectionMatches("qald3");
}

TEST_F(GoldenAnswersTest, Qald1AnswersMatchGolden) {
  ExpectSectionMatches("qald1");
}

TEST_F(GoldenAnswersTest, WebQuestionsAnswersMatchGolden) {
  ExpectSectionMatches("webquestions");
}

TEST_F(GoldenAnswersTest, Table15ComplexAnswersMatchGolden) {
  ExpectSectionMatches("complex");
}

TEST_F(GoldenAnswersTest, VariantAnswersMatchGolden) {
  ExpectSectionMatches("variant");
}

TEST_F(GoldenAnswersTest, Tables7To9CountsMatchGolden) {
  ExpectSectionMatches("table");
}

TEST_F(GoldenAnswersTest, GoldenFileHasOnlyKnownSections) {
  const std::set<std::string> known = {"qald5",   "qald3",   "qald1",
                                       "webquestions", "complex", "variant",
                                       "table"};
  for (const std::string& line : Golden()) {
    const size_t begin = line.find(':') + 2;
    const std::string set = line.substr(begin, line.find('"', begin) - begin);
    EXPECT_TRUE(known.count(set) != 0) << "unchecked golden line: " << line;
  }
}

}  // namespace
}  // namespace kbqa
