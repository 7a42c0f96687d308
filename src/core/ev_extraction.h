#ifndef KBQA_CORE_EV_EXTRACTION_H_
#define KBQA_CORE_EV_EXTRACTION_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/answer_type.h"
#include "nlp/ner.h"
#include "nlp/question_classifier.h"
#include "rdf/expanded_predicate.h"
#include "rdf/knowledge_base.h"

namespace kbqa::core {

/// One extracted entity–value candidate from a QA pair (Eq. 8):
/// e ⊂ q, v ⊂ a, and at least one (possibly expanded) predicate connects
/// them in the knowledge base.
struct EvCandidate {
  /// Token span of the entity mention in the question.
  size_t mention_begin = 0;
  size_t mention_end = 0;
  rdf::TermId entity = rdf::kInvalidTerm;
  rdf::TermId value = rdf::kInvalidTerm;
  /// All expanded predicates connecting entity to value.
  std::vector<rdf::PathId> paths;
};

/// A token's text with its hash beside it: equality compares the hashes
/// first and the texts only when the hashes agree, so a hash collision never
/// makes two different tokens equal.
struct HashedToken {
  uint64_t hash = 0;
  std::string_view text;

  explicit HashedToken(std::string_view token);
  friend bool operator==(const HashedToken& a, const HashedToken& b) {
    return a.hash == b.hash && a.text == b.text;
  }
};

/// True when `needle` occurs as a contiguous token run inside `haystack`.
bool ContainsTokenRun(std::span<const HashedToken> haystack,
                      std::span<const HashedToken> needle);

/// Joint entity–value extraction (§4.1.1) with question-class refinement.
///
/// The direction of the scan is the key to efficiency: instead of matching
/// every answer substring against the KB, it enumerates the entity's
/// materialized expanded triples (tens per entity) and checks which objects
/// occur in the answer — the same join order the paper's "reduction on s"
/// sets up. Value matching is token-contiguous, so "1961" does not match
/// inside "21961".
///
/// The constructor tokenizes every literal node of the KB once into a flat
/// table and labels every expanded predicate with its answer class, so
/// Extract compares hashed tokens and reads the class from an array. Both
/// are read-only afterwards: concurrent Extract calls share them.
class EvExtractor {
 public:
  struct Options {
    /// Apply the UIUC answer-type filter (the paper's refinement step).
    bool refine_by_question_class = true;
  };

  /// All references must outlive the extractor. `kb` must be frozen and
  /// `ekb` built.
  EvExtractor(const rdf::KnowledgeBase* kb, const rdf::ExpandedKb* ekb,
              const nlp::GazetteerNer* ner,
              const nlp::QuestionClassifier* classifier,
              const PredicateClassMap* predicate_class,
              const std::unordered_set<rdf::PredId>* name_like,
              const Options& options);
  // The literal table's token views point into literal_text_, which a
  // copy would not share and a move of a short string would relocate.
  EvExtractor(const EvExtractor&) = delete;
  EvExtractor& operator=(const EvExtractor&) = delete;

  /// Extracts EV candidates from one QA pair. `question_tokens` must come
  /// from nlp::TokenizeQuestion.
  std::vector<EvCandidate> Extract(
      const std::vector<std::string>& question_tokens,
      const std::string& answer) const;
  /// As above, with the question's mentions already found by the NER this
  /// extractor was built with.
  std::vector<EvCandidate> Extract(
      const std::vector<std::string>& question_tokens,
      std::span<const nlp::Mention> mentions, const std::string& answer) const;

  const nlp::GazetteerNer& ner() const { return *ner_; }

 private:
  const rdf::KnowledgeBase* kb_;
  const rdf::ExpandedKb* ekb_;
  const nlp::GazetteerNer* ner_;
  const nlp::QuestionClassifier* classifier_;
  const PredicateClassMap* predicate_class_;
  const std::unordered_set<rdf::PredId>* name_like_;
  Options options_;
  /// Literal node n's tokens are literal_tokens_[literal_begin_[n],
  /// literal_begin_[n + 1]); entities and literals without a word have none.
  /// The token texts point into literal_text_.
  std::vector<uint32_t> literal_begin_;
  std::vector<HashedToken> literal_tokens_;
  std::string literal_text_;
  /// PathAnswerClass of each PathId of `ekb`.
  std::vector<nlp::QuestionClass> path_class_;
};

}  // namespace kbqa::core

#endif  // KBQA_CORE_EV_EXTRACTION_H_
