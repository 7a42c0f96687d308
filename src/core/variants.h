#ifndef KBQA_CORE_VARIANTS_H_
#define KBQA_CORE_VARIANTS_H_

#include <optional>
#include <string>
#include <vector>

#include "core/online.h"
#include "core/template_store.h"
#include "nlp/ner.h"
#include "rdf/expanded_predicate.h"
#include "rdf/knowledge_base.h"
#include "taxonomy/taxonomy.h"

namespace kbqa::core {

/// BFQ *variants* (§1 of the paper): once binary factoid questions are
/// answerable, ranking, comparison, and listing questions follow —
///   "which city has the 3rd largest population?"
///   "which has more people, honolulu or new jersey?"
///   "list cities ordered by population"
///
/// The key design point: the attribute phrasing ("people", "population",
/// "number of inhabitants") is resolved to a predicate through the
/// *learned* template store — the solver searches templates of the target
/// category whose text covers the phrase and takes the argmax P(p|t) — so
/// variant questions inherit the full paraphrase coverage of the BFQ
/// engine instead of relying on predicate-name keywords.
class VariantSolver {
 public:
  VariantSolver(const rdf::KnowledgeBase* kb,
                const taxonomy::Taxonomy* taxonomy,
                const nlp::GazetteerNer* ner, const TemplateStore* store,
                const rdf::PathDictionary* paths);

  /// Attempts to answer a variant question; `answered == false` when the
  /// question matches no variant frame or resolution fails.
  AnswerResult Answer(const std::string& question) const;

  /// Exposed for tests: resolves an attribute phrase to a predicate path
  /// for a category via the learned templates.
  std::optional<rdf::PathId> ResolvePredicate(
      const std::string& category,
      const std::vector<std::string>& phrase_tokens) const;

 private:
  AnswerResult AnswerSuperlative(const std::vector<std::string>& tokens) const;
  AnswerResult AnswerComparison(const std::vector<std::string>& tokens) const;
  AnswerResult AnswerListing(const std::vector<std::string>& tokens) const;

  /// Ranks entities of `category` by the numeric value reached through
  /// `path`; returns (entity, value) pairs sorted descending.
  std::vector<std::pair<rdf::TermId, long long>> RankEntities(
      taxonomy::CategoryId category, rdf::PathId path) const;

  std::optional<taxonomy::CategoryId> LookupCategoryWord(
      const std::string& word) const;

  const rdf::KnowledgeBase* kb_;
  const taxonomy::Taxonomy* taxonomy_;
  const nlp::GazetteerNer* ner_;
  const TemplateStore* store_;
  const rdf::PathDictionary* paths_;
};

/// Parses an English ordinal token: "1st"/"first" -> 1, "3rd"/"third" -> 3.
/// Returns 0 when the token is not an ordinal.
int ParseOrdinal(const std::string& token);

}  // namespace kbqa::core

#endif  // KBQA_CORE_VARIANTS_H_
