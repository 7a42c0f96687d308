#ifndef KBQA_NLP_NER_H_
#define KBQA_NLP_NER_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/knowledge_base.h"

namespace kbqa::nlp {

/// An entity mention: token span [begin, end) plus the candidate KB
/// entities sharing that surface form. Ambiguity (several entities, e.g.
/// the apple company vs. the apple fruit) is preserved for the
/// probabilistic model — P(e|q) is uniform over candidates (§3.2).
struct Mention {
  size_t begin;
  size_t end;
  std::vector<rdf::TermId> entities;

  size_t size() const { return end - begin; }
};

/// Gazetteer named-entity recognizer — the substrate standing in for
/// Stanford NER [13]. Recognizes KB entity names by greedy longest match
/// over lowercase token n-grams. Like a real statistical NER it is
/// imperfect by construction: it only finds names the gazetteer knows, it
/// cannot split overlapping mentions, and common-word names create false
/// ambiguity — the paper's §7.5 comparison (joint extraction 72% vs NER
/// 30%) depends on exactly these failure modes.
class GazetteerNer {
 public:
  /// Builds the gazetteer from all entity names (and aliases) in `kb`.
  /// `alias_predicates` lists additional name-bearing predicates.
  explicit GazetteerNer(const rdf::KnowledgeBase& kb,
                        const std::vector<rdf::PredId>& alias_predicates = {});

  GazetteerNer(const GazetteerNer&) = delete;
  GazetteerNer& operator=(const GazetteerNer&) = delete;
  GazetteerNer(GazetteerNer&&) = default;
  GazetteerNer& operator=(GazetteerNer&&) = default;

  /// Finds non-overlapping mentions, left to right, longest match first.
  std::vector<Mention> FindMentions(
      const std::vector<std::string>& tokens) const;

  /// Entities whose (lowercased) name equals the token span exactly.
  std::vector<rdf::TermId> EntitiesForSpan(
      const std::vector<std::string>& tokens, size_t begin, size_t end) const;

  size_t num_names() const { return names_.size(); }
  size_t max_name_tokens() const { return max_name_tokens_; }

 private:
  void AddName(const std::string& surface, rdf::TermId entity);

  // Key: lowercase space-joined token form of the name. Heterogeneous, so
  // a probe looks up a prefix of one joined buffer without copying it.
  std::unordered_map<std::string, std::vector<rdf::TermId>, rdf::StringHash,
                     std::equal_to<>>
      names_;
  size_t max_name_tokens_ = 1;
};

/// True for tokens that look like literal values (numbers, years). Used by
/// value spotting in answers.
bool LooksLikeNumber(const std::string& token);

}  // namespace kbqa::nlp

#endif  // KBQA_NLP_NER_H_
