#include "core/ev_extraction.h"

#include <algorithm>
#include <functional>

#include "nlp/tokenizer.h"

namespace kbqa::core {

HashedToken::HashedToken(std::string_view token)
    : hash(std::hash<std::string_view>{}(token)), text(token) {}

bool ContainsTokenRun(std::span<const HashedToken> haystack,
                      std::span<const HashedToken> needle) {
  return !needle.empty() &&
         !std::ranges::search(haystack, needle).empty();
}

EvExtractor::EvExtractor(const rdf::KnowledgeBase* kb,
                         const rdf::ExpandedKb* ekb,
                         const nlp::GazetteerNer* ner,
                         const nlp::QuestionClassifier* classifier,
                         const PredicateClassMap* predicate_class,
                         const std::unordered_set<rdf::PredId>* name_like,
                         const Options& options)
    : kb_(kb),
      ekb_(ekb),
      ner_(ner),
      classifier_(classifier),
      predicate_class_(predicate_class),
      name_like_(name_like),
      options_(options) {
  // Tokenize each literal once. The texts are appended first and viewed
  // after, so no view points into a buffer that later grows or shrinks.
  literal_begin_.reserve(kb_->num_nodes() + 1);
  literal_begin_.push_back(0);
  std::vector<uint32_t> token_size;
  for (rdf::TermId node = 0; node < kb_->num_nodes(); ++node) {
    if (kb_->IsLiteral(node)) {
      for (const std::string& token : nlp::Tokenize(kb_->NodeString(node))) {
        literal_text_ += token;
        token_size.push_back(static_cast<uint32_t>(token.size()));
      }
    }
    literal_begin_.push_back(static_cast<uint32_t>(token_size.size()));
  }
  literal_text_.shrink_to_fit();
  literal_tokens_.reserve(token_size.size());
  size_t offset = 0;
  for (uint32_t size : token_size) {
    literal_tokens_.emplace_back(
        std::string_view(literal_text_).substr(offset, size));
    offset += size;
  }

  path_class_.reserve(ekb_->paths().size());
  for (rdf::PathId id = 0; id < ekb_->paths().size(); ++id) {
    path_class_.push_back(PathAnswerClass(ekb_->paths().GetPath(id),
                                          *predicate_class_, *name_like_));
  }
}

std::vector<EvCandidate> EvExtractor::Extract(
    const std::vector<std::string>& question_tokens,
    const std::string& answer) const {
  return Extract(question_tokens, ner_->FindMentions(question_tokens), answer);
}

std::vector<EvCandidate> EvExtractor::Extract(
    const std::vector<std::string>& question_tokens,
    std::span<const nlp::Mention> mentions, const std::string& answer) const {
  std::vector<EvCandidate> out;
  if (mentions.empty()) return out;

  const std::vector<std::string> answer_tokens = nlp::Tokenize(answer);
  if (answer_tokens.empty()) return out;
  const std::vector<HashedToken> answer_run(answer_tokens.begin(),
                                            answer_tokens.end());

  nlp::QuestionClass question_class = nlp::QuestionClass::kUnknown;
  if (options_.refine_by_question_class) {
    question_class = classifier_->Classify(question_tokens);
  }

  for (const nlp::Mention& mention : mentions) {
    for (rdf::TermId entity : mention.entities) {
      // Group the entity's matching triples by value; each value yields one
      // candidate carrying all connecting paths.
      EvCandidate* current = nullptr;
      rdf::TermId current_value = rdf::kInvalidTerm;
      for (const auto& [path_id, object] : ekb_->Out(entity)) {
        // Skip objects that cannot appear as answer text (entity IRIs).
        if (!kb_->IsLiteral(object)) continue;
        // Refinement: the value's class (from its predicate) must be
        // compatible with the question's expected answer type.
        if (options_.refine_by_question_class &&
            !AnswerClassCompatible(question_class, path_class_[path_id])) {
          continue;
        }
        const std::span<const HashedToken> value_run(
            literal_tokens_.data() + literal_begin_[object],
            literal_tokens_.data() + literal_begin_[object + 1]);
        if (!ContainsTokenRun(answer_run, value_run)) continue;
        if (current == nullptr || current_value != object) {
          // Out() is sorted by (path, object), so the same value may recur
          // non-contiguously; search existing candidates for this entity.
          current = nullptr;
          for (EvCandidate& cand : out) {
            if (cand.entity == entity && cand.value == object &&
                cand.mention_begin == mention.begin) {
              current = &cand;
              break;
            }
          }
          if (current == nullptr) {
            out.push_back(EvCandidate{mention.begin, mention.end, entity,
                                      object,
                                      {}});
            current = &out.back();
          }
          current_value = object;
        }
        if (std::find(current->paths.begin(), current->paths.end(), path_id) ==
            current->paths.end()) {
          current->paths.push_back(path_id);
        }
      }
    }
  }
  return out;
}

}  // namespace kbqa::core
