#include "nlp/ner.h"

#include <algorithm>
#include <string_view>

#include "nlp/tokenizer.h"

namespace kbqa::nlp {

GazetteerNer::GazetteerNer(const rdf::KnowledgeBase& kb,
                           const std::vector<rdf::PredId>& alias_predicates) {
  std::vector<rdf::PredId> name_preds;
  if (kb.name_predicate() != rdf::kInvalidPred) {
    name_preds.push_back(kb.name_predicate());
  }
  name_preds.insert(name_preds.end(), alias_predicates.begin(),
                    alias_predicates.end());
  for (rdf::TermId e : kb.AllEntities()) {
    for (rdf::PredId p : name_preds) {
      for (const auto& po : kb.ObjectsRange(e, p)) {
        AddName(kb.NodeString(po.o), e);
      }
    }
  }
}

void GazetteerNer::AddName(const std::string& surface, rdf::TermId entity) {
  std::vector<std::string> tokens = Tokenize(surface);
  if (tokens.empty()) return;
  max_name_tokens_ = std::max(max_name_tokens_, tokens.size());
  auto& entities = names_[JoinTokens(tokens)];
  if (std::find(entities.begin(), entities.end(), entity) == entities.end()) {
    entities.push_back(entity);
  }
}

std::vector<Mention> GazetteerNer::FindMentions(
    const std::vector<std::string>& tokens) const {
  std::vector<Mention> mentions;
  // One key buffer for every probe: at each start position it holds the
  // longest candidate span joined by spaces, and each shorter candidate
  // is a prefix of it.
  std::string key;
  size_t i = 0;
  while (i < tokens.size()) {
    const size_t max_len = std::min(max_name_tokens_, tokens.size() - i);
    key.clear();
    for (size_t k = i; k < i + max_len; ++k) {
      if (k > i) key += ' ';
      key += tokens[k];
    }
    size_t longest = 0;
    const std::vector<rdf::TermId>* hit = nullptr;
    // Longest-match-first: a mention of "new york city" must not be split
    // into "new york" + "city".
    size_t prefix = key.size();
    for (size_t len = max_len; len >= 1; --len) {
      auto it = names_.find(std::string_view(key.data(), prefix));
      if (it != names_.end()) {
        longest = len;
        hit = &it->second;
        break;
      }
      if (len > 1) prefix -= tokens[i + len - 1].size() + 1;
    }
    if (hit != nullptr) {
      mentions.push_back({i, i + longest, *hit});
      i += longest;
    } else {
      ++i;
    }
  }
  return mentions;
}

std::vector<rdf::TermId> GazetteerNer::EntitiesForSpan(
    const std::vector<std::string>& tokens, size_t begin, size_t end) const {
  if (begin >= end || end > tokens.size()) return {};
  std::string key;
  for (size_t i = begin; i < end; ++i) {
    if (i > begin) key += ' ';
    key += tokens[i];
  }
  auto it = names_.find(key);
  if (it == names_.end()) return {};
  return it->second;
}

bool LooksLikeNumber(const std::string& token) {
  if (token.empty()) return false;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

}  // namespace kbqa::nlp
