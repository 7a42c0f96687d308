#include "core/variants.h"

#include <algorithm>
#include <cctype>
#include <unordered_map>

#include "nlp/stopwords.h"
#include "nlp/tokenizer.h"
#include "util/strings.h"

namespace kbqa::core {

namespace {

/// Maximum entities named in a listing answer.
constexpr size_t kMaxListed = 10;
/// Minimum P(p|t) for a template to vote during phrase resolution.
constexpr double kMinTemplateProb = 0.3;

/// True when `word` marks a "largest" superlative, false for "smallest";
/// nullopt otherwise.
std::optional<bool> SuperlativeDirection(const std::string& word) {
  if (word == "largest" || word == "biggest" || word == "highest" ||
      word == "longest" || word == "most") {
    return true;
  }
  if (word == "smallest" || word == "lowest" || word == "shortest" ||
      word == "least") {
    return false;
  }
  return std::nullopt;
}

}  // namespace

int ParseOrdinal(const std::string& token) {
  static const std::pair<const char*, int> kWords[] = {
      {"first", 1}, {"second", 2}, {"third", 3},   {"fourth", 4},
      {"fifth", 5}, {"sixth", 6},  {"seventh", 7}, {"eighth", 8},
      {"ninth", 9}, {"tenth", 10}};
  for (const auto& [word, value] : kWords) {
    if (token == word) return value;
  }
  // "1st" / "2nd" / "3rd" / "4th" ... digits followed by a suffix.
  size_t digits = 0;
  while (digits < token.size() &&
         std::isdigit(static_cast<unsigned char>(token[digits]))) {
    ++digits;
  }
  if (digits == 0 || digits == token.size()) return 0;
  std::string suffix = token.substr(digits);
  if (suffix != "st" && suffix != "nd" && suffix != "rd" && suffix != "th") {
    return 0;
  }
  long long value = ParseNonNegativeInt(token.substr(0, digits));
  return value > 0 && value <= 1000 ? static_cast<int>(value) : 0;
}

VariantSolver::VariantSolver(const rdf::KnowledgeBase* kb,
                             const taxonomy::Taxonomy* taxonomy,
                             const nlp::GazetteerNer* ner,
                             const TemplateStore* store,
                             const rdf::PathDictionary* paths)
    : kb_(kb), taxonomy_(taxonomy), ner_(ner), store_(store), paths_(paths) {}

std::optional<taxonomy::CategoryId> VariantSolver::LookupCategoryWord(
    const std::string& word) const {
  auto category = taxonomy_->LookupCategory("$" + word);
  if (category) return category;
  // Plural forms: "citys ..." (generator form), "cities ..." (-ies -> -y),
  // "books ..." (bare -s).
  if (word.size() > 3 && word.ends_with("ies")) {
    category =
        taxonomy_->LookupCategory("$" + word.substr(0, word.size() - 3) + "y");
    if (category) return category;
  }
  if (word.size() > 1 && word.back() == 's') {
    category = taxonomy_->LookupCategory("$" + word.substr(0, word.size() - 1));
    if (category) return category;
  }
  return std::nullopt;
}

std::optional<rdf::PathId> VariantSolver::ResolvePredicate(
    const std::string& category,
    const std::vector<std::string>& phrase_tokens) const {
  // Content words of the phrase that must appear in a matching template.
  std::vector<std::string> content;
  for (const std::string& tok : phrase_tokens) {
    if (!nlp::IsStopword(tok)) content.push_back(tok);
  }
  if (content.empty()) return std::nullopt;

  // Vote over learned templates: a template of this category whose text
  // contains every content word supports its argmax predicate with weight
  // frequency * P(p|t).
  std::unordered_map<rdf::PathId, double> votes;
  for (TemplateId t = 0; t < store_->num_templates(); ++t) {
    const std::string& text = store_->TemplateText(t);
    if (text.find(category) == std::string::npos) continue;
    std::vector<std::string> tokens = SplitWhitespace(text);
    bool covers = true;
    for (const std::string& word : content) {
      covers = covers &&
               std::find(tokens.begin(), tokens.end(), word) != tokens.end();
    }
    if (!covers) continue;
    auto best = store_->Best(t);
    if (!best || best->probability < kMinTemplateProb) continue;
    votes[best->path] += best->probability *
                         static_cast<double>(1 + store_->Frequency(t));
  }
  if (votes.empty()) return std::nullopt;
  rdf::PathId winner = rdf::kInvalidPath;
  double best_vote = -1;
  for (const auto& [path, vote] : votes) {
    if (vote > best_vote || (vote == best_vote && path < winner)) {
      best_vote = vote;
      winner = path;
    }
  }
  return winner;
}

std::vector<std::pair<rdf::TermId, long long>> VariantSolver::RankEntities(
    taxonomy::CategoryId category, rdf::PathId path) const {
  std::vector<std::pair<rdf::TermId, long long>> ranked;
  const rdf::PredPath& pred_path = paths_->GetPath(path);
  for (rdf::TermId e : taxonomy_->EntitiesWithCategory(category)) {
    std::vector<rdf::TermId> values = rdf::ObjectsViaPath(*kb_, e, pred_path);
    if (values.empty()) continue;
    long long value = ParseNonNegativeInt(kb_->NodeString(values.front()));
    if (value < 0) continue;
    ranked.emplace_back(e, value);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  return ranked;
}

AnswerResult VariantSolver::AnswerSuperlative(
    const std::vector<std::string>& tokens) const {
  AnswerResult result;
  // Frame: "which <type> has the [k-th] largest|smallest <phrase>".
  if (tokens.size() < 5 || (tokens[0] != "which" && tokens[0] != "what")) {
    return result;
  }
  size_t dir_pos = 0;
  std::optional<bool> largest;
  for (size_t i = 2; i < tokens.size(); ++i) {
    largest = SuperlativeDirection(tokens[i]);
    if (largest) {
      dir_pos = i;
      break;
    }
  }
  if (!largest || dir_pos + 1 >= tokens.size()) return result;

  int rank = 1;
  if (dir_pos >= 1) {
    int ordinal = ParseOrdinal(tokens[dir_pos - 1]);
    if (ordinal > 0) rank = ordinal;
  }
  auto category = LookupCategoryWord(tokens[1]);
  if (!category) return result;
  std::vector<std::string> phrase(tokens.begin() + dir_pos + 1, tokens.end());
  auto path = ResolvePredicate(taxonomy_->CategoryName(*category), phrase);
  if (!path) return result;

  auto ranked = RankEntities(*category, *path);
  if (ranked.size() < static_cast<size_t>(rank)) return result;
  const auto& pick =
      *largest ? ranked[rank - 1] : ranked[ranked.size() - rank];
  result.answered = true;
  result.value = kb_->EntityName(pick.first);
  result.predicate = paths_->ToString(*path, *kb_);
  result.score = 1.0;
  return result;
}

AnswerResult VariantSolver::AnswerComparison(
    const std::vector<std::string>& tokens) const {
  AnswerResult result;
  // Frame: "which has more|less <phrase> , <a> or <b>".
  if (tokens.size() < 6 || tokens[0] != "which" || tokens[1] != "has") {
    return result;
  }
  bool more;
  if (tokens[2] == "more") {
    more = true;
  } else if (tokens[2] == "less" || tokens[2] == "fewer") {
    more = false;
  } else {
    return result;
  }
  std::vector<nlp::Mention> mentions = ner_->FindMentions(tokens);
  if (mentions.size() < 2 || mentions[0].begin <= 3) return result;
  std::vector<std::string> phrase(tokens.begin() + 3,
                                  tokens.begin() + mentions[0].begin);

  // Both mentions must share a category; resolve the phrase against it.
  for (rdf::TermId a : mentions[0].entities) {
    for (rdf::TermId b : mentions[1].entities) {
      for (const auto& cat_a : taxonomy_->CategoriesOf(a)) {
        bool shared = false;
        for (const auto& cat_b : taxonomy_->CategoriesOf(b)) {
          shared = shared || cat_a.category == cat_b.category;
        }
        if (!shared) continue;
        auto path = ResolvePredicate(
            taxonomy_->CategoryName(cat_a.category), phrase);
        if (!path) continue;
        const rdf::PredPath& pred_path = paths_->GetPath(*path);
        auto va = rdf::ObjectsViaPath(*kb_, a, pred_path);
        auto vb = rdf::ObjectsViaPath(*kb_, b, pred_path);
        if (va.empty() || vb.empty()) continue;
        long long xa = ParseNonNegativeInt(kb_->NodeString(va.front()));
        long long xb = ParseNonNegativeInt(kb_->NodeString(vb.front()));
        if (xa < 0 || xb < 0 || xa == xb) continue;
        bool pick_a = more ? xa > xb : xa < xb;
        result.answered = true;
        result.value = kb_->EntityName(pick_a ? a : b);
        result.predicate = paths_->ToString(*path, *kb_);
        result.score = 1.0;
        return result;
      }
    }
  }
  return result;
}

AnswerResult VariantSolver::AnswerListing(
    const std::vector<std::string>& tokens) const {
  AnswerResult result;
  // Frame: "list [all] <types> ordered by <phrase>".
  if (tokens.size() < 5 || tokens[0] != "list") return result;
  size_t ordered_pos = 0;
  for (size_t i = 1; i + 1 < tokens.size(); ++i) {
    if (tokens[i] == "ordered" && tokens[i + 1] == "by") {
      ordered_pos = i;
      break;
    }
  }
  if (ordered_pos < 2) return result;
  auto category = LookupCategoryWord(tokens[ordered_pos - 1]);
  if (!category) return result;
  std::vector<std::string> phrase(tokens.begin() + ordered_pos + 2,
                                  tokens.end());
  auto path = ResolvePredicate(taxonomy_->CategoryName(*category), phrase);
  if (!path) return result;

  auto ranked = RankEntities(*category, *path);
  if (ranked.empty()) return result;
  std::string answer;
  for (size_t i = 0; i < ranked.size() && i < kMaxListed; ++i) {
    if (!answer.empty()) answer += ", ";
    answer += kb_->EntityName(ranked[i].first);
  }
  result.answered = true;
  result.value = std::move(answer);
  result.predicate = paths_->ToString(*path, *kb_);
  result.score = 1.0;
  return result;
}

AnswerResult VariantSolver::Answer(const std::string& question) const {
  std::vector<std::string> tokens = nlp::TokenizeQuestion(question);
  AnswerResult result = AnswerSuperlative(tokens);
  if (result.answered) return result;
  result = AnswerComparison(tokens);
  if (result.answered) return result;
  return AnswerListing(tokens);
}

}  // namespace kbqa::core
