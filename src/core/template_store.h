#ifndef KBQA_CORE_TEMPLATE_STORE_H_
#define KBQA_CORE_TEMPLATE_STORE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/expanded_predicate.h"

namespace kbqa::core {

/// Dense template identifier. A template is a question string whose entity
/// mention has been replaced by a category token, e.g.
/// "how many people are there in $city".
using TemplateId = uint32_t;
inline constexpr TemplateId kInvalidTemplate =
    std::numeric_limits<TemplateId>::max();

/// One entry of a template's predicate distribution.
struct PredicateProb {
  rdf::PathId path;
  double probability;
};

/// The learned artifact of the offline procedure: the template dictionary
/// and the distribution P(p|t) for every template (the paper learns 27M
/// templates for 2782 predicates; scale differs here, shape does not).
class TemplateStore {
 public:
  TemplateStore() = default;
  TemplateStore(const TemplateStore&) = delete;
  TemplateStore& operator=(const TemplateStore&) = delete;
  TemplateStore(TemplateStore&&) = default;
  TemplateStore& operator=(TemplateStore&&) = default;

  /// Interns a template string (training-time use).
  TemplateId Intern(std::string_view template_text);
  /// Looks a template up without interning or allocating (online use).
  std::optional<TemplateId> Lookup(std::string_view template_text) const;

  const std::string& TemplateText(TemplateId id) const { return texts_[id]; }
  size_t num_templates() const { return texts_.size(); }

  /// Replaces the P(p|t) distribution of `t` (entries sorted by descending
  /// probability by the setter).
  void SetDistribution(TemplateId t, std::vector<PredicateProb> dist);
  /// P(p|t) — empty when nothing was learned for `t`.
  std::span<const PredicateProb> Distribution(TemplateId t) const;
  /// argmax_p P(p|t); nullopt when the template has no distribution.
  std::optional<PredicateProb> Best(TemplateId t) const;

  /// Increments the observation count backing `t` (used to rank templates
  /// by frequency for the Table 13 precision evaluation).
  void AddFrequency(TemplateId t, uint64_t delta = 1);
  uint64_t Frequency(TemplateId t) const { return frequency_[t]; }

  /// Number of distinct predicates that are the argmax of some template.
  size_t NumDistinctBestPredicates() const;
  /// Number of distinct predicates appearing in any distribution.
  size_t NumDistinctPredicates() const;

  /// Template ids sorted by descending frequency.
  std::vector<TemplateId> TemplatesByFrequency() const;

 private:
  std::unordered_map<std::string, TemplateId, rdf::StringHash,
                     std::equal_to<>>
      index_;
  std::vector<std::string> texts_;
  std::vector<std::vector<PredicateProb>> distributions_;
  std::vector<uint64_t> frequency_;
};

}  // namespace kbqa::core

#endif  // KBQA_CORE_TEMPLATE_STORE_H_
