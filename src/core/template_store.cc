#include "core/template_store.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace kbqa::core {

TemplateId TemplateStore::Intern(std::string_view template_text) {
  auto it = index_.find(template_text);
  if (it != index_.end()) return it->second;
  TemplateId id = static_cast<TemplateId>(texts_.size());
  texts_.emplace_back(template_text);
  distributions_.emplace_back();
  frequency_.push_back(0);
  index_.emplace(texts_.back(), id);
  return id;
}

std::optional<TemplateId> TemplateStore::Lookup(
    std::string_view template_text) const {
  auto it = index_.find(template_text);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

void TemplateStore::SetDistribution(TemplateId t,
                                    std::vector<PredicateProb> dist) {
  assert(t < distributions_.size());
  std::sort(dist.begin(), dist.end(),
            [](const PredicateProb& a, const PredicateProb& b) {
              if (a.probability != b.probability) {
                return a.probability > b.probability;
              }
              return a.path < b.path;
            });
  distributions_[t] = std::move(dist);
}

std::span<const PredicateProb> TemplateStore::Distribution(
    TemplateId t) const {
  if (t >= distributions_.size()) return {};
  return distributions_[t];
}

std::optional<PredicateProb> TemplateStore::Best(TemplateId t) const {
  auto dist = Distribution(t);
  if (dist.empty()) return std::nullopt;
  return dist.front();
}

void TemplateStore::AddFrequency(TemplateId t, uint64_t delta) {
  assert(t < frequency_.size());
  frequency_[t] += delta;
}

size_t TemplateStore::NumDistinctBestPredicates() const {
  std::unordered_set<rdf::PathId> preds;
  for (TemplateId t = 0; t < texts_.size(); ++t) {
    auto best = Best(t);
    if (best) preds.insert(best->path);
  }
  return preds.size();
}

size_t TemplateStore::NumDistinctPredicates() const {
  std::unordered_set<rdf::PathId> preds;
  for (const auto& dist : distributions_) {
    for (const auto& entry : dist) preds.insert(entry.path);
  }
  return preds.size();
}

std::vector<TemplateId> TemplateStore::TemplatesByFrequency() const {
  std::vector<TemplateId> ids(texts_.size());
  for (TemplateId t = 0; t < texts_.size(); ++t) ids[t] = t;
  std::sort(ids.begin(), ids.end(), [this](TemplateId a, TemplateId b) {
    if (frequency_[a] != frequency_[b]) return frequency_[a] > frequency_[b];
    return a < b;
  });
  return ids;
}

}  // namespace kbqa::core
