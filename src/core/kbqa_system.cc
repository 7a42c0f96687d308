#include "core/kbqa_system.h"

#include <unordered_set>

#include "nlp/tokenizer.h"
#include "obs/obs.h"
#include "util/strings.h"

namespace kbqa::core {

KbqaSystem::KbqaSystem(const corpus::World* world, const KbqaOptions& options)
    : world_(world), options_(options) {
  ner_ = std::make_unique<nlp::GazetteerNer>(world_->kb,
                                             world_->alias_predicates);
}

Status KbqaSystem::Train(const corpus::QaCorpus& corpus) {
  if (!world_->kb.frozen()) {
    return Status::FailedPrecondition("knowledge base must be frozen");
  }
  KBQA_TRACE_SPAN("system.train");

  // 1. Seed reduction (§6.2): only entities mentioned in corpus questions
  //    start the expansion BFS. Mentions are also reused for the pattern
  //    index, so tokenize once.
  std::vector<nlp::PatternQuestion> pattern_questions;
  pattern_questions.reserve(corpus.pairs.size());
  {
    KBQA_TRACE_SPAN("system.seed_reduction");
    std::unordered_set<rdf::TermId> seed_set;
    for (const corpus::QaPair& pair : corpus.pairs) {
      nlp::PatternQuestion pq;
      pq.tokens = nlp::TokenizeQuestion(pair.question);
      for (const nlp::Mention& m : ner_->FindMentions(pq.tokens)) {
        pq.mention_spans.emplace_back(m.begin, m.end);
        for (rdf::TermId e : m.entities) seed_set.insert(e);
      }
      pattern_questions.push_back(std::move(pq));
    }
    seeds_.assign(seed_set.begin(), seed_set.end());
    std::sort(seeds_.begin(), seeds_.end());  // Determinism.
  }

  // 2. Predicate expansion (§6). An unset expansion thread count inherits
  //    the EM worker pool size, so one option drives both phases.
  rdf::ExpansionOptions expansion = options_.expansion;
  if (expansion.num_threads == 0) expansion.num_threads = options_.em.num_threads;
  auto ekb = [&] {
    KBQA_TRACE_SPAN("system.expand_predicates");
    return rdf::ExpandedKb::Build(world_->kb, seeds_, world_->name_like,
                                  expansion);
  }();
  if (!ekb.ok()) return ekb.status();
  ekb_ = std::make_unique<rdf::ExpandedKb>(std::move(ekb).value());

  // 3. Entity–value extraction + EM predicate inference (§4).
  extractor_ = std::make_unique<EvExtractor>(
      &world_->kb, ekb_.get(), ner_.get(), &classifier_,
      &world_->predicate_class, &world_->name_like, options_.ev);
  EmLearner learner(&world_->kb, ekb_.get(), &world_->taxonomy,
                    extractor_.get(), options_.em);
  store_ = TemplateStore();
  em_stats_ = EmStats();
  KBQA_RETURN_IF_ERROR(learner.Train(corpus, &store_, &em_stats_));

  // 4. Online inference engine (§3.3) and variant solver, over the
  //    expansion's PathIds.
  loaded_paths_.reset();
  BuildAnswering();

  // 5. Complex-question machinery (§5).
  pattern_index_.emplace(nlp::PatternIndex::Build(pattern_questions));
  const OnlineInference* online = online_.get();
  decomposer_ = std::make_unique<ComplexDecomposer>(
      &*pattern_index_,
      [online](const std::vector<std::string>& tokens) {
        return online->IsPrimitiveBfq(tokens);
      },
      options_.decomposition);
  return Status::Ok();
}

void KbqaSystem::BuildAnswering() {
  online_ = std::make_unique<OnlineInference>(
      &world_->kb, &world_->taxonomy, ner_.get(), &store_, &model_paths(),
      options_.online);
  variants_ = std::make_unique<VariantSolver>(
      &world_->kb, &world_->taxonomy, ner_.get(), &store_, &model_paths(),
      VariantSolver::Options());
}

Status KbqaSystem::SaveModel(const std::string& path) const {
  if (!trained()) return Status::FailedPrecondition("train before SaveModel");
  return core::SaveModel(store_, model_paths(), world_->kb, path);
}

Status KbqaSystem::LoadModel(const std::string& path) {
  auto loaded = core::LoadModel(world_->kb, path);
  if (!loaded.ok()) return loaded.status();
  store_ = std::move(loaded.value().store);
  loaded_paths_ = std::make_unique<rdf::PathDictionary>(
      std::move(loaded.value().paths));
  BuildAnswering();
  // The decomposer (if any) belongs to a previous training run whose path
  // ids no longer match; drop it. AnswerComplex then answers directly.
  decomposer_.reset();
  pattern_index_.reset();
  return Status::Ok();
}

AnswerResult KbqaSystem::Answer(const std::string& question) const {
  if (online_ == nullptr) return AnswerResult{};
  return online_->Answer(question);
}

AnswerResult KbqaSystem::Answer(const std::string& question,
                                const AnswerOptions& answer_options) const {
  if (online_ == nullptr) return AnswerResult{};
  return online_->Answer(question, answer_options);
}

std::unique_ptr<LiveKbqaEngine> KbqaSystem::MakeLiveEngine(
    rdf::MutableKb* live) const {
  if (!trained()) return nullptr;
  LiveKbqaEngine::Options options;
  options.alias_predicates = world_->alias_predicates;
  options.online = options_.online;
  return std::make_unique<LiveKbqaEngine>(live, &world_->taxonomy, &store_,
                                          &model_paths(), options);
}

AnswerResult KbqaSystem::AnswerVariant(const std::string& question) const {
  if (variants_ == nullptr) return AnswerResult{};
  return variants_->Answer(question);
}

ComplexAnswer KbqaSystem::AnswerComplex(const std::string& question) const {
  ComplexAnswer out;
  if (online_ == nullptr) return out;
  std::vector<std::string> tokens = nlp::TokenizeQuestion(question);

  Decomposition decomposition;
  if (decomposer_ != nullptr) decomposition = decomposer_->Decompose(tokens);
  if (decomposition.sequence.empty()) {
    // No decomposer (a restored model) or no valid decomposition: fall
    // back to direct BFQ answering.
    out.answer = online_->AnswerTokens(tokens);
    out.sequence = {nlp::JoinTokens(tokens)};
    out.decomposition_probability = out.answer.answered ? 1.0 : 0.0;
    return out;
  }
  out.sequence = decomposition.sequence;
  out.decomposition_probability = decomposition.probability;

  // Answer the chain: each question's $e slot takes the previous answer.
  AnswerResult last;
  for (size_t i = 0; i < decomposition.sequence.size(); ++i) {
    std::string materialized = decomposition.sequence[i];
    if (i > 0) {
      if (!last.answered) return out;  // Chain broke; report unanswered.
      materialized = ReplaceAll(materialized, "$e", last.value);
    }
    last = online_->Answer(materialized);
  }
  out.answer = std::move(last);
  return out;
}

}  // namespace kbqa::core
