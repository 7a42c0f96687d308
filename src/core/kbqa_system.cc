#include "core/kbqa_system.h"

#include "nlp/tokenizer.h"
#include "obs/obs.h"
#include "util/strings.h"
#include "util/thread_pool.h"

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
  // One pool runs every sharded phase below.
  ThreadPool pool(options_.em.num_threads);

  // 1. Seed reduction (§6.2): only entities mentioned in corpus questions
  //    start the expansion BFS. Each question is tokenized and NER-scanned
  //    here once; EV extraction and the pattern index read the result.
  std::vector<rdf::TermId> seeds;
  PreparedCorpus prepared;
  {
    KBQA_TRACE_SPAN("system.seed_reduction");
    prepared = PrepareCorpus(corpus, *ner_, &pool, &seeds);
  }

  // 2. Predicate expansion (§6), on the same pool.
  auto built = [&] {
    KBQA_TRACE_SPAN("system.expand_predicates");
    return rdf::ExpandedKb::Build(world_->kb, seeds, world_->name_like,
                                  options_.expansion, &pool);
  }();
  if (!built.ok()) return built.status();
  auto ekb = std::make_unique<rdf::ExpandedKb>(std::move(built).value());

  // 3. Entity–value extraction + EM predicate inference (§4).
  std::unique_ptr<EvExtractor> extractor;
  {
    KBQA_TRACE_SPAN("system.build_extractor");
    extractor = std::make_unique<EvExtractor>(
        &world_->kb, ekb.get(), ner_.get(), &classifier_,
        &world_->predicate_class, &world_->name_like, options_.ev);
  }
  EmLearner learner(&world_->kb, ekb.get(), &world_->taxonomy,
                    extractor.get(), options_.em);
  TemplateStore store;
  EmStats em_stats;
  KBQA_RETURN_IF_ERROR(
      learner.Train(corpus, prepared, &pool, &store, &em_stats));

  // 4. The corpus pattern index for complex questions (§5).
  std::optional<nlp::PatternIndex> pattern_index;
  {
    KBQA_TRACE_SPAN("system.pattern_index");
    pattern_index.emplace(nlp::PatternIndex::Build(
        prepared.questions, nlp::PatternIndex::Options(), &pool));
  }

  // Every step succeeded: replace the previous model. A failed Train
  // returns above and leaves it answering.
  seeds_ = std::move(seeds);
  ekb_ = std::move(ekb);
  extractor_ = std::move(extractor);
  store_ = std::move(store);
  em_stats_ = std::move(em_stats);
  pattern_index_ = std::move(pattern_index);

  // 5. Online inference engine (§3.3) and variant solver, over the
  //    expansion's PathIds, then the decomposer over both.
  loaded_paths_.reset();
  BuildAnswering();
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
      &world_->kb, &world_->taxonomy, ner_.get(), &store_, &model_paths());
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
