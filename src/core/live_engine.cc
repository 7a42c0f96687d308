#include "core/live_engine.h"

#include <utility>

#include "obs/obs.h"

namespace kbqa::core {

LiveKbqaEngine::EngineState::EngineState(
    std::shared_ptr<const rdf::KnowledgeBase> kb,
    const taxonomy::Taxonomy* taxonomy, const TemplateStore* store,
    const rdf::PathDictionary* paths, const Options& options)
    : base(std::move(kb)),
      ner(*base, options.alias_predicates),
      online(base.get(), taxonomy, &ner, store, paths, options.online) {}

LiveKbqaEngine::LiveKbqaEngine(rdf::MutableKb* live,
                               const taxonomy::Taxonomy* taxonomy,
                               const TemplateStore* store,
                               const rdf::PathDictionary* paths,
                               const Options& options)
    : live_(live),
      taxonomy_(taxonomy),
      store_(store),
      paths_(paths),
      options_(options) {
  live_->SetStateFactory(
      [this](const std::shared_ptr<const rdf::KnowledgeBase>& base) {
        KBQA_COUNTER_ADD("kb.live.engine_rebuilds", 1);
        return std::make_shared<const EngineState>(base, taxonomy_, store_,
                                                   paths_, options_);
      });
}

LiveKbqaEngine::~LiveKbqaEngine() { live_->SetStateFactory(nullptr); }

AnswerResult LiveKbqaEngine::Answer(const std::string& question) const {
  return Answer(question, AnswerOptions{});
}

AnswerResult LiveKbqaEngine::Answer(
    const std::string& question, const AnswerOptions& answer_options) const {
  const rdf::KbSnapshot& snapshot = live_->PinLocal();
  return StateOf(snapshot).online.Answer(question, answer_options, snapshot);
}

AnswerResult LiveKbqaEngine::AnswerCached(
    const std::string& question, const AnswerOptions& answer_options) const {
  const rdf::KbSnapshot& snapshot = live_->PinLocal();
  return StateOf(snapshot).online.AnswerCached(question, answer_options,
                                               snapshot);
}

}  // namespace kbqa::core
