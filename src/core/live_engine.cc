#include "core/live_engine.h"

#include <utility>

#include "obs/obs.h"

namespace kbqa::core {

LiveKbqaEngine::EngineState::EngineState(
    std::shared_ptr<const rdf::KbSnapshot> snapshot,
    const rdf::MutableKb* live, const taxonomy::Taxonomy* taxonomy,
    const TemplateStore* store, const rdf::PathDictionary* paths,
    const Options& options)
    : pinned(std::move(snapshot)),
      ner(*pinned->base, options.alias_predicates),
      online(pinned->base.get(), taxonomy, &ner, store, paths, options.online,
             live) {}

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
  {
    MutexLock lock(state_mu_);
    state_ = std::make_shared<const EngineState>(live_->Pin(), live_,
                                                 taxonomy_, store_, paths_,
                                                 options_);
  }
  // Epoch publishes rebuild the base-derived state on the merge thread;
  // readers swap over via one locked shared_ptr copy, in-flight answers
  // finish on the state they loaded.
  live_->SetPublishHook(
      [this](const std::shared_ptr<const rdf::KbSnapshot>& snapshot) {
        auto next = std::make_shared<const EngineState>(
            snapshot, live_, taxonomy_, store_, paths_, options_);
        {
          MutexLock lock(state_mu_);
          state_ = std::move(next);
        }
        KBQA_COUNTER_ADD("kb.live.engine_rebuilds", 1);
      });
}

LiveKbqaEngine::~LiveKbqaEngine() { live_->SetPublishHook(nullptr); }

AnswerResult LiveKbqaEngine::Answer(const std::string& question) const {
  return State()->online.Answer(question);
}

AnswerResult LiveKbqaEngine::Answer(
    const std::string& question, const AnswerOptions& answer_options) const {
  return State()->online.Answer(question, answer_options);
}

AnswerResult LiveKbqaEngine::AnswerCached(
    const std::string& question, const AnswerOptions& answer_options) const {
  return State()->online.AnswerCached(question, answer_options);
}

std::vector<AnswerResult> LiveKbqaEngine::AnswerAll(
    const std::vector<std::string>& questions, int num_threads) const {
  // One state for the whole batch: each question still pins its own
  // snapshot inside OnlineInference, so mutations landing mid-batch are
  // picked up per question, not per batch.
  return State()->online.AnswerAll(questions, num_threads);
}

}  // namespace kbqa::core
