#ifndef KBQA_CORE_LIVE_ENGINE_H_
#define KBQA_CORE_LIVE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/online.h"
#include "core/template_store.h"
#include "nlp/ner.h"
#include "rdf/expanded_predicate.h"
#include "rdf/mutable_kb.h"
#include "taxonomy/taxonomy.h"

namespace kbqa::core {

/// Serves questions over a live rdf::MutableKb (DESIGN.md §10).
///
/// Per-epoch state: an OnlineInference answers over one base, and the NER
/// gazetteer is a base-derived index (entity names do not consult the
/// overlay on the hot path), so the engine is `live`'s state factory: for
/// every merged base the merge thread builds {gazetteer, OnlineInference}
/// over that base before publishing it, and the snapshot carries them
/// (KbSnapshot::state). A read pins one snapshot and answers with that
/// snapshot's state against that same snapshot — one pin, and never a new
/// base paired with an old epoch's engine, whose caches therefore never
/// need to tell epochs apart; in-flight answers keep their state alive
/// through their snapshot. Every Answer pins the newest snapshot through
/// the calling thread's local pin (MutableKb::PinLocal), which re-pins
/// only after a publish, so overlay mutations on already-known entities
/// (value adds/deletes, renames) are visible immediately — only
/// *linkability of new entity names* waits for the next merge. Each
/// thread that reads keeps its last snapshot, and with it that epoch's
/// state, alive until its next read or its exit.
///
/// Freshness contract: an answer computed after Apply(B) returns reflects
/// B (the read's publish-count load sees B's publish, so it re-pins; and
/// a cache entry is served only if no subject it read changed after the
/// version it was last validated at, so no pre-B entry can be served).
/// Answers already in flight may still reflect the pre-B world — they
/// pinned their snapshot at start.
///
/// Training artifacts (template store, path dictionary, taxonomy) are
/// shared across epochs unchanged: rdf::RebuildKb keeps every base
/// TermId/PredId stable, so learned distributions remain valid without
/// retraining.
class LiveKbqaEngine {
 public:
  struct Options {
    /// Alias predicates handed to each epoch's gazetteer rebuild (same
    /// list KbqaSystem used for the trained NER).
    std::vector<rdf::PredId> alias_predicates;
    OnlineInference::Options online;
  };

  /// All pointees must outlive the engine. Installs itself as `live`'s
  /// state factory (replacing any previous one — one engine per
  /// MutableKb), which builds the current base's state before this
  /// returns. Destruction clears the factory, which waits out a merge's
  /// call in flight; states still pinned elsewhere read nothing of the
  /// engine.
  LiveKbqaEngine(rdf::MutableKb* live, const taxonomy::Taxonomy* taxonomy,
                 const TemplateStore* store, const rdf::PathDictionary* paths,
                 const Options& options);
  ~LiveKbqaEngine();

  LiveKbqaEngine(const LiveKbqaEngine&) = delete;
  LiveKbqaEngine& operator=(const LiveKbqaEngine&) = delete;

  AnswerResult Answer(const std::string& question) const;
  AnswerResult Answer(const std::string& question,
                      const AnswerOptions& answer_options) const;
  AnswerResult AnswerCached(const std::string& question,
                            const AnswerOptions& answer_options) const;

  uint64_t epoch() const { return live_->epoch(); }
  const rdf::MutableKb& kb() const { return *live_; }

 private:
  /// One epoch's answering machinery, the state `live` carries in every
  /// snapshot of `base`. Heap-allocated and immutable after construction;
  /// the OnlineInference points at the sibling gazetteer, so the struct
  /// must never move. It points at nothing the engine owns, so it may
  /// outlive the engine in a snapshot someone still pins.
  struct EngineState {
    EngineState(std::shared_ptr<const rdf::KnowledgeBase> kb,
                const taxonomy::Taxonomy* taxonomy, const TemplateStore* store,
                const rdf::PathDictionary* paths, const Options& options);

    /// Keeps the base alive for the gazetteer and for ids minted against
    /// it.
    std::shared_ptr<const rdf::KnowledgeBase> base;
    nlp::GazetteerNer ner;
    OnlineInference online;
  };

  /// The state this engine's factory attached to `snapshot`.
  static const EngineState& StateOf(const rdf::KbSnapshot& snapshot) {
    return *static_cast<const EngineState*>(snapshot.state.get());
  }

  rdf::MutableKb* live_;
  const taxonomy::Taxonomy* taxonomy_;
  const TemplateStore* store_;
  const rdf::PathDictionary* paths_;
  Options options_;
};

}  // namespace kbqa::core

#endif  // KBQA_CORE_LIVE_ENGINE_H_
