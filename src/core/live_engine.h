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
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace kbqa::core {

/// Serves questions over a live rdf::MutableKb (DESIGN.md §10).
///
/// Per-epoch state: the NER gazetteer is a base-derived index (entity
/// names do not consult the overlay on the hot path), so on every merge
/// publish the engine rebuilds {pinned snapshot, gazetteer, OnlineInference}
/// on the merge thread and swaps it in RCU-style; in-flight answers keep
/// the old state alive through their shared_ptr. Within an epoch, every
/// Answer pins the newest snapshot, so overlay mutations on already-known
/// entities (value adds/deletes, renames) are visible immediately —
/// only *linkability of new entity names* waits for the next merge.
///
/// Freshness contract: an answer computed after Apply(B) returns reflects
/// B (a cache entry is served only if no subject it read changed after the
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
  /// publish hook (replacing any previous hook) and removes the hook on
  /// destruction — one engine per MutableKb.
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
  std::vector<AnswerResult> AnswerAll(const std::vector<std::string>& questions,
                                      int num_threads) const;

  uint64_t epoch() const { return live_->epoch(); }
  const rdf::MutableKb& kb() const { return *live_; }

 private:
  /// One epoch's answering machinery. Heap-allocated and immutable after
  /// construction; the OnlineInference points at the sibling gazetteer, so
  /// the struct must never move.
  struct EngineState {
    EngineState(std::shared_ptr<const rdf::KbSnapshot> snapshot,
                const rdf::MutableKb* live, const taxonomy::Taxonomy* taxonomy,
                const TemplateStore* store, const rdf::PathDictionary* paths,
                const Options& options);

    /// Pins this epoch's publish snapshot, keeping its base alive for the
    /// gazetteer and for ids minted against it.
    std::shared_ptr<const rdf::KbSnapshot> pinned;
    nlp::GazetteerNer ner;
    OnlineInference online;
  };

  std::shared_ptr<const EngineState> State() const {
    MutexLock lock(state_mu_);
    return state_;
  }

  rdf::MutableKb* live_;
  const taxonomy::Taxonomy* taxonomy_;
  const TemplateStore* store_;
  const rdf::PathDictionary* paths_;
  Options options_;

  /// RCU swap point for the per-epoch state — a leaf lock held only for
  /// the shared_ptr copy (same rationale as MutableKb::snapshot_mu_:
  /// libstdc++'s atomic<shared_ptr> internals are opaque to TSan).
  mutable Mutex state_mu_;
  std::shared_ptr<const EngineState> state_ GUARDED_BY(state_mu_);
};

}  // namespace kbqa::core

#endif  // KBQA_CORE_LIVE_ENGINE_H_
