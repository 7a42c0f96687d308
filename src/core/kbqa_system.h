#ifndef KBQA_CORE_KBQA_SYSTEM_H_
#define KBQA_CORE_KBQA_SYSTEM_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/decomposer.h"
#include "core/em_learner.h"
#include "core/live_engine.h"
#include "core/model_io.h"
#include "core/ev_extraction.h"
#include "core/online.h"
#include "core/qa_interface.h"
#include "core/variants.h"
#include "core/template_store.h"
#include "corpus/qa_corpus.h"
#include "corpus/world.h"
#include "nlp/ner.h"
#include "nlp/pattern.h"
#include "nlp/question_classifier.h"
#include "obs/metrics.h"
#include "rdf/expanded_predicate.h"
#include "util/status.h"

namespace kbqa::core {

/// End-to-end configuration of a KBQA instance.
struct KbqaOptions {
  rdf::ExpansionOptions expansion;
  EmOptions em;
  OnlineInference::Options online;
  EvExtractor::Options ev;
  ComplexDecomposer::Options decomposition;
};

/// The result of answering a (possibly complex) question: the final answer
/// plus the decomposed question sequence that produced it.
struct ComplexAnswer {
  AnswerResult answer;
  std::vector<std::string> sequence;
  double decomposition_probability = 0;
};

/// The KBQA system facade — Figure 3 of the paper.
///
/// Offline (Train): seed-reduced predicate expansion over the KB (§6),
/// joint entity–value extraction from the QA corpus (§4.1), template
/// extraction via conceptualization (§2), EM estimation of P(p|t) (§4.2),
/// and the corpus pattern index for decomposition (§5.2).
///
/// Online (Answer / AnswerComplex): probabilistic inference (§3.3),
/// preceded by the decomposition DP for complex questions (§5.3).
///
/// The world (KB + taxonomy + predicate labels) must outlive the system.
class KbqaSystem : public QaSystemInterface {
 public:
  explicit KbqaSystem(const corpus::World* world,
                      const KbqaOptions& options = KbqaOptions());

  /// Runs the offline procedure over the QA corpus.
  [[nodiscard]] Status Train(const corpus::QaCorpus& corpus);
  bool trained() const { return online_ != nullptr; }

  /// Persists the trained model (templates + P(p|t)); requires trained().
  [[nodiscard]] Status SaveModel(const std::string& path) const;
  /// Restores a previously saved model, enabling BFQ answering without
  /// retraining. Complex-question support (decomposition) still requires
  /// Train, which rebuilds the corpus pattern index.
  [[nodiscard]] Status LoadModel(const std::string& path);

  // ---- QaSystemInterface ----
  std::string name() const override { return "KBQA"; }
  /// Answers a binary factoid question (no decomposition).
  AnswerResult Answer(const std::string& question) const override;

  /// As Answer, with per-request controls — e.g. a deadline after which
  /// the pipeline degrades to a partial/empty answer carrying a
  /// kDeadlineExceeded status instead of stalling a serving thread.
  AnswerResult Answer(const std::string& question,
                      const AnswerOptions& answer_options) const;

  /// Full pipeline: decompose into a BFQ chain, answer sequentially,
  /// substituting each answer into the next question's $e slot (§5).
  ComplexAnswer AnswerComplex(const std::string& question) const;

  /// Wires a live-mutation serving engine (DESIGN.md §10) over `live`
  /// from this system's trained artifacts: the taxonomy, template store,
  /// path dictionary, alias predicates, and online options the frozen
  /// engine uses. `live` is typically seeded with a copy of the
  /// training world's KB — rdf::RebuildKb keeps base ids stable across
  /// merges, so the learned distributions stay valid without retraining.
  /// Requires trained() (returns null otherwise); `live` and this system
  /// must outlive the returned engine.
  std::unique_ptr<LiveKbqaEngine> MakeLiveEngine(rdf::MutableKb* live) const;

  /// Extension (§1's "variants"): ranking / comparison / listing questions
  /// answered on top of the learned templates. Returns answered == false
  /// when the question matches no variant frame.
  AnswerResult AnswerVariant(const std::string& question) const;

  // ---- Introspection (benchmarks, tests, ablations) ----
  const TemplateStore& template_store() const { return store_; }
  const rdf::ExpandedKb& expanded_kb() const { return *ekb_; }
  const EmStats& em_stats() const { return em_stats_; }
  const nlp::GazetteerNer& ner() const { return *ner_; }
  const nlp::PatternIndex* pattern_index() const {
    return pattern_index_ ? &*pattern_index_ : nullptr;
  }
  const EvExtractor& ev_extractor() const { return *extractor_; }
  const OnlineInference& online() const { return *online_; }
  const KbqaOptions& options() const { return options_; }

  /// Entities seeding the predicate expansion (corpus-mentioned entities —
  /// the "reduction on s" of §6.2).
  const std::vector<rdf::TermId>& expansion_seeds() const { return seeds_; }

  /// Merged point-in-time view of the process-wide observability registry
  /// (stage latencies, cache hit rates, EM iteration stats, pool metrics).
  /// Static because the registry is process-wide: every system, pool, and
  /// engine in the process records into the same one.
  static obs::MetricsSnapshot MetricsSnapshot() {
    return obs::MetricsRegistry::Global().Snapshot();
  }

 private:
  /// The PathIds the template store speaks: a restored model's dictionary,
  /// else the expansion's. Requires trained() or a Train in progress.
  const rdf::PathDictionary& model_paths() const {
    return loaded_paths_ != nullptr ? *loaded_paths_ : ekb_->paths();
  }
  /// Builds the online engine and the variant solver over the current
  /// template store and model_paths(); Train and LoadModel both end here.
  void BuildAnswering();

  const corpus::World* world_;
  KbqaOptions options_;

  nlp::QuestionClassifier classifier_;
  std::unique_ptr<nlp::GazetteerNer> ner_;
  std::unique_ptr<rdf::ExpandedKb> ekb_;
  std::unique_ptr<EvExtractor> extractor_;
  TemplateStore store_;
  EmStats em_stats_;
  std::unique_ptr<OnlineInference> online_;
  std::optional<nlp::PatternIndex> pattern_index_;
  std::unique_ptr<ComplexDecomposer> decomposer_;
  std::vector<rdf::TermId> seeds_;
  /// Path dictionary backing a model restored via LoadModel (templates
  /// trained in-process use the expansion's dictionary instead).
  std::unique_ptr<rdf::PathDictionary> loaded_paths_;
  std::unique_ptr<VariantSolver> variants_;
};

}  // namespace kbqa::core

#endif  // KBQA_CORE_KBQA_SYSTEM_H_
