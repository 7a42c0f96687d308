#ifndef KBQA_CORE_EM_LEARNER_H_
#define KBQA_CORE_EM_LEARNER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/ev_extraction.h"
#include "core/template_store.h"
#include "corpus/qa_corpus.h"
#include "nlp/ner.h"
#include "nlp/pattern.h"
#include "rdf/expanded_predicate.h"
#include "taxonomy/taxonomy.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace kbqa::core {

/// Options for the predicate-inference EM (§4).
struct EmOptions {
  int max_iterations = 30;
  /// Stop when the largest per-parameter change drops below this.
  double tolerance = 1e-4;
  /// When false, EM stops after the θ⁰ initialization (Eq. 23) — the
  /// initialization-only ablation.
  bool run_em = true;
  /// Worker threads for observation building and the E-step; in
  /// KbqaSystem::Train, the size of the one pool every sharded phase runs
  /// on. The work is split into a *fixed* number of statically ordered
  /// shards merged in shard order, so the learned θ is bit-identical for
  /// any thread count (see DESIGN.md "Threading model & determinism").
  int num_threads = 1;
};

/// Diagnostics of a training run.
struct EmStats {
  size_t num_qa_pairs = 0;
  /// m — the number of (q, e, v) observations in X (Eq. 12).
  size_t num_observations = 0;
  int iterations = 0;
  /// L(θ) after each iteration (monotone non-decreasing — EM guarantee,
  /// asserted by the property tests).
  std::vector<double> log_likelihood;
  size_t num_templates = 0;
  size_t num_predicates = 0;
  /// Average number of candidate entities per question that produced at
  /// least one observation (feeds Table 6).
  double avg_entities_per_question = 0;
  double avg_templates_per_observation = 0;
  double avg_predicates_per_observation = 0;
};

/// A training corpus with every question tokenized and NER-scanned once.
/// Entry i of each vector belongs to pair i. Seed reduction, EV extraction
/// and the pattern index all read it, so Train scans each question once.
struct PreparedCorpus {
  /// Tokens and mention spans: the pattern index's input.
  std::vector<nlp::PatternQuestion> questions;
  /// The same mentions with their candidate entities.
  std::vector<std::vector<nlp::Mention>> mentions;
};

/// Prepares every question of `corpus` with `ner`, sharded on `pool`. When
/// `seeds` is non-null it receives every mentioned entity, sorted and
/// de-duplicated: the seeds of the §6.2 reduction.
PreparedCorpus PrepareCorpus(const corpus::QaCorpus& corpus,
                             const nlp::GazetteerNer& ner, ThreadPool* pool,
                             std::vector<rdf::TermId>* seeds);

/// Maximum-likelihood estimation of P(p|t) over the QA corpus via EM
/// (Algorithm 1). The latent variable z_i = (p, t) names the predicate and
/// template that generated observation x_i = (q_i, e_i, v_i); the E-step
/// weights are pruned exactly as the paper prescribes — only templates
/// reachable by conceptualizing e_i in q_i, only predicates connecting e_i
/// and v_i — making each iteration O(m).
class EmLearner {
 public:
  /// All references must outlive the learner.
  EmLearner(const rdf::KnowledgeBase* kb, const rdf::ExpandedKb* ekb,
            const taxonomy::Taxonomy* taxonomy, const EvExtractor* extractor,
            const EmOptions& options);

  /// Trains P(p|t) over `corpus`, filling `store` (templates + learned
  /// distributions) and `stats`. Prepares the corpus itself, on a pool of
  /// options.num_threads.
  [[nodiscard]] Status Train(const corpus::QaCorpus& corpus, TemplateStore* store,
               EmStats* stats) const;
  /// As above, from `prepared` = PrepareCorpus(corpus, ...) and on `pool`
  /// (options.num_threads is not read).
  [[nodiscard]] Status Train(const corpus::QaCorpus& corpus,
                             const PreparedCorpus& prepared, ThreadPool* pool,
                             TemplateStore* store, EmStats* stats) const;

 private:
  // One candidate assignment of the latent variable for an observation.
  struct ZPair {
    TemplateId t;
    rdf::PathId p;
    double f;  // f(x_i, z_i) = P(e|q) P(t|e,q) P(v|e,p) (P(q) constant)
  };
  struct Observation {
    std::vector<ZPair> z;
  };

  void BuildObservations(ThreadPool* pool, const corpus::QaCorpus& corpus,
                         const PreparedCorpus& prepared, TemplateStore* store,
                         std::vector<Observation>* observations,
                         EmStats* stats) const;

  const rdf::KnowledgeBase* kb_;
  const rdf::ExpandedKb* ekb_;
  const taxonomy::Taxonomy* taxonomy_;
  const EvExtractor* extractor_;
  EmOptions options_;
};

/// Builds the template string t(q, e, c): the question with the mention
/// span replaced by the category token. Exposed for reuse by the online
/// procedure, which must form template strings the same way.
std::string MakeTemplateText(const std::vector<std::string>& tokens,
                             size_t mention_begin, size_t mention_end,
                             const std::string& category);
/// The same template string written into `*out` (replacing its contents),
/// so a probe loop can reuse one buffer.
void MakeTemplateText(const std::vector<std::string>& tokens,
                      size_t mention_begin, size_t mention_end,
                      const std::string& category, std::string* out);

/// Conceptualization truncation: templates are derived only from the top
/// categories of an entity (bounded, as the paper's complexity argument
/// requires — "the number of concepts for e is upper bounded"). Training
/// and answering cut alike, or trained templates never match online.
inline constexpr size_t kMaxCategoriesPerEntity = 3;
inline constexpr double kMinCategoryProb = 0.02;

/// Cuts `categories` (most probable first, as Taxonomy::Conceptualize
/// returns them) to the first kMaxCategoriesPerEntity, drops those below
/// kMinCategoryProb, and rescales each kept probability to P(t|e,q): its
/// share of the kept mass. Empty when no category is kept.
void CutTemplateCategories(std::vector<taxonomy::ScoredCategory>* categories);

}  // namespace kbqa::core

#endif  // KBQA_CORE_EM_LEARNER_H_
