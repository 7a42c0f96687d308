#ifndef KBQA_CORE_ONLINE_H_
#define KBQA_CORE_ONLINE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/em_learner.h"
#include "core/template_store.h"
#include "nlp/ner.h"
#include "obs/metrics.h"
#include "obs/wide_event.h"
#include "rdf/expanded_predicate.h"
#include "rdf/knowledge_base.h"
#include "rdf/mutable_kb.h"
#include "taxonomy/taxonomy.h"
#include "util/lru_cache.h"
#include "util/status.h"

namespace kbqa::core {

/// Accounting for the per-instance V(e, p+) memo cache. `hits`/`misses`
/// count CachedObjects lookups with the cache enabled; `entries` is the
/// number of currently resident (entity, path) pairs, `bytes` their summed
/// byte charges (key + value-vector payload), `evictions` the entries
/// dropped so far to stay under `budget_bytes` (0 = unbounded, never
/// evicts). With the cache disabled every field stays zero.
struct ValueCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t entries = 0;
  uint64_t bytes = 0;
  uint64_t evictions = 0;
  uint64_t budget_bytes = 0;
};

/// Per-request controls for one Answer call. Default-constructed options
/// reproduce the unconstrained behavior exactly.
struct AnswerOptions {
  /// When set, the answer pipeline checks the deadline at stage boundaries
  /// (after NER, per template candidate, per predicate lookup) and stops
  /// enumerating once it has passed: the question degrades to a partial or
  /// empty answer whose `status` is kDeadlineExceeded instead of stalling
  /// a serving thread. Unset means no latency bound (no clock reads).
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Request-scoped telemetry context (DESIGN.md §8), owned by the serving
  /// layer and stamped by the pipeline: disjoint per-stage durations via
  /// the chained stage clock, plus per-tier cache hit/miss counts. The
  /// pointed-to context must outlive the call; null (the default) means
  /// "not sampled" and costs one branch per stage boundary.
  obs::RequestContext* request_context = nullptr;
};

/// One scored value in the online posterior.
struct AnswerCandidate {
  rdf::TermId value = rdf::kInvalidTerm;
  double score = 0;
  /// Strongest (entity, template, predicate) support for this value.
  TemplateId best_template = kInvalidTemplate;
  rdf::PathId best_path = rdf::kInvalidPath;
  rdf::TermId best_entity = rdf::kInvalidTerm;
};

/// The outcome of answering one question.
struct AnswerResult {
  /// True when a predicate was found — the paper's #pro counts these.
  bool answered = false;
  /// Ok, or kDeadlineExceeded when AnswerOptions::deadline cut candidate
  /// enumeration short (the ranked posterior then covers only the
  /// candidates scored before the deadline — possibly none).
  Status status;
  /// Surface string of the winning value.
  std::string value;
  double score = 0;
  /// Human-readable winning predicate path (e.g. "marriage -> person ->
  /// name").
  std::string predicate;
  /// The structured query the question was mapped to (the paper's core
  /// framing: natural language -> structured query over the KB). Empty
  /// when unanswered. Executable via rdf::ParseQuery + rdf::ExecuteQuery.
  std::string sparql;
  /// Full ranked posterior (for P@1-style metrics and debugging).
  std::vector<AnswerCandidate> ranked;
  /// The complete answer set of the winning (entity, predicate) pair —
  /// multi-valued facts ("who is in coldplay?") return every member here
  /// while `value` carries the posterior argmax.
  std::vector<std::string> values;

  // Per-stage candidate counts (Table 6: the uncertainty at each random
  // variable of the probabilistic pipeline).
  size_t num_entities = 0;      // P(e|q) support
  size_t num_templates = 0;     // P(t|e,q) support, summed over entities
  size_t num_predicates = 0;    // P(p|t) support, summed over templates
  size_t num_values = 0;        // P(v|e,p) support, summed over predicates
  /// Predicates (among num_predicates) that produced at least one value on
  /// the entity — the denominator for the Table 6 "values per
  /// entity-predicate pair" average.
  size_t num_grounded_predicates = 0;
};

/// The online procedure (§3.3): computes
///   P(v|q) = Σ_{e,t,p} P(e|q) P(t|e,q) P(p|t) P(v|e,p)
/// and returns argmax_v. Complexity O(|P|) — entity/category/value
/// fan-outs are bounded constants; only the predicate enumeration scales.
///
/// One engine answers over one base KB, and reads it only through an
/// rdf::KbSnapshot: its own (the base with an empty overlay, which never
/// changes) unless the caller passes a snapshot of that base which it
/// pinned from a MutableKb (DESIGN.md §10).
///
/// Thread safety: all answering methods are const and safe to call
/// concurrently. The only mutable state is the two memo caches (V(e, p+)
/// values and whole answers), per-instance memory-budgeted sharded LRUs
/// (see util/lru_cache.h) — lookups validate and copy values out under a
/// per-shard mutex, so evictions never invalidate anything a caller holds.
class OnlineInference {
 public:
  struct Options {
    /// The conceptualization cut (CutTemplateCategories), which training
    /// shares; not settable.
    static constexpr size_t max_categories_per_entity = kMaxCategoriesPerEntity;
    static constexpr double min_category_prob = kMinCategoryProb;
    /// Predicates with P(p|t) below this are skipped (noise floor).
    double min_predicate_prob = 1e-3;
    /// Minimum posterior score to consider the question answered.
    double min_answer_score = 1e-6;
    /// Memoize (entity, path) -> values lookups across questions. Results
    /// are identical either way (each hit is checked against the snapshot
    /// the request reads; DESIGN.md §10); disabling exists for regression
    /// tests and cache-benefit measurements.
    bool enable_value_cache = true;
    /// Upper bound on the value cache's byte accounting (key + payload per
    /// entry). 0 = unbounded (the pre-budget behavior, for benchmarks and
    /// short-lived processes); any other value keeps a long-running
    /// serving process's cache footprint bounded via LRU eviction.
    uint64_t value_cache_budget_bytes = 0;
    /// Memoize whole-question AnswerResults across AnswerCached calls:
    /// repeat questions (head-heavy serving traffic) skip the pipeline
    /// entirely. Off by default — single-shot Answer callers and benchmarks
    /// measuring the pipeline want every question computed.
    bool enable_answer_cache = false;
    /// Byte budget for the answer memo cache (question + result payload per
    /// entry), same semantics as value_cache_budget_bytes: 0 = unbounded,
    /// anything else bounds the footprint via per-shard LRU eviction.
    uint64_t answer_cache_budget_bytes = 0;
  };

  /// All pointees must outlive the inference engine; `kb` is the base it
  /// answers over. V(e, p+) is computed online (§6.1): a value-cache miss
  /// walks p+ from e over the snapshot the request reads.
  ///
  /// Entries computed against a caller's snapshot carry the sorted
  /// subjects their computation read, and a hit there is served only if
  /// none of those subjects changed after the version the entry was last
  /// validated at, so a post-mutation query never sees a pre-mutation
  /// entry. Entries computed against the engine's own snapshot carry none
  /// and are served to a caller's snapshot only while its overlay is
  /// empty.
  OnlineInference(const rdf::KnowledgeBase* kb,
                  const taxonomy::Taxonomy* taxonomy,
                  const nlp::GazetteerNer* ner, const TemplateStore* store,
                  const rdf::PathDictionary* paths, const Options& options);

  /// Answers a binary factoid question.
  AnswerResult Answer(const std::string& question) const;
  AnswerResult Answer(const std::string& question,
                      const AnswerOptions& answer_options) const;
  /// Answer against `snapshot`, a snapshot of this engine's base that the
  /// caller pinned and keeps alive for the call (LiveKbqaEngine pins once
  /// per read). A snapshot of any other base answers nothing, with status
  /// kFailedPrecondition.
  AnswerResult Answer(const std::string& question,
                      const AnswerOptions& answer_options,
                      const rdf::KbSnapshot& snapshot) const;

  /// Token-level variant (reused by the decomposer on question spans).
  AnswerResult AnswerTokens(const std::vector<std::string>& tokens) const;
  AnswerResult AnswerTokens(const std::vector<std::string>& tokens,
                            const AnswerOptions& answer_options) const;

  /// One question through the whole-question memo cache (when enabled) —
  /// the per-request unit the serving workers route through. The cache
  /// key is NormalizeText(question), so casing / whitespace / punctuation
  /// paraphrases of one canonical question share an entry (they tokenize
  /// identically, hence answer identically). The question is normalized
  /// once: on a miss its tokens are the pieces of the key's canonical
  /// text. Only complete results are memoized: a deadline-clipped partial
  /// answer (status kDeadlineExceeded) is returned but never cached.
  AnswerResult AnswerCached(const std::string& question,
                            const AnswerOptions& answer_options) const;
  /// AnswerCached against a caller-pinned `snapshot` (see Answer above).
  AnswerResult AnswerCached(const std::string& question,
                            const AnswerOptions& answer_options,
                            const rdf::KbSnapshot& snapshot) const;

  /// Cheap answerability probe: true when some entity+template resolves to
  /// a learned predicate with at least one value — the δ(q) primitive-BFQ
  /// indicator of the decomposition DP (§5.3).
  bool IsPrimitiveBfq(const std::vector<std::string>& tokens) const;

  /// Hit/miss/size accounting for the value memo cache. The counters are
  /// per-instance (sharded relaxed atomics plus the cache's own shard
  /// books, not the global registry) so two engines — e.g. a cached and an
  /// uncached one in a regression test — never contaminate each other's
  /// numbers.
  ValueCacheStats value_cache_stats() const;

  /// Same accounting for the whole-question answer memo cache used by
  /// AnswerCached (all-zero unless Options::enable_answer_cache).
  ValueCacheStats answer_cache_stats() const;

 private:
  /// Per-request cache accounting, accumulated on the stack during one
  /// Answer/probe and flushed into the sharded counters once at the end —
  /// the per-lookup cost is a plain increment.
  struct CacheTally {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    /// When the answer will be memoized against a caller's snapshot:
    /// collects every subject whose out-edges the answer read — each value
    /// lookup's walk, whether walked now or served from the value cache,
    /// plus every non-literal value materialized through EntityName. Null
    /// otherwise.
    std::vector<rdf::TermId>* reads = nullptr;
  };

  /// What an entry computed against a caller's snapshot is re-validated
  /// by: the snapshot version it was last validated at and the sorted
  /// subjects whose out-edges computing it read.
  struct ReadSet {
    uint64_t version = 0;
    std::vector<rdf::TermId> subjects;
  };

  /// A memoized result plus, when it was computed against a caller's
  /// snapshot, its read set. Entries computed against the engine's own
  /// snapshot leave `reads` null, so they cost what a bare result costs.
  template <typename T>
  struct Validated {
    T value;
    std::unique_ptr<ReadSet> reads;
  };

  /// The hit rule, run under the cache shard lock. An entry without a read
  /// set is current for a reader whose overlay is empty: that reader sees
  /// exactly the base the entry was computed over. An entry with one is
  /// current for a reader at `snapshot` if it was last validated at the
  /// reader's version, or at an earlier one and no subject it read changed
  /// since. A passing entry is re-stamped forward to the reader's version,
  /// so later hits there skip the subject scan; an entry stamped after the
  /// reader's version is a miss.
  template <typename T>
  static bool Revalidate(const rdf::KbSnapshot& snapshot, Validated<T>* entry);

  /// V(e, p+) through the memo cache. The result always lands in
  /// `*scratch` — copied out of the cache on a hit, computed by the path
  /// walk on a miss (then inserted, evicting LRU entries if over budget) —
  /// and the returned reference points there, valid until the next call
  /// with the same `scratch`. Copy-out is what makes eviction safe: no
  /// caller ever holds a reference into the cache. Hits pass Revalidate,
  /// so entries never serve a world their walk did not see. The walk's
  /// read set lands in `tally->reads` when that is set; an entry without a
  /// read set cannot supply one, so it is a miss there. `ctx` (nullable)
  /// is charged the miss walk as its value_lookup stage.
  const std::vector<rdf::TermId>& CachedObjects(
      const rdf::KbSnapshot& snapshot, rdf::TermId entity, rdf::PathId path,
      std::vector<rdf::TermId>* scratch, CacheTally* tally,
      obs::RequestContext* ctx) const;

  /// AnswerCached against `snapshot`, which serves both the cache lookup
  /// and the computation, so an entry's version always matches the world
  /// that computed it.
  AnswerResult AnswerCachedAt(const std::string& question,
                              const AnswerOptions& answer_options,
                              const rdf::KbSnapshot& snapshot) const;

  /// AnswerTokens against `snapshot` — the body behind every public
  /// answering entry point. `reads` (nullable) receives the answer's read
  /// set, unsorted.
  AnswerResult AnswerTokensAt(const std::vector<std::string>& tokens,
                              const AnswerOptions& answer_options,
                              const rdf::KbSnapshot& snapshot,
                              std::vector<rdf::TermId>* reads) const;

  AnswerResult AnswerTokensImpl(const std::vector<std::string>& tokens,
                                const AnswerOptions& answer_options,
                                CacheTally* tally,
                                const rdf::KbSnapshot& snapshot) const;

  /// Folds one request's tally into the per-instance cache stats and, when
  /// instrumentation is on, mirrors it plus the per-answer stage counts
  /// into the global registry. `result` is null for IsPrimitiveBfq probes.
  void FlushAnswerStats(const AnswerResult* result,
                        const CacheTally& tally) const;

  /// Whether `snapshot` is the engine's own, whose entries carry no read
  /// set.
  bool IsOwn(const rdf::KbSnapshot& snapshot) const {
    return &snapshot == &snapshot_;
  }

  const taxonomy::Taxonomy* taxonomy_;
  const nlp::GazetteerNer* ner_;
  const TemplateStore* store_;
  const rdf::PathDictionary* paths_;
  Options options_;
  /// The base with an empty overlay at epoch 0, version 0, read by every
  /// call that passes no snapshot. It does not own the base, and calls
  /// read it by reference, so they take no pin and touch no reference
  /// count.
  const rdf::KbSnapshot snapshot_;

  /// Keyed by entity « 32 | path: an engine reads one base, so no key
  /// needs an epoch.
  mutable ShardedLruCache<uint64_t, Validated<std::vector<rdf::TermId>>>
      value_cache_;
  mutable obs::ShardedCounter cache_hits_;
  mutable obs::ShardedCounter cache_misses_;

  /// Whole-question memo for AnswerCached: normalized question
  /// text (NormalizeText) → full AnswerResult, so surface paraphrases that
  /// tokenize identically hit one entry. Internally synchronized (sharded
  /// LRU) like the value cache; results are copied out, so eviction never
  /// invalidates callers.
  mutable ShardedLruCache<std::string, Validated<AnswerResult>> answer_cache_;
  mutable obs::ShardedCounter answer_cache_hits_;
  mutable obs::ShardedCounter answer_cache_misses_;
};

}  // namespace kbqa::core

#endif  // KBQA_CORE_ONLINE_H_
