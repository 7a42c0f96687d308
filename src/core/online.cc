#include "core/online.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "core/em_learner.h"
#include "nlp/tokenizer.h"
#include "obs/obs.h"
#include "rdf/query.h"

namespace kbqa::core {

namespace {

uint64_t EntityPathKey(rdf::TermId entity, rdf::PathId path) {
  return (static_cast<uint64_t>(entity) << 32) | path;
}

void SortUnique(std::vector<rdf::TermId>* ids) {
  std::sort(ids->begin(), ids->end());
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
}

/// Stateful deadline check for one answer: at most one clock read per
/// probe, none at all when no deadline was requested, and sticky once
/// exceeded (the pipeline never un-exceeds mid-request).
struct DeadlineGate {
  const std::optional<std::chrono::steady_clock::time_point>& deadline;
  bool exceeded = false;

  bool Hit() {
    if (exceeded) return true;
    if (!deadline) return false;
    if (std::chrono::steady_clock::now() >= *deadline) exceeded = true;
    return exceeded;
  }
};

/// Stamps a deadline overrun on the result (idempotent).
void MarkDeadlineExceeded(AnswerResult* result) {
  if (!result->status.ok()) return;
  result->status = Status::DeadlineExceeded("answer deadline exceeded");
}

/// The shared mention → entity → category → template walk of §3.3's
/// candidate enumeration. AnswerTokens and IsPrimitiveBfq both iterate
/// through here so the two cannot drift. `visit(mention, entity, p_t,
/// template_id)` returns false to stop the walk early. `ctx` (nullable)
/// receives the conceptualize/template_match stage attribution.
template <typename Visitor>
void VisitTemplateCandidates(const taxonomy::Taxonomy& taxonomy,
                             const TemplateStore& store,
                             const std::vector<std::string>& tokens,
                             const std::vector<nlp::Mention>& mentions,
                             obs::RequestContext* ctx, Visitor&& visit) {
  std::string template_text;  // one buffer for every template probe
  for (const nlp::Mention& mention : mentions) {
    std::vector<std::string> context;
    context.reserve(tokens.size());
    for (size_t i = 0; i < tokens.size(); ++i) {
      if (i < mention.begin || i >= mention.end) context.push_back(tokens[i]);
    }
    for (rdf::TermId entity : mention.entities) {
      // Chained marks: the walk fragment since the previous mark goes to
      // template_match, the Conceptualize call itself to its own stage.
      if (ctx != nullptr) ctx->Mark(obs::WideStage::kTemplateMatch);
      std::vector<taxonomy::ScoredCategory> categories =
          taxonomy.Conceptualize(entity, context);
      if (ctx != nullptr) ctx->Mark(obs::WideStage::kConceptualize);
      CutTemplateCategories(&categories);
      for (const auto& sc : categories) {
        MakeTemplateText(tokens, mention.begin, mention.end,
                         taxonomy.CategoryName(sc.category), &template_text);
        auto t = store.Lookup(template_text);
        if (!t) continue;
        if (!visit(mention, entity, sc.probability, *t)) return;
      }
    }
  }
}

/// All per-answer registry counters behind one cached lookup: a single
/// init-guard check on the answer epilogue instead of one per macro site.
struct OnlineCounters {
  obs::Counter* answers;
  obs::Counter* answered;
  obs::Counter* cache_hits;
  obs::Counter* cache_misses;
  obs::Counter* cache_evictions;
  obs::Counter* deadline_exceeded;

  static const OnlineCounters& Get() {
    static const OnlineCounters counters = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
      return OnlineCounters{r.GetCounter("online.answers"),
                            r.GetCounter("online.answered"),
                            r.GetCounter("online.value_cache.hits"),
                            r.GetCounter("online.value_cache.misses"),
                            r.GetCounter("online.value_cache.evictions"),
                            r.GetCounter("online.deadline_exceeded")};
    }();
    return counters;
  }
};

/// Byte charge of one answer-cache entry beyond the key struct itself:
/// the question text plus every heap block the memoized AnswerResult owns.
/// An estimate (allocator slack and map overhead aren't modeled), but a
/// faithful enough one for LRU budget accounting — the same contract as
/// the value cache's `values.size() * sizeof(TermId)` charge.
uint64_t AnswerResultPayloadBytes(const std::string& question,
                                  const AnswerResult& result) {
  uint64_t bytes = question.size() + sizeof(AnswerResult);
  bytes += result.status.message().size();
  bytes += result.value.size() + result.predicate.size() +
           result.sparql.size();
  bytes += result.ranked.size() * sizeof(AnswerCandidate);
  for (const std::string& v : result.values) bytes += v.size();
  return bytes;
}

/// `kb` with an empty overlay, epoch 0 and version 0. The base pointer
/// aliases an empty owner, so the snapshot never keeps `kb` alive.
rdf::KbSnapshot BaseSnapshot(const rdf::KnowledgeBase* kb) {
  rdf::KbSnapshot snapshot;
  snapshot.base =
      std::shared_ptr<const rdf::KnowledgeBase>(std::shared_ptr<void>(), kb);
  snapshot.overlay = std::make_shared<const rdf::DeltaOverlay>();
  return snapshot;
}

AnswerResult OtherBase() {
  AnswerResult result;
  result.status =
      Status::FailedPrecondition("snapshot of another base than the engine's");
  return result;
}

}  // namespace

OnlineInference::OnlineInference(const rdf::KnowledgeBase* kb,
                                 const taxonomy::Taxonomy* taxonomy,
                                 const nlp::GazetteerNer* ner,
                                 const TemplateStore* store,
                                 const rdf::PathDictionary* paths,
                                 const Options& options)
    : taxonomy_(taxonomy),
      ner_(ner),
      store_(store),
      paths_(paths),
      options_(options),
      snapshot_(BaseSnapshot(kb)),
      value_cache_(options.value_cache_budget_bytes),
      answer_cache_(options.answer_cache_budget_bytes) {}

bool OnlineInference::Revalidate(const rdf::KbSnapshot& snapshot,
                                 const ValidatedAnswer& entry) {
  if (entry.reads == nullptr) return snapshot.overlay->empty();
  ReadSet& reads = *entry.reads;
  // The stamp is only a version number, and a version names one published
  // snapshot, so relaxed loads and stores carry all it says.
  uint64_t stamped = reads.version.load(std::memory_order_relaxed);
  if (stamped == snapshot.version) return true;
  // An entry stamped after the reader's pin may hold values interned
  // after it, which the reader's snapshot cannot even name: a miss.
  if (stamped > snapshot.version ||
      snapshot.ChangedSince(reads.subjects, stamped)) {
    return false;
  }
  // A hit at a later version may have moved the stamp past ours since the
  // load; keep the later one.
  while (stamped < snapshot.version &&
         !reads.version.compare_exchange_weak(stamped, snapshot.version,
                                              std::memory_order_relaxed)) {
  }
  return true;
}

const std::vector<rdf::TermId>& OnlineInference::CachedObjects(
    const rdf::KbSnapshot& snapshot, rdf::TermId entity, rdf::PathId path,
    std::vector<rdf::TermId>* scratch, CacheTally* tally,
    obs::RequestContext* ctx) const {
  const bool cached = options_.enable_value_cache && IsOwn(snapshot);
  const uint64_t key = EntityPathKey(entity, path);
  if (cached) {
    if (value_cache_.Get(key, scratch)) {
      ++tally->hits;
      return *scratch;
    }
    ++tally->misses;
  }
  // Walks are the slow path, so per-request attribution times each one;
  // hits are counted but not timed — their cost stays inside the
  // surrounding stage.
  const uint64_t walk_begin = ctx != nullptr ? obs::NowSteadyNs() : 0;
  *scratch =
      snapshot.ObjectsViaPath(entity, paths_->GetPath(path), tally->reads);
  if (cached) {
    // A concurrent miss on the same key inserts the same walk.
    tally->evictions += value_cache_.Insert(
        key, *scratch, scratch->size() * sizeof(rdf::TermId));
  }
  if (ctx != nullptr) {
    ctx->AddTimedSince(obs::WideStage::kValueLookup, walk_begin);
  }
  return *scratch;
}

void OnlineInference::FlushAnswerStats(const AnswerResult* result,
                                       const CacheTally& tally) const {
  // Per-instance cache stats are unconditional: value_cache_stats() is
  // part of the API contract, not observability.
  if (tally.hits != 0) cache_hits_.Add(tally.hits);
  if (tally.misses != 0) cache_misses_.Add(tally.misses);
  if (!obs::Enabled()) return;
  const OnlineCounters& c = OnlineCounters::Get();
  if (tally.hits != 0) c.cache_hits->Add(tally.hits);
  if (tally.misses != 0) c.cache_misses->Add(tally.misses);
  if (tally.evictions != 0) c.cache_evictions->Add(tally.evictions);
  if (result == nullptr) return;  // IsPrimitiveBfq probe
  c.answers->Add(1);
  if (result->answered) c.answered->Add(1);
  if (result->status.code() == StatusCode::kDeadlineExceeded) {
    c.deadline_exceeded->Add(1);
  }
}

ValueCacheStats OnlineInference::value_cache_stats() const {
  ValueCacheStats stats;
  if (!options_.enable_value_cache) return stats;
  stats.hits = cache_hits_.Value();
  stats.misses = cache_misses_.Value();
  const auto cache = value_cache_.GetStats();
  stats.entries = cache.entries;
  stats.bytes = cache.bytes;
  stats.evictions = cache.evictions;
  stats.budget_bytes = value_cache_.budget_bytes();
  return stats;
}

ValueCacheStats OnlineInference::answer_cache_stats() const {
  ValueCacheStats stats;
  if (!options_.enable_answer_cache) return stats;
  stats.hits = answer_cache_hits_.Value();
  stats.misses = answer_cache_misses_.Value();
  const auto cache = answer_cache_.GetStats();
  stats.entries = cache.entries;
  stats.bytes = cache.bytes;
  stats.evictions = cache.evictions;
  stats.budget_bytes = answer_cache_.budget_bytes();
  return stats;
}

AnswerResult OnlineInference::Answer(const std::string& question) const {
  return AnswerTokens(nlp::TokenizeQuestion(question));
}

AnswerResult OnlineInference::Answer(
    const std::string& question, const AnswerOptions& answer_options) const {
  return AnswerTokens(nlp::TokenizeQuestion(question), answer_options);
}

AnswerResult OnlineInference::Answer(const std::string& question,
                                     const AnswerOptions& answer_options,
                                     const rdf::KbSnapshot& snapshot) const {
  if (snapshot.base != snapshot_.base) return OtherBase();
  return AnswerTokensAt(nlp::TokenizeQuestion(question), answer_options,
                        snapshot, /*reads=*/nullptr);
}

AnswerResult OnlineInference::AnswerCached(
    const std::string& question, const AnswerOptions& answer_options) const {
  return AnswerCachedAt(question, answer_options, snapshot_);
}

AnswerResult OnlineInference::AnswerCached(
    const std::string& question, const AnswerOptions& answer_options,
    const rdf::KbSnapshot& snapshot) const {
  if (snapshot.base != snapshot_.base) return OtherBase();
  return AnswerCachedAt(question, answer_options, snapshot);
}

AnswerResult OnlineInference::AnswerCachedAt(
    const std::string& question, const AnswerOptions& answer_options,
    const rdf::KbSnapshot& snapshot) const {
  if (!options_.enable_answer_cache) {
    return AnswerTokensAt(nlp::TokenizeQuestion(question), answer_options,
                          snapshot, /*reads=*/nullptr);
  }
  // Normalized key: whitespace/case/punctuation paraphrases tokenize to
  // the same sequence, so they are the same question to the pipeline and
  // must be the same entry to the memo.
  const std::string key = nlp::NormalizeText(question);
  AnswerResult hit;
  if (answer_cache_.Visit(key, [&](const ValidatedAnswer& entry) {
        if (!Revalidate(snapshot, entry)) return false;
        hit = entry.result;
        return true;
      })) {
    answer_cache_hits_.Add(1);
    KBQA_COUNTER_ADD("online.answer_cache.hits", 1);
    if (answer_options.request_context != nullptr) {
      ++answer_options.request_context->answer_cache_hits;
    }
    return hit;
  }
  ValidatedAnswer entry;
  if (!IsOwn(snapshot)) {
    entry.reads = std::make_unique<ReadSet>();
    entry.reads->version.store(snapshot.version, std::memory_order_relaxed);
  }
  // The tokens are the canonical text's pieces: TokenizeQuestion would
  // scan the question a second time for the same sequence.
  AnswerResult result = AnswerTokensAt(
      nlp::SplitTokens(key), answer_options, snapshot,
      entry.reads != nullptr ? &entry.reads->subjects : nullptr);
  answer_cache_misses_.Add(1);
  KBQA_COUNTER_ADD("online.answer_cache.misses", 1);
  if (answer_options.request_context != nullptr) {
    ++answer_options.request_context->answer_cache_misses;
  }
  // Only complete answers are memoized: a deadline-clipped partial
  // (kDeadlineExceeded) would otherwise serve its truncation to every
  // later request that has budget to compute the real thing.
  if (result.status.ok()) {
    uint64_t bytes = AnswerResultPayloadBytes(key, result);
    if (entry.reads != nullptr) {
      SortUnique(&entry.reads->subjects);
      bytes += entry.reads->subjects.size() * sizeof(rdf::TermId);
    }
    entry.result = result;
    const uint64_t evictions =
        answer_cache_.Insert(key, std::move(entry), bytes);
    if (evictions != 0) {
      KBQA_COUNTER_ADD("online.answer_cache.evictions", evictions);
    }
  }
  return result;
}

AnswerResult OnlineInference::AnswerTokens(
    const std::vector<std::string>& tokens) const {
  return AnswerTokens(tokens, AnswerOptions{});
}

AnswerResult OnlineInference::AnswerTokens(
    const std::vector<std::string>& tokens,
    const AnswerOptions& answer_options) const {
  return AnswerTokensAt(tokens, answer_options, snapshot_, /*reads=*/nullptr);
}

AnswerResult OnlineInference::AnswerTokensAt(
    const std::vector<std::string>& tokens,
    const AnswerOptions& answer_options, const rdf::KbSnapshot& snapshot,
    std::vector<rdf::TermId>* reads) const {
  obs::RequestContext* const ctx = answer_options.request_context;
  if (ctx != nullptr) ctx->kb_epoch = snapshot.epoch;
  CacheTally tally;
  tally.reads = reads;
  AnswerResult result =
      AnswerTokensImpl(tokens, answer_options, &tally, snapshot);
  FlushAnswerStats(&result, tally);
  if (ctx != nullptr) {
    ctx->value_cache_hits += static_cast<uint32_t>(tally.hits);
    ctx->value_cache_misses += static_cast<uint32_t>(tally.misses);
  }
  return result;
}

AnswerResult OnlineInference::AnswerTokensImpl(
    const std::vector<std::string>& tokens,
    const AnswerOptions& answer_options, CacheTally* tally,
    const rdf::KbSnapshot& snapshot) const {
  AnswerResult result;
  obs::RequestContext* const ctx = answer_options.request_context;
  if (ctx != nullptr && ctx->last_mark_ns == 0) {
    // Bare-engine callers (benches, tests) never anchored the stage
    // clock; the serving layer anchors at handler start for free.
    ctx->StartClockAt(obs::NowSteadyNs());
  }
  DeadlineGate gate{answer_options.deadline};
  if (gate.Hit()) {  // Already past due on entry: answer nothing.
    MarkDeadlineExceeded(&result);
    return result;
  }
  std::vector<nlp::Mention> mentions = ner_->FindMentions(tokens);
  // Everything from the anchor through mention lookup — tokenization
  // happened upstream of AnswerTokens but after the anchor — is the NER
  // stage.
  if (ctx != nullptr) ctx->Mark(obs::WideStage::kNer);
  if (mentions.empty()) return result;

  size_t total_entities = 0;
  for (const nlp::Mention& m : mentions) total_entities += m.entities.size();
  if (total_entities == 0) return result;
  result.num_entities = total_entities;
  const double p_e = 1.0 / static_cast<double>(total_entities);

  struct ValueSupport {
    double score = 0;
    double best_term = 0;  // strongest single (e,t,p) contribution
    TemplateId best_template = kInvalidTemplate;
    rdf::PathId best_path = rdf::kInvalidPath;
    rdf::TermId best_entity = rdf::kInvalidTerm;
  };
  std::unordered_map<rdf::TermId, ValueSupport> posterior;
  std::vector<rdf::TermId> scratch;

  VisitTemplateCandidates(
      *taxonomy_, *store_, tokens, mentions, ctx,
      [&](const nlp::Mention&, rdf::TermId entity, double p_t,
          TemplateId t) {
        if (gate.Hit()) return false;
        ++result.num_templates;
        // Walk fragment since the last mark (store lookup, category
        // iteration) belongs to template_match; the predicate loop
        // below closes as the score stage.
        if (ctx != nullptr) ctx->Mark(obs::WideStage::kTemplateMatch);
        for (const PredicateProb& pp : store_->Distribution(t)) {
          if (pp.probability < options_.min_predicate_prob) continue;
          if (gate.Hit()) return false;
          ++result.num_predicates;
          const std::vector<rdf::TermId>& values =
              CachedObjects(snapshot, entity, pp.path, &scratch, tally, ctx);
          if (values.empty()) continue;
          const double p_v = 1.0 / static_cast<double>(values.size());
          ++result.num_grounded_predicates;
          result.num_values += values.size();
          const double term = p_e * p_t * pp.probability * p_v;
          for (rdf::TermId v : values) {
            ValueSupport& support = posterior[v];
            support.score += term;
            if (term > support.best_term) {
              support.best_term = term;
              support.best_template = t;
              support.best_path = pp.path;
              support.best_entity = entity;
            }
          }
        }
        if (ctx != nullptr) ctx->Mark(obs::WideStage::kScore);
        return true;
      });
  // Close the candidate walk: whatever ran since the last inner mark
  // (or a deadline-aborted score fragment) is template_match time.
  if (ctx != nullptr) ctx->Mark(obs::WideStage::kTemplateMatch);
  // A deadline hit stops candidate enumeration but still ranks whatever
  // the posterior accumulated: the caller gets the best partial answer
  // (or an empty one), flagged by `status`, instead of a stalled thread.
  if (gate.exceeded) MarkDeadlineExceeded(&result);

  if (posterior.empty()) return result;

  result.ranked.reserve(posterior.size());
  for (const auto& [v, support] : posterior) {
    result.ranked.push_back(AnswerCandidate{v, support.score,
                                            support.best_template,
                                            support.best_path,
                                            support.best_entity});
  }
  std::sort(result.ranked.begin(), result.ranked.end(),
            [](const AnswerCandidate& a, const AnswerCandidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.value < b.value;  // Deterministic tie-break.
            });

  const AnswerCandidate& best = result.ranked.front();
  if (best.score < options_.min_answer_score) {
    if (ctx != nullptr) ctx->Mark(obs::WideStage::kRank);
    return result;
  }
  result.answered = true;
  result.score = best.score;
  // Values may be overlay nodes the base has never interned, and an
  // entity's display name may have mutated — so an entity value's name
  // edges join the read set.
  const auto materialize = [&](rdf::TermId v) -> std::string {
    if (snapshot.IsLiteral(v)) return snapshot.NodeString(v);
    if (tally->reads != nullptr) tally->reads->push_back(v);
    return snapshot.EntityName(v);
  };
  result.value = materialize(best.value);
  result.predicate = paths_->ToString(best.best_path, *snapshot.base);
  // Emit the equivalent structured query. The winning entity was tracked
  // with best_term during scoring, so no re-query over the candidate
  // entities is needed; its value set is one more value lookup.
  result.sparql = rdf::QueryToString(rdf::BuildPathQuery(
      *snapshot.base, best.best_entity, paths_->GetPath(best.best_path)));
  for (rdf::TermId v : CachedObjects(snapshot, best.best_entity,
                                     best.best_path, &scratch, tally, ctx)) {
    result.values.push_back(materialize(v));
  }
  // Rank covers sort + winner materialization (minus any timed value
  // lookups the materialization hit, which went to value_lookup above).
  if (ctx != nullptr) ctx->Mark(obs::WideStage::kRank);
  return result;
}

bool OnlineInference::IsPrimitiveBfq(
    const std::vector<std::string>& tokens) const {
  KBQA_COUNTER_ADD("online.bfq_probes", 1);
  std::vector<nlp::Mention> mentions = ner_->FindMentions(tokens);
  bool found = false;
  std::vector<rdf::TermId> scratch;
  CacheTally tally;
  VisitTemplateCandidates(
      *taxonomy_, *store_, tokens, mentions, /*ctx=*/nullptr,
      [&](const nlp::Mention&, rdf::TermId entity, double, TemplateId t) {
        for (const PredicateProb& pp : store_->Distribution(t)) {
          if (pp.probability < options_.min_predicate_prob) continue;
          if (!CachedObjects(snapshot_, entity, pp.path, &scratch, &tally,
                             /*ctx=*/nullptr)
                   .empty()) {
            found = true;
            return false;
          }
        }
        return true;
      });
  FlushAnswerStats(nullptr, tally);
  return found;
}

}  // namespace kbqa::core
