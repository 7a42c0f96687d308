#include "core/em_learner.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "nlp/tokenizer.h"
#include "obs/obs.h"
#include "util/thread_pool.h"

namespace kbqa::core {

namespace {

/// θ key: template in the high 32 bits, path in the low 32. Used only to
/// compact (t, p) pairs into dense parameter indices before EM runs; the
/// per-iteration loops are pure array arithmetic.
uint64_t ThetaKey(TemplateId t, rdf::PathId p) {
  return (static_cast<uint64_t>(t) << 32) | p;
}

/// Fixed shard count for all parallel phases. Determinism requires this to
/// be independent of the thread count: shard partials are merged in shard
/// order, so any pool size reduces the same partial sums in the same
/// order. 32 keeps per-shard accumulator memory modest while giving a
/// 32-way load-balancing granularity.
constexpr size_t kNumShards = 32;

}  // namespace

std::string MakeTemplateText(const std::vector<std::string>& tokens,
                             size_t mention_begin, size_t mention_end,
                             const std::string& category) {
  std::string out;
  MakeTemplateText(tokens, mention_begin, mention_end, category, &out);
  return out;
}

void MakeTemplateText(const std::vector<std::string>& tokens,
                      size_t mention_begin, size_t mention_end,
                      const std::string& category, std::string* out) {
  assert(mention_begin < mention_end && mention_end <= tokens.size());
  out->clear();
  for (size_t i = 0; i < mention_begin; ++i) {
    if (!out->empty()) *out += ' ';
    *out += tokens[i];
  }
  if (!out->empty()) *out += ' ';
  *out += category;
  for (size_t i = mention_end; i < tokens.size(); ++i) {
    *out += ' ';
    *out += tokens[i];
  }
}

void CutTemplateCategories(std::vector<taxonomy::ScoredCategory>* categories) {
  if (categories->size() > kMaxCategoriesPerEntity) {
    categories->resize(kMaxCategoriesPerEntity);
  }
  std::erase_if(*categories, [](const taxonomy::ScoredCategory& sc) {
    return sc.probability < kMinCategoryProb;
  });
  double mass = 0;
  for (const taxonomy::ScoredCategory& sc : *categories) mass += sc.probability;
  for (taxonomy::ScoredCategory& sc : *categories) sc.probability /= mass;
}

PreparedCorpus PrepareCorpus(const corpus::QaCorpus& corpus,
                             const nlp::GazetteerNer& ner, ThreadPool* pool,
                             std::vector<rdf::TermId>* seeds) {
  const size_t n = corpus.pairs.size();
  PreparedCorpus prepared;
  prepared.questions.resize(n);
  prepared.mentions.resize(n);
  std::vector<std::vector<rdf::TermId>> shard_seeds(kNumShards);
  // Each shard writes only its own questions' slots and seed list.
  ParallelFor(*pool, n, kNumShards,
              [&](size_t shard, size_t begin, size_t end) {
                std::vector<rdf::TermId>& local_seeds = shard_seeds[shard];
                for (size_t i = begin; i < end; ++i) {
                  nlp::PatternQuestion& question = prepared.questions[i];
                  question.tokens =
                      nlp::TokenizeQuestion(corpus.pairs[i].question);
                  prepared.mentions[i] = ner.FindMentions(question.tokens);
                  question.mention_spans.reserve(prepared.mentions[i].size());
                  for (const nlp::Mention& m : prepared.mentions[i]) {
                    question.mention_spans.emplace_back(m.begin, m.end);
                    if (seeds != nullptr) {
                      local_seeds.insert(local_seeds.end(), m.entities.begin(),
                                         m.entities.end());
                    }
                  }
                }
              });
  if (seeds != nullptr) {
    // Shard order, then sorted and de-duplicated: the same list for any
    // pool size.
    size_t total = 0;
    for (const std::vector<rdf::TermId>& part : shard_seeds) {
      total += part.size();
    }
    seeds->clear();
    seeds->reserve(total);
    for (const std::vector<rdf::TermId>& part : shard_seeds) {
      seeds->insert(seeds->end(), part.begin(), part.end());
    }
    std::sort(seeds->begin(), seeds->end());
    seeds->erase(std::unique(seeds->begin(), seeds->end()), seeds->end());
  }
  return prepared;
}

EmLearner::EmLearner(const rdf::KnowledgeBase* kb, const rdf::ExpandedKb* ekb,
                     const taxonomy::Taxonomy* taxonomy,
                     const EvExtractor* extractor, const EmOptions& options)
    : kb_(kb),
      ekb_(ekb),
      taxonomy_(taxonomy),
      extractor_(extractor),
      options_(options) {}

void EmLearner::BuildObservations(ThreadPool* pool,
                                  const corpus::QaCorpus& corpus,
                                  const PreparedCorpus& prepared,
                                  TemplateStore* store,
                                  std::vector<Observation>* observations,
                                  EmStats* stats) const {
  KBQA_TRACE_SPAN("em.build_observations");
  // Per-shard build state. Templates are interned into a shard-local
  // dictionary (ZPair.t holds *local* ids); merging shards in shard order
  // and re-interning each shard's first-occurrence list into the global
  // store reproduces exactly the template-id assignment a sequential scan
  // over the corpus would produce.
  struct ShardBuild {
    std::vector<std::string> texts;  // local id -> text, first-occurrence order
    std::unordered_map<std::string, TemplateId> index;
    std::vector<uint64_t> frequency;  // local id -> AddFrequency count
    std::vector<Observation> observations;
    size_t questions_with_entities = 0;
    size_t total_entities = 0;
    size_t total_template_cands = 0;
    size_t total_pred_cands = 0;
  };

  std::vector<ShardBuild> shards(kNumShards);
  auto build_shard = [&](size_t shard, size_t begin, size_t end) {
    ShardBuild& out = shards[shard];
    // A question yields about one observation and at most a few new
    // templates, so the shard's question count sizes its buffers once.
    out.texts.reserve(end - begin);
    out.index.reserve(end - begin);
    out.frequency.reserve(end - begin);
    out.observations.reserve(end - begin);
    for (size_t qi = begin; qi < end; ++qi) {
      const std::vector<std::string>& tokens = prepared.questions[qi].tokens;
      std::vector<EvCandidate> candidates = extractor_->Extract(
          tokens, prepared.mentions[qi], corpus.pairs[qi].answer);
      if (candidates.empty()) continue;

      // P(e|q_i): uniform over the distinct entities appearing in EV_i
      // (Eq. 4 — the joint extraction replaces plain NER here).
      std::unordered_set<rdf::TermId> distinct_entities;
      for (const EvCandidate& cand : candidates) {
        distinct_entities.insert(cand.entity);
      }
      const double p_e = 1.0 / static_cast<double>(distinct_entities.size());
      ++out.questions_with_entities;
      out.total_entities += distinct_entities.size();

      for (const EvCandidate& cand : candidates) {
        // Conceptualize the entity in the question's context — the template
        // candidates T with P(t|e, q) > 0.
        std::vector<std::string> context;
        context.reserve(tokens.size());
        for (size_t i = 0; i < tokens.size(); ++i) {
          if (i < cand.mention_begin || i >= cand.mention_end) {
            context.push_back(tokens[i]);
          }
        }
        std::vector<taxonomy::ScoredCategory> categories =
            taxonomy_->Conceptualize(cand.entity, context);
        CutTemplateCategories(&categories);
        if (categories.empty()) continue;

        Observation obs;
        const std::span<const std::pair<rdf::PathId, rdf::TermId>> out_run =
            ekb_->Out(cand.entity);
        for (const auto& sc : categories) {
          std::string text = MakeTemplateText(
              tokens, cand.mention_begin, cand.mention_end,
              taxonomy_->CategoryName(sc.category));
          TemplateId t;
          if (auto it = out.index.find(text); it != out.index.end()) {
            t = it->second;
          } else {
            t = static_cast<TemplateId>(out.texts.size());
            out.index.emplace(text, t);
            out.texts.push_back(std::move(text));
            out.frequency.push_back(0);
          }
          ++out.frequency[t];
          const double p_t = sc.probability;
          for (rdf::PathId path : cand.paths) {
            // |V(e, p)|: the length of p's stretch of e's (path, object)-
            // sorted run.
            const size_t fanout =
                std::ranges::equal_range(out_run, path, std::ranges::less{},
                                         &std::pair<rdf::PathId,
                                                    rdf::TermId>::first)
                    .size();
            if (fanout == 0) continue;
            const double p_v = 1.0 / static_cast<double>(fanout);
            obs.z.push_back(ZPair{t, path, p_e * p_t * p_v});
          }
          out.total_template_cands += 1;
        }
        if (!obs.z.empty()) {
          out.total_pred_cands += cand.paths.size();
          out.observations.push_back(std::move(obs));
        }
      }
    }
  };
  ParallelFor(*pool, corpus.pairs.size(), kNumShards, build_shard);

  size_t questions_with_entities = 0;
  size_t total_entities = 0;
  size_t total_template_cands = 0;
  size_t total_pred_cands = 0;
  size_t total_observations = 0;
  for (const ShardBuild& shard : shards) {
    total_observations += shard.observations.size();
  }
  observations->reserve(observations->size() + total_observations);

  // Ordered merge: shard s's templates and observations land before shard
  // s+1's, with local template ids rewritten through the global store.
  for (ShardBuild& shard : shards) {
    std::vector<TemplateId> to_global(shard.texts.size());
    for (size_t i = 0; i < shard.texts.size(); ++i) {
      to_global[i] = store->Intern(shard.texts[i]);
      store->AddFrequency(to_global[i], shard.frequency[i]);
    }
    for (Observation& obs : shard.observations) {
      for (ZPair& z : obs.z) z.t = to_global[z.t];
      observations->push_back(std::move(obs));
    }
    questions_with_entities += shard.questions_with_entities;
    total_entities += shard.total_entities;
    total_template_cands += shard.total_template_cands;
    total_pred_cands += shard.total_pred_cands;
  }

  stats->num_qa_pairs = corpus.pairs.size();
  stats->num_observations = observations->size();
  if (questions_with_entities > 0) {
    stats->avg_entities_per_question =
        static_cast<double>(total_entities) /
        static_cast<double>(questions_with_entities);
  }
  if (!observations->empty()) {
    stats->avg_templates_per_observation =
        static_cast<double>(total_template_cands) /
        static_cast<double>(observations->size());
    stats->avg_predicates_per_observation =
        static_cast<double>(total_pred_cands) /
        static_cast<double>(observations->size());
  }
}

Status EmLearner::Train(const corpus::QaCorpus& corpus, TemplateStore* store,
                        EmStats* stats) const {
  ThreadPool pool(options_.num_threads);
  return Train(corpus, PrepareCorpus(corpus, extractor_->ner(), &pool, nullptr),
               &pool, store, stats);
}

Status EmLearner::Train(const corpus::QaCorpus& corpus,
                        const PreparedCorpus& prepared, ThreadPool* pool,
                        TemplateStore* store, EmStats* stats) const {
  if (store == nullptr || stats == nullptr) {
    return Status::InvalidArgument("store and stats must be non-null");
  }
  if (prepared.questions.size() != corpus.pairs.size() ||
      prepared.mentions.size() != corpus.pairs.size()) {
    return Status::InvalidArgument("prepared corpus does not match the corpus");
  }
  KBQA_TRACE_SPAN("em.train");

  std::vector<Observation> observations;
  BuildObservations(pool, corpus, prepared, store, &observations, stats);
  if (observations.empty()) {
    return Status::FailedPrecondition(
        "no (question, entity, value) observations could be extracted; "
        "check that corpus entities exist in the knowledge base");
  }

  // Compact the observed (t, p) pairs into dense parameter indices, in
  // first-occurrence order over the observations. After this point the
  // per-iteration loops touch only flat arrays — no hashing.
  size_t total_z = 0;
  for (const Observation& obs : observations) total_z += obs.z.size();

  std::unordered_map<uint64_t, uint32_t> param_index;
  param_index.reserve(total_z);
  std::vector<rdf::PathId> param_path;  // dense index -> path
  // Dense indices of each template's parameters, grouped for the M-step.
  std::vector<std::vector<uint32_t>> params_of_template(
      store->num_templates());

  struct DenseZ {
    uint32_t param;
    double f;
  };
  std::vector<DenseZ> entries;
  entries.reserve(total_z);
  std::vector<size_t> obs_offset;  // observation i spans
  obs_offset.reserve(observations.size() + 1);  // [offset[i], offset[i+1])
  obs_offset.push_back(0);
  {
    KBQA_TRACE_SPAN("em.compact");
    for (const Observation& obs : observations) {
      for (const ZPair& z : obs.z) {
        auto [it, inserted] =
            param_index.emplace(ThetaKey(z.t, z.p),
                                static_cast<uint32_t>(param_path.size()));
        if (inserted) {
          param_path.push_back(z.p);
          params_of_template[z.t].push_back(it->second);
        }
        entries.push_back(DenseZ{it->second, z.f});
      }
      obs_offset.push_back(entries.size());
    }
  }
  const size_t num_params = param_path.size();
  const size_t m = observations.size();

  // θ⁰ (Eq. 23): uniform over the (p, t) pairs observed with f > 0.
  std::vector<double> theta(num_params, 0.0);
  for (const auto& params : params_of_template) {
    if (params.empty()) continue;
    const double uniform = 1.0 / static_cast<double>(params.size());
    for (uint32_t idx : params) theta[idx] = uniform;
  }

  if (options_.run_em) {
    const size_t num_shards = std::min(kNumShards, m);
    // Thread-local E-step accumulators, one per *shard* (not per thread):
    // the shard-ordered reduction below is what makes θ independent of the
    // pool size. Buffers persist across iterations to avoid reallocation.
    std::vector<std::vector<double>> shard_acc(num_shards);
    std::vector<double> shard_ll(num_shards, 0.0);
    std::vector<double> acc(num_params, 0.0);
    // Wall time of each E-step shard this iteration (observability only;
    // zeroes when the registry is disabled).
    std::vector<uint64_t> shard_ns(num_shards, 0);

    for (int iter = 0; iter < options_.max_iterations; ++iter) {
      KBQA_TRACE_SPAN("em.iteration");
      // E-step: responsibilities per observation (Eq. 21, normalized),
      // sharded over observations.
      {
        KBQA_TRACE_SPAN("em.e_step");
        ParallelFor(*pool, m, num_shards,
                    [&](size_t shard, size_t begin, size_t end) {
                      const uint64_t t0 =
                          obs::Enabled() ? obs::NowSteadyNs() : 0;
                      std::vector<double>& local = shard_acc[shard];
                      local.assign(num_params, 0.0);
                      double ll = 0;
                      for (size_t i = begin; i < end; ++i) {
                        const size_t zb = obs_offset[i];
                        const size_t ze = obs_offset[i + 1];
                        double total = 0;
                        for (size_t z = zb; z < ze; ++z) {
                          total += entries[z].f * theta[entries[z].param];
                        }
                        if (total <= 0) continue;
                        ll += std::log(total);
                        for (size_t z = zb; z < ze; ++z) {
                          local[entries[z].param] +=
                              entries[z].f * theta[entries[z].param] / total;
                        }
                      }
                      shard_ll[shard] = ll;
                      if (obs::Enabled()) {
                        shard_ns[shard] = obs::NowSteadyNs() - t0;
                        KBQA_HISTOGRAM_RECORD("em.e_step.shard_ns",
                                              shard_ns[shard]);
                      }
                    });
      }
      if (obs::Enabled()) {
        // Straggler spread: the gap between the slowest and fastest shard
        // bounds what adding threads can still recover this iteration.
        uint64_t max_ns = 0;
        uint64_t min_ns = UINT64_MAX;
        for (size_t shard = 0; shard < num_shards; ++shard) {
          max_ns = std::max(max_ns, shard_ns[shard]);
          min_ns = std::min(min_ns, shard_ns[shard]);
        }
        KBQA_GAUGE_SET("em.e_step.straggler_max_ns", max_ns);
        KBQA_GAUGE_SET("em.e_step.straggler_min_ns", min_ns);
      }
      // Shard-ordered reduction.
      std::fill(acc.begin(), acc.end(), 0.0);
      double log_likelihood = 0;
      for (size_t shard = 0; shard < num_shards; ++shard) {
        const std::vector<double>& local = shard_acc[shard];
        for (size_t i = 0; i < num_params; ++i) acc[i] += local[i];
        log_likelihood += shard_ll[shard];
      }
      if (obs::Enabled() && !stats->log_likelihood.empty()) {
        KBQA_GAUGE_SET("em.ll_delta",
                       log_likelihood - stats->log_likelihood.back());
      }
      KBQA_GAUGE_SET("em.log_likelihood", log_likelihood);
      stats->log_likelihood.push_back(log_likelihood);

      // M-step: per-template normalization (Eq. 22).
      double max_delta = 0;
      {
        KBQA_TRACE_SPAN("em.m_step");
        for (const auto& params : params_of_template) {
          double denom = 0;
          for (uint32_t idx : params) denom += acc[idx];
          if (denom <= 0) continue;
          for (uint32_t idx : params) {
            const double next = acc[idx] / denom;
            max_delta = std::max(max_delta, std::abs(next - theta[idx]));
            theta[idx] = next;
          }
        }
      }
      KBQA_COUNTER_ADD("em.iterations", 1);
      stats->iterations = iter + 1;
      if (max_delta < options_.tolerance) break;
    }
  }

  // Materialize P(p|t) into the store.
  for (TemplateId t = 0; t < params_of_template.size(); ++t) {
    const auto& params = params_of_template[t];
    if (params.empty()) continue;
    std::vector<PredicateProb> dist;
    dist.reserve(params.size());
    for (uint32_t idx : params) {
      if (theta[idx] > 0) {
        dist.push_back(PredicateProb{param_path[idx], theta[idx]});
      }
    }
    store->SetDistribution(t, std::move(dist));
  }
  stats->num_templates = store->num_templates();
  stats->num_predicates = store->NumDistinctPredicates();
  return Status::Ok();
}

}  // namespace kbqa::core
