#include "rdf/expanded_predicate.h"

#include <algorithm>
#include <cassert>

#include "obs/obs.h"
#include "util/thread_pool.h"

namespace kbqa::rdf {

namespace {

// Fixed shard count for the per-round frontier scans — a constant, never
// the thread count, so the shard split (and with it the discovery order
// after the shard-ordered merge) is identical for any pool size.
constexpr size_t kBfsShards = 32;

/// One frontier edge found by a scan shard. Shards record the *parent*
/// path id plus the extending predicate instead of interning, so the
/// dictionary is only touched by the serial commit — that is what makes
/// PathId numbering independent of the thread count.
struct Discovery {
  TermId origin;
  PathId parent;  // path walked before this edge; kInvalidPath at round 1
  PredId p;
  TermId o;
  uint8_t admissible;  // record (origin, parent+p, o) as an expanded triple
  uint8_t cont;        // o joins the next round's frontier
};

/// One walk in flight: origin seed, current node, interned path so far.
struct WalkEntry {
  TermId origin;
  TermId cur;
  PathId path;  // kInvalidPath for the empty path at round 0
};

/// Packs a trie extension edge (parent path, predicate) into one key;
/// parent + 1 so the empty path (kInvalidPath) encodes as 0.
inline uint64_t ExtKey(PathId parent, PredId p) {
  const uint64_t parent_code =
      parent == kInvalidPath ? 0 : static_cast<uint64_t>(parent) + 1;
  return (parent_code << 32) | p;
}

/// Membership mask over PredId, replacing hash-set probes in the scan loop.
std::vector<uint8_t> NameMask(const KnowledgeBase& kb,
                              const std::unordered_set<PredId>& name_like) {
  std::vector<uint8_t> mask(kb.num_predicates(), 0);
  for (PredId p : name_like) {
    if (p < mask.size()) mask[p] = 1;
  }
  return mask;
}

/// Sorts + deduplicates every origin bucket (buckets are independent, so
/// this shards cleanly) and totals the surviving triples.
void SortDedupBuckets(
    ThreadPool& pool,
    std::unordered_map<TermId, std::vector<std::pair<PathId, TermId>>>& by_s,
    size_t* num_triples) {
  std::vector<std::vector<std::pair<PathId, TermId>>*> buckets;
  buckets.reserve(by_s.size());
  for (auto& [s, vec] : by_s) {
    (void)s;
    buckets.push_back(&vec);
  }
  ParallelFor(pool, buckets.size(), kBfsShards,
              [&](size_t /*shard*/, size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) {
                  auto& vec = *buckets[i];
                  std::sort(vec.begin(), vec.end());
                  vec.erase(std::unique(vec.begin(), vec.end()), vec.end());
                }
              });
  *num_triples = 0;
  for (auto* vec : buckets) *num_triples += vec->size();
}

}  // namespace

PathId PathDictionary::InternExtension(PathId parent, PredId p) {
  const uint64_t key = ExtKey(parent, p);
  auto it = ext_index_.find(key);
  if (it != ext_index_.end()) return it->second;
  PathId id = static_cast<PathId>(paths_.size());
  PredPath child;
  if (parent != kInvalidPath) {
    const PredPath& base = paths_[parent];
    child.reserve(base.size() + 1);
    child = base;
  }
  child.push_back(p);
  paths_.push_back(std::move(child));
  ext_index_.emplace(key, id);
  return id;
}

PathId PathDictionary::Intern(const PredPath& path) {
  assert(!path.empty());
  PathId cur = kInvalidPath;
  for (PredId p : path) cur = InternExtension(cur, p);
  return cur;
}

std::optional<PathId> PathDictionary::Lookup(const PredPath& path) const {
  if (path.empty()) return std::nullopt;
  PathId cur = kInvalidPath;
  for (PredId p : path) {
    auto it = ext_index_.find(ExtKey(cur, p));
    if (it == ext_index_.end()) return std::nullopt;
    cur = it->second;
  }
  return cur;
}

std::string PathDictionary::ToString(PathId id, const KnowledgeBase& kb) const {
  const PredPath& path = GetPath(id);
  std::string out;
  for (size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out += " -> ";
    out += kb.PredicateString(path[i]);
  }
  return out;
}

Result<ExpandedKb> ExpandedKb::Build(
    const KnowledgeBase& kb, const std::vector<TermId>& seeds,
    const std::unordered_set<PredId>& name_like,
    const ExpansionOptions& options) {
  ThreadPool pool(options.num_threads);  // < 1 clamps to 1
  return Build(kb, seeds, name_like, options, &pool);
}

Result<ExpandedKb> ExpandedKb::Build(
    const KnowledgeBase& kb, const std::vector<TermId>& seeds,
    const std::unordered_set<PredId>& name_like,
    const ExpansionOptions& options, ThreadPool* pool) {
  if (!kb.frozen()) {
    return Status::FailedPrecondition("ExpandedKb requires a frozen KB");
  }
  if (options.max_length < 1) {
    return Status::InvalidArgument("max_length must be >= 1");
  }

  ExpandedKb ekb;
  const std::vector<uint8_t> name_mask = NameMask(kb, name_like);

  std::vector<WalkEntry> frontier;
  frontier.reserve(seeds.size());
  {
    // Deduplicate seeds; a seed occurring twice must not double triples.
    std::unordered_set<TermId> seen;
    for (TermId s : seeds) {
      if (!kb.IsEntity(s)) continue;  // Literals cannot start a path.
      if (seen.insert(s).second) {
        frontier.push_back({s, s, kInvalidPath});
      }
    }
  }
  // Every origin is a seed.
  ekb.by_s_.reserve(frontier.size());

  // One discovery buffer per shard, kept across rounds so a buffer is
  // allocated only when a round's bound outgrows it.
  std::vector<std::vector<Discovery>> shard_discoveries(kBfsShards);
  size_t triples = 0;
  for (int round = 1; round <= options.max_length && !frontier.empty();
       ++round) {
    KBQA_TRACE_SPAN("rdf.expand.round");
    KBQA_HISTOGRAM_RECORD("rdf.expand.frontier_size", frontier.size());
    const bool last_round = round == options.max_length;
    // Scan pass: shards read the (immutable) frontier and KB adjacency and
    // fill their own discovery buffers, committed below in shard order.
    const size_t num_shards = std::min(kBfsShards, frontier.size());
    ParallelFor(
        *pool, frontier.size(), num_shards,
        [&](size_t shard, size_t begin, size_t end) {
          std::vector<Discovery>& local = shard_discoveries[shard];
          // Each out-edge of a walk's node yields at most one discovery, so
          // the shard's summed out-degree bounds its buffer.
          size_t bound = 0;
          for (size_t i = begin; i < end; ++i) {
            bound += kb.Out(frontier[i].cur).size();
          }
          local.clear();
          local.reserve(bound);
          for (size_t i = begin; i < end; ++i) {
            const WalkEntry& fe = frontier[i];
            for (const auto& [p, o] : kb.Out(fe.cur)) {
              const bool name_p = name_mask[p] != 0;
              // The tail rule (§6.3): length-1 paths always count; longer
              // ones only with a name-like tail unless disabled.
              const bool admissible =
                  round == 1 || !options.require_name_tail || name_p;
              // Walks continue through entity nodes only; literal objects
              // are leaves and a name-like edge is terminal by construction.
              const bool cont = !last_round && kb.IsEntity(o) && !name_p;
              if (admissible || cont) {
                local.push_back({fe.origin, fe.path, p, o,
                                 static_cast<uint8_t>(admissible),
                                 static_cast<uint8_t>(cont)});
              }
            }
          }
        });

    size_t num_next = 0;
    for (size_t shard = 0; shard < num_shards; ++shard) {
      for (const Discovery& d : shard_discoveries[shard]) num_next += d.cont;
    }
    // Commit in shard order: intern paths, record admissible triples
    // (enforcing the budget), and build the next frontier.
    std::vector<WalkEntry> next;
    next.reserve(num_next);
    for (size_t shard = 0; shard < num_shards; ++shard) {
      for (const Discovery& d : shard_discoveries[shard]) {
        PathId pid = ekb.paths_.InternExtension(d.parent, d.p);
        if (d.admissible) {
          if (triples >= options.max_triples) {
            return Status::OutOfRange(
                "expanded-triple budget exhausted; raise "
                "ExpansionOptions::max_triples or lower max_length");
          }
          ekb.by_s_[d.origin].push_back({pid, d.o});
          ++triples;
        }
        if (d.cont) next.push_back({d.origin, d.o, pid});
      }
    }
    frontier = std::move(next);
  }

  SortDedupBuckets(*pool, ekb.by_s_, &ekb.num_triples_);
  return ekb;
}

std::span<const std::pair<PathId, TermId>> ExpandedKb::Out(TermId s) const {
  auto it = by_s_.find(s);
  if (it == by_s_.end()) return {};
  return it->second;
}

std::vector<PathId> ExpandedKb::ConnectingPaths(TermId s, TermId o) const {
  std::vector<PathId> out;
  for (const auto& [pid, obj] : Out(s)) {
    if (obj == o) out.push_back(pid);
  }
  return out;
}

size_t ExpandedKb::NumPathsOfLength(int length) const {
  // Count only paths that actually back at least one triple.
  std::vector<bool> used(paths_.size(), false);
  for (const auto& [s, vec] : by_s_) {
    (void)s;
    for (const auto& [pid, o] : vec) {
      (void)o;
      used[pid] = true;
    }
  }
  size_t count = 0;
  for (PathId id = 0; id < paths_.size(); ++id) {
    if (used[id] && paths_.GetPath(id).size() == static_cast<size_t>(length)) {
      ++count;
    }
  }
  return count;
}

size_t ExpandedKb::NumTriplesOfLength(int length) const {
  size_t count = 0;
  for (const auto& [s, vec] : by_s_) {
    (void)s;
    for (const auto& [pid, o] : vec) {
      (void)o;
      if (paths_.GetPath(pid).size() == static_cast<size_t>(length)) ++count;
    }
  }
  return count;
}

void ExpandedKb::ForEachTriple(
    const std::function<void(const ExpandedTriple&)>& fn) const {
  for (const auto& [s, vec] : by_s_) {
    for (const auto& [pid, o] : vec) {
      fn(ExpandedTriple{s, pid, o});
    }
  }
}

std::vector<TermId> ObjectsViaPath(const KnowledgeBase& kb, TermId e,
                                   const PredPath& path,
                                   std::vector<TermId>* reads) {
  std::vector<TermId> frontier = {e};
  for (size_t depth = 0; depth < path.size(); ++depth) {
    std::vector<TermId> next;
    for (TermId node : frontier) {
      if (kb.IsLiteral(node)) continue;
      if (reads != nullptr) reads->push_back(node);
      for (const auto& po : kb.ObjectsRange(node, path[depth])) {
        next.push_back(po.o);
      }
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    frontier = std::move(next);
    if (frontier.empty()) break;
  }
  return frontier;
}

}  // namespace kbqa::rdf
