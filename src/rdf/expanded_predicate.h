#ifndef KBQA_RDF_EXPANDED_PREDICATE_H_
#define KBQA_RDF_EXPANDED_PREDICATE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rdf/knowledge_base.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace kbqa::rdf {

/// An expanded predicate p+ = (p1, ..., pk): a path of predicate edges
/// (Definition 1 in the paper). Length-1 paths are plain direct predicates,
/// so the rest of the system can treat "predicate" uniformly as a PredPath.
using PredPath = std::vector<PredId>;

/// Dense id for an interned PredPath.
using PathId = uint32_t;
inline constexpr PathId kInvalidPath = std::numeric_limits<PathId>::max();

/// Bidirectional PredPath <-> PathId dictionary.
///
/// Paths are interned as a prefix trie over (parent PathId, PredId)
/// extension edges, so the BFS hot path — extend an already-interned path
/// by one predicate — is a single integer-keyed hash probe via
/// InternExtension(), with no string key built and no path vector copied
/// on a hit. Interning a path interns its prefixes.
class PathDictionary {
 public:
  PathDictionary() = default;
  PathDictionary(const PathDictionary&) = delete;
  PathDictionary& operator=(const PathDictionary&) = delete;
  PathDictionary(PathDictionary&&) = default;
  PathDictionary& operator=(PathDictionary&&) = default;

  /// Interns the one-predicate extension of `parent` (kInvalidPath for the
  /// empty path). O(1); allocates only when the extension is new.
  PathId InternExtension(PathId parent, PredId p);

  /// Interns a full path (and, as a side effect, each of its prefixes).
  PathId Intern(const PredPath& path);

  /// Trie walk; never interns and never allocates.
  std::optional<PathId> Lookup(const PredPath& path) const;

  const PredPath& GetPath(PathId id) const { return paths_[id]; }
  size_t size() const { return paths_.size(); }

  /// Human-readable form, e.g. "marriage -> person -> name".
  std::string ToString(PathId id, const KnowledgeBase& kb) const;

 private:
  // (parent + 1, predicate) packed into one key; 0 encodes the empty path.
  std::unordered_map<uint64_t, PathId> ext_index_;
  std::vector<PredPath> paths_;
};

/// One materialized expanded triple (s, p+, o).
struct ExpandedTriple {
  TermId s;
  PathId path;
  TermId o;

  friend bool operator==(const ExpandedTriple&, const ExpandedTriple&) =
      default;
};

/// Options for expanded-predicate generation (§6.2–6.3).
struct ExpansionOptions {
  /// Maximum path length k. The paper selects k = 3 via valid(k) (§6.3).
  int max_length = 3;
  /// When true, paths of length >= 2 must end with a name-like predicate —
  /// the paper discards other tails as "very weak relations" (§6.3).
  bool require_name_tail = true;
  /// Hard cap on materialized triples (memory backstop; the paper's setting
  /// materializes 21M triples for a 11.5B-triple KB thanks to seed
  /// reduction).
  size_t max_triples = std::numeric_limits<size_t>::max();
  /// Worker threads for the per-round scan; read only by the Build
  /// overload that takes no pool. Values < 1 mean 1. KbqaSystem::Train
  /// expands on its one pool, sized by EmOptions::num_threads. The
  /// produced triple set AND the PathId numbering are bit-identical for
  /// any value (fixed shard split, shard-ordered merge, serial commit).
  int num_threads = 0;
};

/// Materialized set of expanded triples reachable from a seed entity set —
/// the product of the memory-efficient multi-source BFS of §6.2.
///
/// The BFS is round-based exactly as the paper describes: round r joins the
/// round-(r-1) frontier objects against subjects of the base KB, so the KB
/// is scanned k times and only frontier state is held. Complexity
/// O(|K| + #spo); memory O(#spo). Each round's frontier scan is sharded
/// across a thread pool; discoveries are committed serially in shard order,
/// keeping the output deterministic (see DESIGN.md).
class ExpandedKb {
 public:
  /// Runs the expansion from `seeds` (the paper seeds with entities that
  /// occur in the QA corpus — "reduction on s"). `name_like` is the set of
  /// predicates allowed as tails of length>=2 paths (typically {name,
  /// alias}).
  [[nodiscard]] static Result<ExpandedKb> Build(const KnowledgeBase& kb,
                                  const std::vector<TermId>& seeds,
                                  const std::unordered_set<PredId>& name_like,
                                  const ExpansionOptions& options);
  /// As above, scanning on `pool` (options.num_threads is not read).
  [[nodiscard]] static Result<ExpandedKb> Build(
      const KnowledgeBase& kb, const std::vector<TermId>& seeds,
      const std::unordered_set<PredId>& name_like,
      const ExpansionOptions& options, ThreadPool* pool);

  /// All expanded triples out of `s`, as (path, object) pairs sorted by
  /// (path, object): V(s, p+) is the stretch of this run whose path is p+.
  std::span<const std::pair<PathId, TermId>> Out(TermId s) const;

  /// All paths p+ with (s, p+, o) materialized.
  std::vector<PathId> ConnectingPaths(TermId s, TermId o) const;

  const PathDictionary& paths() const { return paths_; }
  size_t num_triples() const { return num_triples_; }
  /// Number of distinct paths of the given length that were materialized.
  size_t NumPathsOfLength(int length) const;
  /// Number of materialized triples whose path has the given length.
  size_t NumTriplesOfLength(int length) const;

  /// Enumerates every materialized triple (for valid(k) and case studies).
  void ForEachTriple(
      const std::function<void(const ExpandedTriple&)>& fn) const;

 private:
  ExpandedKb() = default;

  PathDictionary paths_;
  std::unordered_map<TermId, std::vector<std::pair<PathId, TermId>>> by_s_;
  size_t num_triples_ = 0;
};

/// Online value lookup for entities outside the materialized seed set:
/// walks `path` from `e` through the base KB (§6.1's "explore the RDF
/// knowledge base starting from e and going through p+"). Deduplicated.
/// When `reads` is non-null, every node whose out-edges the walk read (the
/// non-literal frontier nodes of each hop, hop by hop in sorted order) is
/// appended to it.
std::vector<TermId> ObjectsViaPath(const KnowledgeBase& kb, TermId e,
                                   const PredPath& path,
                                   std::vector<TermId>* reads = nullptr);

}  // namespace kbqa::rdf

#endif  // KBQA_RDF_EXPANDED_PREDICATE_H_
