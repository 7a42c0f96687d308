#ifndef KBQA_RDF_MUTABLE_KB_H_
#define KBQA_RDF_MUTABLE_KB_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rdf/expanded_predicate.h"
#include "rdf/knowledge_base.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace kbqa::rdf {

/// One live mutation, by surface strings (the mutation API mirrors the
/// string-form AddTriple so callers never manage ids — id assignment is
/// the overlay's job and must stay deterministic for the id-stability
/// invariant below).
struct MutationOp {
  bool is_delete = false;
  std::string s;
  std::string p;
  std::string o;
  /// Node kind of `o` when the add has to intern it. Ignored for deletes
  /// (a delete never interns anything — unknown strings make it a no-op).
  bool object_is_literal = false;
};

struct TripleHash {
  size_t operator()(const Triple& t) const {
    uint64_t h = static_cast<uint64_t>(t.s);
    h = h * 0x9e3779b97f4a7c15ULL + t.p;
    h = h * 0x9e3779b97f4a7c15ULL + t.o;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<size_t>(h);
  }
};

/// The uncompressed delta between a frozen base KB and the live world:
/// new nodes/predicates appended after the base id space, added edges
/// grouped by subject (each group sorted by (predicate, object) — the
/// same order as a frozen CSR node range), and a tombstone set of deleted
/// base triples. Immutable once published inside a KbSnapshot; MutableKb
/// keeps a private mutable copy it re-publishes on every Apply.
///
/// Merge rule (DESIGN.md §10): visible(K) = (base \ tombstones) ∪ adds,
/// with `adds` disjoint from base triples and tombstones only ever naming
/// base-resident triples, so the union is disjoint and the subtraction
/// exact. Later ops win: an add clears any tombstone on its triple, a
/// delete removes any overlay add of it.
struct DeltaOverlay {
  struct Node {
    std::string term;
    bool is_literal = false;
  };

  /// Nodes interned after the base: new_nodes[i] has id base_nodes + i.
  std::vector<Node> new_nodes;
  std::unordered_map<std::string, TermId> node_index;
  /// Predicates interned after the base: new_preds[i] = base_preds + i.
  std::vector<std::string> new_preds;
  std::unordered_map<std::string, PredId> pred_index;
  /// Added edges by subject, each vector sorted by (p, o), deduplicated,
  /// and disjoint from the base triples.
  std::unordered_map<TermId, std::vector<PredicateObject>> adds;
  /// Deleted base triples (exact set; only triples the base contains).
  std::unordered_set<Triple, TripleHash> tombstones;
  /// For every subject an op of this epoch named: the version of the last
  /// such op. An op can only change its own subject's out-edges, so a
  /// subject absent here (or stamped at or before v) has the out-edges it
  /// had at version v. Stamps outlive the edits themselves — an add undone
  /// by a later delete leaves the subject stamped at the delete.
  std::unordered_map<TermId, uint64_t> subject_versions;
  /// Total edges across `adds` (gauge fodder; adds maps are small).
  size_t num_adds = 0;

  bool empty() const { return num_adds == 0 && tombstones.empty(); }

  /// Added out-edges of `s`, sorted by (p, o). Empty when none.
  std::span<const PredicateObject> AddsFor(TermId s) const;
  /// The (p, o) run for one predicate within AddsFor(s).
  std::span<const PredicateObject> AddsRange(TermId s, PredId p) const;
  bool Tombstoned(const Triple& t) const {
    return !tombstones.empty() && tombstones.count(t) != 0;
  }
};

/// An immutable, pinnable view of the live KB: a frozen base plus the
/// delta overlay that was current when the snapshot was published. Readers
/// pin one snapshot (MutableKb::Pin or PinLocal) for the duration of one
/// Answer and see a consistent world no matter how many Applies or merges
/// land meanwhile.
///
/// `version` increments on every Apply and every merge publish; the
/// overlay stamps each subject it touched with one (ChangedSince).
/// `epoch` increments only when a merge publishes a new base — it is the
/// scope of every live cache entry. Base-derived read structures (NER
/// gazetteer, per-epoch engines) travel with the snapshot as `state`.
///
/// The read API mirrors the KnowledgeBase calls the online pipeline uses,
/// with identical result ordering: merged object lists are sorted unique,
/// so an empty overlay makes every method bit-identical to the base call.
class KbSnapshot {
 public:
  std::shared_ptr<const KnowledgeBase> base;
  std::shared_ptr<const DeltaOverlay> overlay;
  /// What the installed state factory built from `base`
  /// (MutableKb::SetStateFactory), opaque to the KB; null while no factory
  /// is installed. Apply carries it forward; a merge publish or an install
  /// replaces it. Declared after `base`, so it is destroyed first.
  std::shared_ptr<const void> state;
  uint64_t epoch = 0;
  uint64_t version = 0;

  size_t num_nodes() const {
    return base->num_nodes() + overlay->new_nodes.size();
  }
  size_t num_predicates() const {
    return base->num_predicates() + overlay->new_preds.size();
  }

  bool IsLiteral(TermId id) const;
  const std::string& NodeString(TermId id) const;
  /// First merged object under the base's name predicate, else the node's
  /// own string — the same rule as KnowledgeBase::EntityName.
  std::string EntityName(TermId e) const;

  std::optional<TermId> LookupNode(std::string_view term) const;
  std::optional<PredId> LookupPredicate(std::string_view pred) const;

  /// Merged V(e, p): (base objects \ tombstones) ∪ overlay adds, sorted.
  std::vector<TermId> Objects(TermId s, PredId p) const;
  /// Merged BFS walk — the live equivalent of rdf::ObjectsViaPath, with
  /// the identical sort/unique frontier discipline. `reads` (nullable)
  /// receives the nodes whose out-edges the walk read, exactly as
  /// rdf::ObjectsViaPath reports them — an empty overlay included.
  std::vector<TermId> ObjectsViaPath(TermId e, const PredPath& path,
                                     std::vector<TermId>* reads = nullptr)
      const;
  bool HasTriple(TermId s, PredId p, TermId o) const;

  /// True when an op of this epoch after version `since` named one of
  /// `subjects` as its subject — i.e. when a read of those subjects'
  /// out-edges at `since` may differ from the same read here. Only
  /// meaningful for a `since` of this snapshot's epoch: a merge publish
  /// drops every stamp of the epoch it closes.
  bool ChangedSince(std::span<const TermId> subjects, uint64_t since) const;
};

/// Rebuilds a frozen KnowledgeBase equal to `base` with `overlay` merged
/// in. Id-stability invariant: every base node/predicate is re-interned
/// in id order before any overlay entry, so all base TermIds/PredIds — and
/// therefore trained template stores, path dictionaries, taxonomy links,
/// and NER gazetteers — remain valid in the rebuilt KB, and overlay ids
/// keep the exact values the overlay assigned. Freeze() sorts per node,
/// so the output is bit-identical to a from-scratch freeze of the mutated
/// world for any `num_threads`.
KnowledgeBase RebuildKb(const KnowledgeBase& base, const DeltaOverlay& overlay,
                        int num_threads);

/// Live-mutation shell over a frozen KnowledgeBase (DESIGN.md §10).
///
/// Writers call Apply/AddTriple/DeleteTriple; each Apply publishes a new
/// KbSnapshot (same base and state, copy-on-write overlay, version+1) via
/// an RCU-style shared_ptr swap, so readers never block on writers' work
/// and never observe a half-applied batch. When the pending op count
/// reaches `merge_trigger_ops` (and auto_merge is on), a background
/// thread rebuilds a fresh CSR base off-lock via RebuildKb, builds the
/// installed factory's state for it, then publishes both — epoch+1 — with
/// the residual overlay compiled from ops that arrived during the
/// rebuild, their subjects stamped with the publish version. Every publish
/// bumps a publish count after its swap. Readers pin via PinLocal(), which
/// re-pins only after a publish, or via Pin(). Old snapshots die when the
/// last pin drops them, and a thread's local pin is dropped only at its
/// next PinLocal, at its exit, or when it destroys this kb.
///
/// Thread safety: all methods are safe to call concurrently. `Pin` takes
/// a leaf mutex for one shared_ptr copy and never waits on a writer's
/// work; `PinLocal` between publishes takes no lock and writes nothing
/// shared; writers serialize on one mutex; the merge rebuild and the
/// state factory run outside it.
class MutableKb {
 public:
  struct Options {
    /// Pending-op count that triggers a background merge (README knob).
    size_t merge_trigger_ops = 256;
    /// Thread count handed to Freeze() during the background rebuild.
    int merge_threads = 1;
    /// When false, merges happen only via ForceMerge (tests, benches that
    /// want to control the merge point exactly).
    bool auto_merge = true;
  };

  /// Builds the reader state that travels with every snapshot of `base`
  /// (KbSnapshot::state) — the live engine's gazetteer and inference
  /// engine for one epoch.
  using StateFactory = std::function<std::shared_ptr<const void>(
      const std::shared_ptr<const KnowledgeBase>& base)>;

  /// Takes ownership of the frozen base (epoch 0, version 0, empty
  /// overlay).
  explicit MutableKb(KnowledgeBase base, Options options);
  explicit MutableKb(KnowledgeBase base)
      : MutableKb(std::move(base), Options()) {}
  ~MutableKb();

  MutableKb(const MutableKb&) = delete;
  MutableKb& operator=(const MutableKb&) = delete;

  /// The current snapshot: a leaf-mutex lock plus a shared_ptr copy, so
  /// concurrent callers contend on the lock and on the snapshot's
  /// reference count. Hold the returned pointer for the duration of one
  /// logical read (one Answer); publishers never block on readers.
  std::shared_ptr<const KbSnapshot> Pin() const {
    MutexLock lock(snapshot_mu_);
    return snapshot_;
  }

  /// The current snapshot through this thread's local pin: the thread
  /// keeps its last pin with the publish count it read, and re-pins
  /// through Pin() only when the count has moved or the pin is another
  /// kb's. Between publishes a call is one acquire load and writes no
  /// memory that other threads share. A read that starts after a
  /// publish has returned loads a count at least that new, so it sees
  /// the publish. The reference is valid until this thread's next
  /// PinLocal of any MutableKb or this kb's destruction on this thread,
  /// and the thread keeps that snapshot alive until then or its exit.
  const KbSnapshot& PinLocal() const;

  /// Applies a batch of ops atomically: readers see either none or all of
  /// the batch. Publishes a new snapshot (version+1) whose overlay stamps
  /// every op's subject with that version.
  void Apply(std::span<const MutationOp> batch);
  void AddTriple(std::string_view s, std::string_view p, std::string_view o,
                 bool object_is_literal);
  void DeleteTriple(std::string_view s, std::string_view p,
                    std::string_view o);

  /// Blocks until every op applied before the call has been merged into a
  /// frozen base (runs a merge if one isn't already pending).
  void ForceMerge();
  /// Blocks until no merge is running or requested (pending ops may
  /// remain if they are below the trigger).
  void WaitForMergeIdle();

  /// Installs `factory`, or clears it when null, and republishes the
  /// current snapshot with the new factory's state for the current base
  /// (null when cleared); epoch and version stay. From then on every merge
  /// calls it on the rebuilt base, on the merge thread, before that epoch
  /// is published, so no snapshot ever pairs a base with another base's
  /// state. Waits for a factory call in flight, so once this returns the
  /// replaced factory is never called again and no later publish carries
  /// its state: an owner may clear its factory and then destroy what the
  /// factory reads. The factory must not call SetStateFactory, ForceMerge
  /// or WaitForMergeIdle.
  void SetStateFactory(StateFactory factory);

  uint64_t epoch() const { return Pin()->epoch; }
  uint64_t version() const { return Pin()->version; }
  /// Ops applied since the last epoch publish (0 right after a merge).
  size_t pending_ops() const;
  uint64_t merges_completed() const;

 private:
  void MergeLoop();
  /// Swaps in `next` and then bumps the publish count. Callers hold mu_,
  /// so swaps and bumps keep one order.
  void Publish(std::shared_ptr<const KbSnapshot> next) REQUIRES(mu_);

  Options options_;
  /// Process-unique, so a thread's local pin never mistakes a later
  /// MutableKb at this address for this one.
  const uint64_t id_;

  /// Held across every factory call and the publish that carries its
  /// result, so an install never interleaves with a merge's. Taken before
  /// mu_, never while holding it.
  Mutex factory_mu_;
  StateFactory factory_ GUARDED_BY(factory_mu_);

  mutable Mutex mu_;
  /// Source of truth for un-merged state: the ops since the last epoch
  /// publish, in order, plus the overlay they compile to against the
  /// current base.
  std::vector<MutationOp> ops_ GUARDED_BY(mu_);
  DeltaOverlay builder_ GUARDED_BY(mu_);
  uint64_t epoch_ GUARDED_BY(mu_) = 0;
  uint64_t version_ GUARDED_BY(mu_) = 0;
  uint64_t merges_completed_ GUARDED_BY(mu_) = 0;
  bool merge_requested_ GUARDED_BY(mu_) = false;
  bool merge_in_progress_ GUARDED_BY(mu_) = false;
  bool shutdown_ GUARDED_BY(mu_) = false;
  CondVar work_cv_;
  CondVar idle_cv_;

  /// RCU publication point: a dedicated leaf lock around the shared_ptr
  /// copy, acquired after mu_ and never held across any work; readers
  /// take it only through Pin(), which PinLocal calls after a publish.
  /// (Not std::atomic<shared_ptr>: libstdc++ implements that as a
  /// per-object spinlock whose plain-pointer internals TSan cannot model
  /// — the annotated mutex costs the same and keeps tsan.supp empty.)
  mutable Mutex snapshot_mu_;
  std::shared_ptr<const KbSnapshot> snapshot_ GUARDED_BY(snapshot_mu_);
  /// Publishes so far: bumped with release order after every swap of
  /// snapshot_, so a reader that acquire-loads a count and then pins
  /// sees a snapshot at least as new as the publish that made it.
  std::atomic<uint64_t> publishes_{0};

  std::thread merge_thread_;
};

}  // namespace kbqa::rdf

#endif  // KBQA_RDF_MUTABLE_KB_H_
