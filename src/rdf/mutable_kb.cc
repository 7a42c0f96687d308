#include "rdf/mutable_kb.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/obs.h"

namespace kbqa::rdf {

namespace {

/// One thread's last PinLocal: the kb it pinned (0 when none), the
/// publish count it read first, and the snapshot.
struct LocalPin {
  uint64_t owner = 0;
  uint64_t publishes = 0;
  std::shared_ptr<const KbSnapshot> snapshot;
};
thread_local LocalPin local_pin;

std::atomic<uint64_t> next_kb_id{1};

uint64_t ElapsedNs(std::chrono::steady_clock::time_point begin) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - begin)
          .count());
}

bool PredObjLess(const PredicateObject& a, const PredicateObject& b) {
  if (a.p != b.p) return a.p < b.p;
  return a.o < b.o;
}

/// Resolves `term` against base-then-overlay without interning.
std::optional<TermId> ResolveNode(const KnowledgeBase& base,
                                  const DeltaOverlay& overlay,
                                  const std::string& term) {
  if (auto id = base.LookupNode(term)) return id;
  auto it = overlay.node_index.find(term);
  if (it != overlay.node_index.end()) return it->second;
  return std::nullopt;
}

std::optional<PredId> ResolvePred(const KnowledgeBase& base,
                                  const DeltaOverlay& overlay,
                                  const std::string& pred) {
  if (auto id = base.LookupPredicate(pred)) return id;
  auto it = overlay.pred_index.find(pred);
  if (it != overlay.pred_index.end()) return it->second;
  return std::nullopt;
}

TermId InternNode(const KnowledgeBase& base, DeltaOverlay* overlay,
                  const std::string& term, bool is_literal) {
  if (auto id = ResolveNode(base, *overlay, term)) return *id;
  const TermId id =
      static_cast<TermId>(base.num_nodes() + overlay->new_nodes.size());
  overlay->new_nodes.push_back(DeltaOverlay::Node{term, is_literal});
  overlay->node_index.emplace(term, id);
  return id;
}

PredId InternPred(const KnowledgeBase& base, DeltaOverlay* overlay,
                  const std::string& pred) {
  if (auto id = ResolvePred(base, *overlay, pred)) return *id;
  const PredId id =
      static_cast<PredId>(base.num_predicates() + overlay->new_preds.size());
  overlay->new_preds.push_back(pred);
  overlay->pred_index.emplace(pred, id);
  return id;
}

/// True when every id of `t` is base-resident AND the base holds the
/// triple — the only triples tombstones may name.
bool BaseHasTriple(const KnowledgeBase& base, const Triple& t) {
  return t.s < base.num_nodes() && t.p < base.num_predicates() &&
         t.o < base.num_nodes() && base.HasTriple(t.s, t.p, t.o);
}

/// Applies one op, part of the batch published as `version`, to the
/// mutable overlay. Later ops win: an add clears its triple's tombstone,
/// a delete removes its triple's overlay add. Either stamps its subject
/// with `version`. Deletes of unknown strings are no-ops and never intern
/// (so replaying an op log interns exactly the same strings in the same
/// order on every replay — the id-stability invariant depends on this).
void ApplyOp(const KnowledgeBase& base, const MutationOp& op,
             uint64_t version, DeltaOverlay* overlay) {
  if (op.is_delete) {
    const auto s = ResolveNode(base, *overlay, op.s);
    const auto p = ResolvePred(base, *overlay, op.p);
    const auto o = ResolveNode(base, *overlay, op.o);
    if (!s || !p || !o) return;
    const Triple t{*s, *p, *o};
    overlay->subject_versions[t.s] = version;
    auto it = overlay->adds.find(t.s);
    if (it != overlay->adds.end()) {
      const PredicateObject po{t.p, t.o};
      auto range = std::equal_range(it->second.begin(), it->second.end(), po,
                                    PredObjLess);
      if (range.first != range.second) {
        it->second.erase(range.first);
        --overlay->num_adds;
        if (it->second.empty()) overlay->adds.erase(it);
      }
    }
    if (BaseHasTriple(base, t)) overlay->tombstones.insert(t);
    return;
  }
  // Add. Subjects are always entities; the object kind is the op's call.
  const TermId s = InternNode(base, overlay, op.s, /*is_literal=*/false);
  const PredId p = InternPred(base, overlay, op.p);
  const TermId o = InternNode(base, overlay, op.o, op.object_is_literal);
  const Triple t{s, p, o};
  overlay->subject_versions[s] = version;
  overlay->tombstones.erase(t);
  if (BaseHasTriple(base, t)) return;  // base-resident again: tombstone gone
  std::vector<PredicateObject>& edges = overlay->adds[s];
  const PredicateObject po{p, o};
  auto pos = std::lower_bound(edges.begin(), edges.end(), po, PredObjLess);
  if (pos != edges.end() && pos->p == p && pos->o == o) return;  // duplicate
  edges.insert(pos, po);
  ++overlay->num_adds;
}

/// Compiles `ops` against `base` as if all were applied at `version`.
DeltaOverlay CompileOverlay(const KnowledgeBase& base,
                            std::span<const MutationOp> ops,
                            uint64_t version) {
  DeltaOverlay overlay;
  for (const MutationOp& op : ops) ApplyOp(base, op, version, &overlay);
  return overlay;
}

}  // namespace

// ---------- DeltaOverlay ----------

std::span<const PredicateObject> DeltaOverlay::AddsFor(TermId s) const {
  auto it = adds.find(s);
  if (it == adds.end()) return {};
  return {it->second.data(), it->second.size()};
}

std::span<const PredicateObject> DeltaOverlay::AddsRange(TermId s,
                                                         PredId p) const {
  auto edges = AddsFor(s);
  auto lo = std::lower_bound(edges.begin(), edges.end(),
                             PredicateObject{p, 0}, PredObjLess);
  auto hi = lo;
  while (hi != edges.end() && hi->p == p) ++hi;
  return {lo, hi};
}

// ---------- KbSnapshot ----------

bool KbSnapshot::IsLiteral(TermId id) const {
  if (id < base->num_nodes()) return base->IsLiteral(id);
  return overlay->new_nodes[id - base->num_nodes()].is_literal;
}

const std::string& KbSnapshot::NodeString(TermId id) const {
  if (id < base->num_nodes()) return base->NodeString(id);
  return overlay->new_nodes[id - base->num_nodes()].term;
}

std::string KbSnapshot::EntityName(TermId e) const {
  if (overlay->empty() && e < base->num_nodes()) return base->EntityName(e);
  const PredId name = base->name_predicate();
  if (name != kInvalidPred) {
    const std::vector<TermId> names = Objects(e, name);
    if (!names.empty()) return NodeString(names.front());
  }
  return NodeString(e);
}

std::optional<TermId> KbSnapshot::LookupNode(std::string_view term) const {
  if (auto id = base->LookupNode(term)) return id;
  if (overlay->node_index.empty()) return std::nullopt;
  auto it = overlay->node_index.find(std::string(term));
  if (it != overlay->node_index.end()) return it->second;
  return std::nullopt;
}

std::optional<PredId> KbSnapshot::LookupPredicate(std::string_view pred) const {
  if (auto id = base->LookupPredicate(pred)) return id;
  if (overlay->pred_index.empty()) return std::nullopt;
  auto it = overlay->pred_index.find(std::string(pred));
  if (it != overlay->pred_index.end()) return it->second;
  return std::nullopt;
}

std::vector<TermId> KbSnapshot::Objects(TermId s, PredId p) const {
  std::vector<TermId> out;
  if (s < base->num_nodes() && p < base->num_predicates()) {
    for (const PredicateObject& po : base->ObjectsRange(s, p)) {
      if (!overlay->Tombstoned(Triple{s, p, po.o})) out.push_back(po.o);
    }
  }
  const auto added = overlay->AddsRange(s, p);
  if (!added.empty()) {
    // Both runs are sorted by object and disjoint (adds never duplicate
    // base triples), so a merge keeps the frozen-CSR ordering contract.
    const size_t base_count = out.size();
    for (const PredicateObject& po : added) out.push_back(po.o);
    std::inplace_merge(out.begin(),
                       out.begin() + static_cast<ptrdiff_t>(base_count),
                       out.end());
  }
  return out;
}

std::vector<TermId> KbSnapshot::ObjectsViaPath(
    TermId e, const PredPath& path, std::vector<TermId>* reads) const {
  if (overlay->empty()) return rdf::ObjectsViaPath(*base, e, path, reads);
  std::vector<TermId> frontier = {e};
  for (size_t depth = 0; depth < path.size(); ++depth) {
    std::vector<TermId> next;
    for (TermId node : frontier) {
      if (IsLiteral(node)) continue;
      if (reads != nullptr) reads->push_back(node);
      const PredId p = path[depth];
      if (node < base->num_nodes() && p < base->num_predicates()) {
        for (const PredicateObject& po : base->ObjectsRange(node, p)) {
          if (!overlay->Tombstoned(Triple{node, p, po.o})) {
            next.push_back(po.o);
          }
        }
      }
      for (const PredicateObject& po : overlay->AddsRange(node, p)) {
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

bool KbSnapshot::HasTriple(TermId s, PredId p, TermId o) const {
  const Triple t{s, p, o};
  if (s < base->num_nodes() && p < base->num_predicates() &&
      o < base->num_nodes() && base->HasTriple(s, p, o)) {
    return !overlay->Tombstoned(t);
  }
  const auto range = overlay->AddsRange(s, p);
  return std::binary_search(range.begin(), range.end(), PredicateObject{p, o},
                            PredObjLess);
}

bool KbSnapshot::ChangedSince(std::span<const TermId> subjects,
                              uint64_t since) const {
  const auto& stamps = overlay->subject_versions;
  if (stamps.empty()) return false;
  for (TermId s : subjects) {
    auto it = stamps.find(s);
    if (it != stamps.end() && it->second > since) return true;
  }
  return false;
}

// ---------- RebuildKb ----------

KnowledgeBase RebuildKb(const KnowledgeBase& base, const DeltaOverlay& overlay,
                        int num_threads) {
  KnowledgeBase next;
  // Id-stable prefix: re-intern every base node and predicate in id order
  // before anything from the overlay. Dictionary ids are dense and
  // assigned in intern order, so every base id keeps its value and every
  // overlay id lands exactly where the overlay assigned it.
  const size_t base_nodes = base.num_nodes();
  for (TermId id = 0; id < base_nodes; ++id) {
    if (base.IsLiteral(id)) {
      next.AddLiteral(base.NodeString(id));
    } else {
      next.AddEntity(base.NodeString(id));
    }
  }
  for (const DeltaOverlay::Node& node : overlay.new_nodes) {
    if (node.is_literal) {
      next.AddLiteral(node.term);
    } else {
      next.AddEntity(node.term);
    }
  }
  const size_t base_preds = base.num_predicates();
  for (PredId p = 0; p < base_preds; ++p) {
    next.AddPredicate(base.PredicateString(p));
  }
  for (const std::string& pred : overlay.new_preds) next.AddPredicate(pred);
  if (base.name_predicate() != kInvalidPred) {
    next.SetNamePredicate(base.name_predicate());
  }

  // Surviving base triples, then overlay adds. Staging order is
  // irrelevant to the frozen layout (Freeze sorts and dedups per node),
  // so iterating the unordered adds map is deterministic in effect.
  for (TermId s = 0; s < base_nodes; ++s) {
    for (const PredicateObject& po : base.Out(s)) {
      if (!overlay.Tombstoned(Triple{s, po.p, po.o})) {
        next.AddTriple(s, po.p, po.o);
      }
    }
  }
  for (const auto& [s, edges] : overlay.adds) {
    for (const PredicateObject& po : edges) next.AddTriple(s, po.p, po.o);
  }
  next.Freeze(num_threads);
  return next;
}

// ---------- MutableKb ----------

MutableKb::MutableKb(KnowledgeBase base, Options options)
    : options_(options),
      id_(next_kb_id.fetch_add(1, std::memory_order_relaxed)) {
  auto initial = std::make_shared<KbSnapshot>();
  initial->base =
      std::make_shared<const KnowledgeBase>(std::move(base));
  initial->overlay = std::make_shared<const DeltaOverlay>();
  initial->epoch = 0;
  initial->version = 0;
  {
    MutexLock snapshot_lock(snapshot_mu_);
    snapshot_ = std::move(initial);
  }
  merge_thread_ = std::thread([this] { MergeLoop(); });
}

MutableKb::~MutableKb() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
    work_cv_.NotifyAll();
  }
  merge_thread_.join();
  // Only this thread's pin can be released here; every other thread that
  // read this kb keeps its last snapshot until its next PinLocal or exit.
  if (local_pin.owner == id_) local_pin = LocalPin{};
}

const KbSnapshot& MutableKb::PinLocal() const {
  LocalPin& local = local_pin;
  const uint64_t publishes = publishes_.load(std::memory_order_acquire);
  if (local.owner != id_ || local.publishes != publishes) {
    // Pin() runs after the load, so the snapshot is at least as new as
    // `publishes` says; a publish in between only costs a re-pin later.
    local.snapshot = Pin();
    local.owner = id_;
    local.publishes = publishes;
  }
  return *local.snapshot;
}

void MutableKb::Publish(std::shared_ptr<const KbSnapshot> next) {
  {
    MutexLock snapshot_lock(snapshot_mu_);
    snapshot_.swap(next);
  }
  publishes_.fetch_add(1, std::memory_order_release);
  // `next` now holds the replaced snapshot, dropped here off the lock.
}

void MutableKb::Apply(std::span<const MutationOp> batch) {
  if (batch.empty()) return;
  size_t overlay_adds = 0;
  size_t overlay_tombstones = 0;
  uint64_t new_version = 0;
  {
    MutexLock lock(mu_);
    const std::shared_ptr<const KbSnapshot> current = Pin();
    ++version_;
    for (const MutationOp& op : batch) {
      ApplyOp(*current->base, op, version_, &builder_);
      ops_.push_back(op);
    }
    new_version = version_;
    auto next = std::make_shared<KbSnapshot>();
    next->base = current->base;
    next->overlay = std::make_shared<const DeltaOverlay>(builder_);
    next->state = current->state;
    next->epoch = epoch_;
    next->version = version_;
    overlay_adds = builder_.num_adds;
    overlay_tombstones = builder_.tombstones.size();
    Publish(std::move(next));
    if (options_.auto_merge && !merge_in_progress_ &&
        ops_.size() >= options_.merge_trigger_ops) {
      merge_requested_ = true;
      work_cv_.NotifyOne();
    }
  }
  KBQA_COUNTER_ADD("kb.live.mutations", batch.size());
  KBQA_GAUGE_SET("kb.live.overlay_adds", overlay_adds);
  KBQA_GAUGE_SET("kb.live.overlay_tombstones", overlay_tombstones);
  KBQA_GAUGE_SET("kb.live.version", new_version);
}

void MutableKb::AddTriple(std::string_view s, std::string_view p,
                          std::string_view o, bool object_is_literal) {
  MutationOp op;
  op.s = std::string(s);
  op.p = std::string(p);
  op.o = std::string(o);
  op.object_is_literal = object_is_literal;
  Apply({&op, 1});
}

void MutableKb::DeleteTriple(std::string_view s, std::string_view p,
                             std::string_view o) {
  MutationOp op;
  op.is_delete = true;
  op.s = std::string(s);
  op.p = std::string(p);
  op.o = std::string(o);
  Apply({&op, 1});
}

void MutableKb::ForceMerge() {
  MutexLock lock(mu_);
  while (true) {
    if (ops_.empty() && !merge_in_progress_ && !merge_requested_) return;
    if (!merge_in_progress_ && !merge_requested_) {
      merge_requested_ = true;
      work_cv_.NotifyOne();
    }
    idle_cv_.Wait(mu_);
  }
}

void MutableKb::WaitForMergeIdle() {
  MutexLock lock(mu_);
  while (merge_in_progress_ || merge_requested_) idle_cv_.Wait(mu_);
}

void MutableKb::SetStateFactory(StateFactory factory) {
  MutexLock factory_lock(factory_mu_);
  factory_ = std::move(factory);
  // Merges publish under factory_mu_, so the base cannot change before
  // the republish below.
  std::shared_ptr<const void> state;
  if (factory_) state = factory_(Pin()->base);
  MutexLock lock(mu_);
  auto next = std::make_shared<KbSnapshot>(*Pin());
  next->state = std::move(state);
  // Same epoch and version: only the publish count tells readers.
  Publish(std::move(next));
}

size_t MutableKb::pending_ops() const {
  MutexLock lock(mu_);
  return ops_.size();
}

uint64_t MutableKb::merges_completed() const {
  MutexLock lock(mu_);
  return merges_completed_;
}

void MutableKb::MergeLoop() {
  while (true) {
    std::shared_ptr<const KnowledgeBase> base;
    std::vector<MutationOp> batch;
    {
      MutexLock lock(mu_);
      while (!merge_requested_ && !shutdown_) work_cv_.Wait(mu_);
      if (shutdown_) return;
      merge_requested_ = false;
      if (ops_.empty()) {
        idle_cv_.NotifyAll();
        continue;
      }
      merge_in_progress_ = true;
      batch = ops_;  // the prefix this merge will consume
      base = Pin()->base;
    }

    // Off-lock rebuild: readers keep answering from the old snapshot and
    // writers keep extending ops_ while the new base freezes.
    const auto merge_begin = std::chrono::steady_clock::now();
    auto next_base = std::make_shared<const KnowledgeBase>(RebuildKb(
        *base, CompileOverlay(*base, batch, /*version=*/0),
        options_.merge_threads));

    uint64_t published_epoch = 0;
    {
      // The new base's state is built before its publish, so no reader
      // ever pins the base without it; factory_mu_ keeps the factory from
      // being replaced in between.
      MutexLock factory_lock(factory_mu_);
      std::shared_ptr<const void> state;
      if (factory_) state = factory_(next_base);
      MutexLock lock(mu_);
      // Publish: drop the consumed prefix, re-compile the residual ops
      // (arrived during the rebuild) against the new base, swap. The
      // residual ops carry the publish version: the new epoch's first
      // snapshot already contains them.
      ops_.erase(ops_.begin(),
                 ops_.begin() + static_cast<ptrdiff_t>(batch.size()));
      ++epoch_;
      ++version_;
      builder_ = CompileOverlay(*next_base, ops_, version_);
      auto next = std::make_shared<KbSnapshot>();
      next->base = next_base;
      next->overlay = std::make_shared<const DeltaOverlay>(builder_);
      next->state = std::move(state);
      next->epoch = epoch_;
      next->version = version_;
      published_epoch = epoch_;
      Publish(std::move(next));
    }
    KBQA_COUNTER_ADD("kb.live.merges", 1);
    KBQA_HISTOGRAM_RECORD("kb.live.merge_ns", ElapsedNs(merge_begin));
    KBQA_GAUGE_SET("kb.live.epoch", published_epoch);
    {
      MutexLock lock(mu_);
      merge_in_progress_ = false;
      ++merges_completed_;
      if (options_.auto_merge && ops_.size() >= options_.merge_trigger_ops) {
        merge_requested_ = true;  // backlog grew past the trigger again
      }
      idle_cv_.NotifyAll();
    }
  }
}

}  // namespace kbqa::rdf
