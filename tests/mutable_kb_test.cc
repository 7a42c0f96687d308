#include "rdf/mutable_kb.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rdf/knowledge_base.h"
#include "util/rng.h"

namespace kbqa::rdf {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Saves both stores and compares the snapshot bytes — Save serializes
/// the frozen CSR directly, so byte equality is bit-identity of the
/// entire frozen layout (dictionaries, node kinds, both CSR directions).
void ExpectBitIdentical(const KnowledgeBase& a, const KnowledgeBase& b,
                        const std::string& tag) {
  const std::string pa = ::testing::TempDir() + "/mkb_a_" + tag + ".bin";
  const std::string pb = ::testing::TempDir() + "/mkb_b_" + tag + ".bin";
  ASSERT_TRUE(a.Save(pa).ok());
  ASSERT_TRUE(b.Save(pb).ok());
  EXPECT_EQ(ReadFileBytes(pa), ReadFileBytes(pb)) << tag;
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

/// From-scratch freeze of the mutated world: an independent replay of the
/// op-log semantics through the public KnowledgeBase API. Base dictionary
/// entries are re-interned in id order first (the id-stability invariant),
/// then ops replay in order — adds intern unseen strings as they appear,
/// deletes never intern — over a plain triple set.
KnowledgeBase BuildReference(const KnowledgeBase& base,
                             const std::vector<MutationOp>& ops,
                             int num_threads) {
  KnowledgeBase next;
  for (TermId id = 0; id < base.num_nodes(); ++id) {
    if (base.IsLiteral(id)) {
      next.AddLiteral(base.NodeString(id));
    } else {
      next.AddEntity(base.NodeString(id));
    }
  }
  for (PredId p = 0; p < base.num_predicates(); ++p) {
    next.AddPredicate(base.PredicateString(p));
  }
  if (base.name_predicate() != kInvalidPred) {
    next.SetNamePredicate(base.name_predicate());
  }
  std::set<std::array<uint64_t, 3>> triples;
  for (TermId s = 0; s < base.num_nodes(); ++s) {
    for (const PredicateObject& po : base.Out(s)) {
      triples.insert({s, po.p, po.o});
    }
  }
  for (const MutationOp& op : ops) {
    if (op.is_delete) {
      auto s = next.LookupNode(op.s);
      auto p = next.LookupPredicate(op.p);
      auto o = next.LookupNode(op.o);
      if (!s || !p || !o) continue;
      triples.erase({*s, *p, *o});
      continue;
    }
    const TermId s = next.AddEntity(op.s);
    const PredId p = next.AddPredicate(op.p);
    const TermId o =
        op.object_is_literal ? next.AddLiteral(op.o) : next.AddEntity(op.o);
    triples.insert({s, p, o});
  }
  for (const auto& t : triples) {
    next.AddTriple(static_cast<TermId>(t[0]), static_cast<PredId>(t[1]),
                   static_cast<TermId>(t[2]));
  }
  next.Freeze(num_threads);
  return next;
}

/// The paper's Figure 1 toy world (same facts as rdf_test's fixture).
KnowledgeBase BuildToyKb() {
  KnowledgeBase kb;
  PredId name = kb.AddPredicate("name");
  kb.SetNamePredicate(name);
  kb.AddTriple("person/a", "name", "barack obama", true);
  kb.AddTriple("person/a", "dob", "1961", true);
  kb.AddTriple("person/a", "pob", "city/d", false);
  kb.AddTriple("person/a", "marriage", "marriage/b", false);
  kb.AddTriple("marriage/b", "person", "person/c", false);
  kb.AddTriple("marriage/b", "date", "1992", true);
  kb.AddTriple("person/c", "name", "michelle obama", true);
  kb.AddTriple("person/c", "dob", "1964", true);
  kb.AddTriple("city/d", "name", "honolulu", true);
  kb.AddTriple("city/d", "population", "390000", true);
  kb.Freeze();
  return kb;
}

MutableKb::Options ManualMerge() {
  MutableKb::Options options;
  options.auto_merge = false;
  return options;
}

TEST(MutableKbTest, AddIsVisibleBeforeAnyMerge) {
  MutableKb live(BuildToyKb(), ManualMerge());
  auto before = live.Pin();
  const TermId a = *before->LookupNode("person/a");
  const PredId dob = *before->LookupPredicate("dob");

  live.AddTriple("person/a", "dob", "1962", /*object_is_literal=*/true);

  auto after = live.Pin();
  EXPECT_EQ(after->epoch, 0u);
  EXPECT_EQ(after->version, 1u);
  const TermId v1962 = *after->LookupNode("1962");
  EXPECT_GE(v1962, before->base->num_nodes());  // overlay node
  EXPECT_TRUE(after->IsLiteral(v1962));
  EXPECT_EQ(after->NodeString(v1962), "1962");
  EXPECT_EQ(after->Objects(a, dob),
            (std::vector<TermId>{*before->LookupNode("1961"), v1962}));
  // The pinned pre-mutation snapshot is untouched (RCU isolation).
  EXPECT_EQ(before->Objects(a, dob),
            (std::vector<TermId>{*before->LookupNode("1961")}));
}

TEST(MutableKbTest, DeleteTombstonesAndLaterOpWins) {
  MutableKb live(BuildToyKb(), ManualMerge());
  auto snap = live.Pin();
  const TermId a = *snap->LookupNode("person/a");
  const PredId dob = *snap->LookupPredicate("dob");
  const TermId y1961 = *snap->LookupNode("1961");

  live.DeleteTriple("person/a", "dob", "1961");
  EXPECT_TRUE(live.Pin()->Objects(a, dob).empty());
  EXPECT_FALSE(live.Pin()->HasTriple(a, dob, y1961));

  // Later op wins: re-add resurrects the base triple (tombstone cleared),
  // without duplicating it.
  live.AddTriple("person/a", "dob", "1961", true);
  EXPECT_EQ(live.Pin()->Objects(a, dob), (std::vector<TermId>{y1961}));
  EXPECT_TRUE(live.Pin()->HasTriple(a, dob, y1961));

  // Deleting an overlay add removes it again.
  live.AddTriple("person/a", "dob", "1962", true);
  live.DeleteTriple("person/a", "dob", "1962");
  EXPECT_EQ(live.Pin()->Objects(a, dob), (std::vector<TermId>{y1961}));

  // Deleting unknown strings is a no-op and interns nothing.
  const size_t nodes_before = live.Pin()->num_nodes();
  live.DeleteTriple("person/a", "dob", "never seen");
  live.DeleteTriple("ghost", "dob", "1961");
  EXPECT_EQ(live.Pin()->num_nodes(), nodes_before);
  EXPECT_EQ(live.Pin()->Objects(a, dob), (std::vector<TermId>{y1961}));
}

TEST(MutableKbTest, MergedPathWalkSeesOverlayHops) {
  MutableKb live(BuildToyKb(), ManualMerge());
  auto snap = live.Pin();
  const TermId a = *snap->LookupNode("person/a");
  const PredId marriage = *snap->LookupPredicate("marriage");
  const PredId name = *snap->LookupPredicate("name");
  const PredId person = *snap->LookupPredicate("person");

  // Add a second marriage CVT entirely in the overlay, then walk
  // marriage -> person -> name across base and overlay hops.
  live.AddTriple("person/a", "marriage", "marriage/b2", false);
  live.AddTriple("marriage/b2", "person", "person/e", false);
  live.AddTriple("person/e", "name", "jane roe", true);

  auto after = live.Pin();
  const PredPath path = {marriage, person, name};
  const std::vector<TermId> names = after->ObjectsViaPath(a, path);
  std::vector<std::string> strings;
  for (TermId id : names) strings.push_back(after->NodeString(id));
  std::sort(strings.begin(), strings.end());
  EXPECT_EQ(strings,
            (std::vector<std::string>{"jane roe", "michelle obama"}));

  // Tombstoning the base hop prunes that branch of the walk.
  live.DeleteTriple("person/a", "marriage", "marriage/b");
  const std::vector<TermId> pruned = live.Pin()->ObjectsViaPath(a, path);
  ASSERT_EQ(pruned.size(), 1u);
  EXPECT_EQ(live.Pin()->NodeString(pruned[0]), "jane roe");
}

TEST(MutableKbTest, ApplyStampsEachSubjectWithItsBatchVersion) {
  MutableKb live(BuildToyKb(), ManualMerge());
  const auto base = live.Pin();
  const TermId a = *base->LookupNode("person/a");
  const TermId c = *base->LookupNode("person/c");
  const TermId d = *base->LookupNode("city/d");
  const TermId b = *base->LookupNode("marriage/b");
  EXPECT_TRUE(base->overlay->subject_versions.empty());

  const std::vector<MutationOp> batch = {
      {false, "person/a", "dob", "1962", true},
      {true, "city/d", "population", "390000", true},
  };
  live.Apply(batch);                                    // version 1
  live.AddTriple("person/c", "dob", "1965", true);      // version 2
  live.DeleteTriple("person/c", "dob", "1965");         // version 3
  live.AddTriple("live/new", "likes", "city/d", false);  // version 4

  const auto snap = live.Pin();
  ASSERT_EQ(snap->version, 4u);
  const TermId fresh = *snap->LookupNode("live/new");
  const auto& stamps = snap->overlay->subject_versions;
  EXPECT_EQ(stamps.size(), 4u);
  EXPECT_EQ(stamps.at(a), 1u);
  // The delete undid the add, yet person/c stays stamped: a read of its
  // edges at version 2 saw the add, so it must not survive version 3.
  EXPECT_EQ(stamps.at(c), 3u);
  EXPECT_EQ(stamps.at(fresh), 4u);
  // An object is not a subject: city/d keeps its batch-1 stamp.
  EXPECT_EQ(stamps.at(d), 1u);

  const std::vector<TermId> ad = {a, d};
  EXPECT_TRUE(snap->ChangedSince(ad, 0));
  EXPECT_FALSE(snap->ChangedSince(ad, 1));
  EXPECT_TRUE(snap->ChangedSince(std::vector<TermId>{b, c}, 2));
  EXPECT_FALSE(snap->ChangedSince(std::vector<TermId>{b, c}, 3));
  EXPECT_FALSE(snap->ChangedSince(std::vector<TermId>{b}, 0));
  // The snapshot pinned before any write saw no change at all.
  EXPECT_FALSE(base->ChangedSince(ad, 0));
}

TEST(MutableKbTest, DeleteOfUnknownStringsInternsAndStampsNothing) {
  MutableKb live(BuildToyKb(), ManualMerge());
  const size_t nodes = live.Pin()->num_nodes();
  const size_t preds = live.Pin()->num_predicates();
  live.DeleteTriple("ghost", "dob", "1961");
  live.DeleteTriple("person/a", "no such predicate", "1961");
  live.DeleteTriple("person/a", "dob", "never seen");

  const auto snap = live.Pin();
  EXPECT_EQ(snap->version, 3u);
  EXPECT_EQ(snap->num_nodes(), nodes);
  EXPECT_EQ(snap->num_predicates(), preds);
  EXPECT_TRUE(snap->overlay->new_nodes.empty());
  EXPECT_TRUE(snap->overlay->new_preds.empty());
  EXPECT_TRUE(snap->overlay->empty());
  // None of them could change an edge, so none marks a subject changed.
  EXPECT_TRUE(snap->overlay->subject_versions.empty());
}

TEST(MutableKbTest, ResidualOpsRecompiledAtPublishCarryThePublishVersion) {
  // Every Apply requests a merge, and the state factory — called between
  // a merge's rebuild and its publish — parks each merge until the test
  // has written more ops, so every publish carries a residual overlay.
  MutableKb::Options options;
  options.merge_trigger_ops = 1;
  MutableKb live(BuildToyKb(), options);
  std::mutex mu;
  std::condition_variable cv;
  bool gating = false;
  int parked = 0;    // merges that reached the factory
  int released = 0;  // merges the test let publish
  live.SetStateFactory([&](const std::shared_ptr<const KnowledgeBase>&) {
    std::unique_lock<std::mutex> lock(mu);
    if (gating) {
      const int me = ++parked;
      cv.notify_all();
      cv.wait(lock, [&] { return !gating || released >= me; });
    }
    return std::shared_ptr<const void>();
  });
  {
    std::lock_guard<std::mutex> lock(mu);
    gating = true;
  }

  int residual_publishes = 0;
  int op = 0;
  const auto add = [&] {
    live.AddTriple("person/a", "visited", "place_" + std::to_string(op++),
                   false);
  };
  add();  // requests the first merge
  for (uint64_t epoch = 1; epoch <= 3; ++epoch) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return parked == static_cast<int>(epoch); });
    }
    // The merge has consumed its batch: these two ops are its residual.
    add();
    add();
    {
      std::lock_guard<std::mutex> lock(mu);
      released = static_cast<int>(epoch);
    }
    cv.notify_all();
    // The next merge (requested by the residual) parks before it can
    // publish, so the first snapshot seen at this epoch is the publish.
    std::shared_ptr<const KbSnapshot> snap = live.Pin();
    while (snap->epoch < epoch) {
      std::this_thread::yield();
      snap = live.Pin();
    }
    ASSERT_EQ(snap->epoch, epoch);
    const auto& stamps = snap->overlay->subject_versions;
    if (!stamps.empty()) ++residual_publishes;
    for (const auto& [subject, version] : stamps) {
      EXPECT_EQ(version, snap->version) << "epoch " << epoch;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    gating = false;
  }
  cv.notify_all();
  live.ForceMerge();
  live.SetStateFactory(nullptr);
  EXPECT_EQ(residual_publishes, 3);
}

TEST(MutableKbTest, PathWalkReportsTheSameReadSetOverEmptyAndLiveOverlay) {
  MutableKb live(BuildToyKb(), ManualMerge());
  const auto empty = live.Pin();
  const TermId a = *empty->LookupNode("person/a");
  const TermId b = *empty->LookupNode("marriage/b");
  const TermId c = *empty->LookupNode("person/c");
  const PredId marriage = *empty->LookupPredicate("marriage");
  const PredId person = *empty->LookupPredicate("person");
  const PredId name = *empty->LookupPredicate("name");
  const PredId dob = *empty->LookupPredicate("dob");
  const PredPath spouse_name = {marriage, person, name};
  const PredPath dob_dob = {dob, dob};

  // Every node whose out-edges a hop read; the final frontier is not read,
  // and a literal frontier node (1961 under dob -> dob) reads nothing.
  std::vector<TermId> spouse_reads;
  std::vector<TermId> dob_reads;
  (void)empty->ObjectsViaPath(a, spouse_name, &spouse_reads);
  (void)empty->ObjectsViaPath(a, dob_dob, &dob_reads);
  EXPECT_EQ(spouse_reads, (std::vector<TermId>{a, b, c}));
  EXPECT_EQ(dob_reads, (std::vector<TermId>{a}));

  // A write elsewhere moves the walk off the empty-overlay fast path; the
  // merged walk must report exactly the same reads.
  live.AddTriple("city/d", "population", "400000", true);
  const auto overlaid = live.Pin();
  ASSERT_FALSE(overlaid->overlay->empty());
  std::vector<TermId> overlaid_spouse_reads;
  std::vector<TermId> overlaid_dob_reads;
  EXPECT_EQ(overlaid->ObjectsViaPath(a, spouse_name, &overlaid_spouse_reads),
            empty->ObjectsViaPath(a, spouse_name));
  (void)overlaid->ObjectsViaPath(a, dob_dob, &overlaid_dob_reads);
  EXPECT_EQ(overlaid_spouse_reads, spouse_reads);
  EXPECT_EQ(overlaid_dob_reads, dob_reads);
}

TEST(MutableKbTest, MergePreservesBaseIdsAndEmptiesOverlay) {
  MutableKb live(BuildToyKb(), ManualMerge());
  auto before = live.Pin();
  const TermId a = *before->LookupNode("person/a");
  const TermId honolulu = *before->LookupNode("honolulu");
  const PredId dob = *before->LookupPredicate("dob");

  live.AddTriple("person/a", "spouse_count", "2", true);
  live.DeleteTriple("city/d", "population", "390000");
  const TermId overlay_id = *live.Pin()->LookupNode("2");

  live.ForceMerge();
  auto merged = live.Pin();
  EXPECT_EQ(merged.get() == before.get(), false);
  EXPECT_EQ(merged->epoch, 1u);
  EXPECT_TRUE(merged->overlay->empty());
  EXPECT_EQ(live.pending_ops(), 0u);
  // Id stability: every base id and the overlay-assigned id survive.
  EXPECT_EQ(*merged->base->LookupNode("person/a"), a);
  EXPECT_EQ(*merged->base->LookupNode("honolulu"), honolulu);
  EXPECT_EQ(*merged->base->LookupPredicate("dob"), dob);
  EXPECT_EQ(*merged->base->LookupNode("2"), overlay_id);
  // The merged base itself answers the mutated world.
  const PredId pop = *merged->base->LookupPredicate("population");
  const TermId d = *merged->base->LookupNode("city/d");
  EXPECT_TRUE(merged->base->Objects(d, pop).empty());
}

TEST(MutableKbTest, MergeIsBitIdenticalToFromScratchFreezeAtEveryThreadCount) {
  // Randomized storm: adds of new and existing triples, deletes of real
  // and bogus triples, across three merge epochs, then byte-compare the
  // final base against an independent from-scratch freeze of the ground
  // truth op log at several thread counts.
  KnowledgeBase base = BuildToyKb();
  const std::string base_path = ::testing::TempDir() + "/mkb_seed.bin";
  ASSERT_TRUE(base.Save(base_path).ok());
  auto reloaded = KnowledgeBase::Load(base_path);
  ASSERT_TRUE(reloaded.ok());
  std::remove(base_path.c_str());

  MutableKb live(std::move(reloaded.value()), ManualMerge());
  Rng rng(20260808);
  std::vector<MutationOp> ground_truth;

  const std::vector<std::string> subjects = {"person/a", "person/c", "city/d",
                                             "person/new1", "person/new2"};
  const std::vector<std::string> preds = {"dob", "pob", "likes", "visited"};
  const std::vector<std::string> objects = {"1961", "1964", "honolulu",
                                            "city/d", "paris", "42"};
  for (int round = 0; round < 3; ++round) {
    std::vector<MutationOp> batch;
    for (int i = 0; i < 40; ++i) {
      MutationOp op;
      op.is_delete = rng.Uniform(3) == 0;
      op.s = subjects[rng.Uniform(subjects.size())];
      op.p = preds[rng.Uniform(preds.size())];
      op.o = objects[rng.Uniform(objects.size())];
      op.object_is_literal = op.o.find('/') == std::string::npos;
      batch.push_back(op);
      ground_truth.push_back(op);
    }
    live.Apply(batch);
    live.ForceMerge();
  }

  auto merged = live.Pin();
  ASSERT_TRUE(merged->overlay->empty());
  EXPECT_EQ(merged->epoch, 3u);
  for (int threads : {1, 2, 4}) {
    KnowledgeBase reference = BuildReference(base, ground_truth, threads);
    std::string label = "t";
    label += std::to_string(threads);
    ExpectBitIdentical(*merged->base, reference, label);
  }

  // Pre-merge equivalence too: apply more ops WITHOUT merging and check
  // the merged-read view against a reference freeze of the longer log.
  std::vector<MutationOp> tail;
  for (int i = 0; i < 25; ++i) {
    MutationOp op;
    op.is_delete = rng.Uniform(4) == 0;
    op.s = subjects[rng.Uniform(subjects.size())];
    op.p = preds[rng.Uniform(preds.size())];
    op.o = objects[rng.Uniform(objects.size())];
    op.object_is_literal = op.o.find('/') == std::string::npos;
    tail.push_back(op);
    ground_truth.push_back(op);
  }
  live.Apply(tail);
  auto overlaid = live.Pin();
  ASSERT_FALSE(overlaid->overlay->empty());
  KnowledgeBase reference = BuildReference(base, ground_truth, 1);
  ASSERT_EQ(overlaid->num_nodes(), reference.num_nodes());
  ASSERT_EQ(overlaid->num_predicates(), reference.num_predicates());
  for (TermId s = 0; s < reference.num_nodes(); ++s) {
    EXPECT_EQ(overlaid->IsLiteral(s), reference.IsLiteral(s));
    EXPECT_EQ(overlaid->NodeString(s), reference.NodeString(s));
    for (PredId p = 0; p < reference.num_predicates(); ++p) {
      EXPECT_EQ(overlaid->Objects(s, p), reference.Objects(s, p))
          << "s=" << s << " p=" << p;
    }
  }
  // And after one more merge the overlay drains into an identical freeze.
  live.ForceMerge();
  ExpectBitIdentical(*live.Pin()->base, reference, "tail");
}

TEST(MutableKbTest, VersionEpochAccountingAndPublishHook) {
  MutableKb live(BuildToyKb(), ManualMerge());
  EXPECT_EQ(live.version(), 0u);
  EXPECT_EQ(live.epoch(), 0u);

  // The state factory is the publish hook: called once per epoch on the
  // rebuilt base, its result travels with that epoch's snapshots. Each
  // state records the number of its call.
  std::atomic<int> factory_calls{0};
  std::atomic<const KnowledgeBase*> factory_base{nullptr};
  live.SetStateFactory([&](const std::shared_ptr<const KnowledgeBase>& base) {
    factory_base.store(base.get());
    return std::make_shared<const int>(factory_calls.fetch_add(1) + 1);
  });
  const auto call_of = [](const KbSnapshot& snap) {
    return *static_cast<const int*>(snap.state.get());
  };
  // Installing builds the current base's state and republishes it.
  EXPECT_EQ(factory_calls.load(), 1);
  EXPECT_EQ(factory_base.load(), live.Pin()->base.get());
  EXPECT_EQ(call_of(*live.Pin()), 1);
  EXPECT_EQ(live.version(), 0u);

  live.AddTriple("person/a", "dob", "1962", true);
  live.AddTriple("person/a", "dob", "1963", true);
  EXPECT_EQ(live.version(), 2u);
  EXPECT_EQ(live.epoch(), 0u);
  EXPECT_EQ(live.pending_ops(), 2u);
  EXPECT_EQ(factory_calls.load(), 1);  // Apply publishes no epoch
  EXPECT_EQ(call_of(*live.Pin()), 1);  // and carries the state forward

  live.ForceMerge();
  EXPECT_EQ(live.version(), 3u);  // merge publish bumps version too
  EXPECT_EQ(live.epoch(), 1u);
  EXPECT_EQ(live.merges_completed(), 1u);
  EXPECT_EQ(factory_calls.load(), 2);
  const auto merged = live.Pin();
  EXPECT_EQ(merged->epoch, 1u);
  EXPECT_EQ(call_of(*merged), 2);
  EXPECT_EQ(factory_base.load(), merged->base.get());
  EXPECT_EQ(merged->version, live.version());

  // ForceMerge with nothing pending is a no-op (no epoch churn).
  live.ForceMerge();
  EXPECT_EQ(live.epoch(), 1u);
  EXPECT_EQ(factory_calls.load(), 2);

  live.SetStateFactory(nullptr);
  EXPECT_EQ(live.Pin()->state, nullptr);
  EXPECT_EQ(live.version(), 3u);
}

TEST(MutableKbTest, ReplacingTheStateFactoryWaitsForItsCallInFlight) {
  MutableKb live(BuildToyKb(), ManualMerge());
  std::mutex mu;
  std::condition_variable cv;
  bool parked = false;
  bool release = false;
  std::atomic<int> old_calls{0};
  std::atomic<int> new_calls{0};
  const int kOld = 1;
  const int kNew = 2;
  live.SetStateFactory([&](const std::shared_ptr<const KnowledgeBase>&) {
    if (old_calls.fetch_add(1) == 1) {  // the merge's call, not the install
      std::unique_lock<std::mutex> lock(mu);
      parked = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
    return std::shared_ptr<const void>(&kOld, [](const void*) {});
  });
  std::thread merger([&] {
    live.AddTriple("person/a", "dob", "1962", true);
    live.ForceMerge();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked; });
  }
  std::atomic<bool> replaced{false};
  std::thread installer([&] {
    live.SetStateFactory([&](const std::shared_ptr<const KnowledgeBase>&) {
      new_calls.fetch_add(1);
      return std::shared_ptr<const void>(&kNew, [](const void*) {});
    });
    replaced.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(replaced.load()) << "install returned during a call in flight";
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  installer.join();
  merger.join();

  // The replaced factory is never called again, and the current snapshot
  // — like every later publish — carries the new factory's state.
  EXPECT_EQ(live.epoch(), 1u);
  EXPECT_EQ(live.Pin()->state.get(), &kNew);
  EXPECT_EQ(new_calls.load(), 1);
  live.AddTriple("person/a", "dob", "1963", true);
  EXPECT_EQ(live.Pin()->state.get(), &kNew);
  live.ForceMerge();
  EXPECT_EQ(live.Pin()->state.get(), &kNew);
  EXPECT_EQ(old_calls.load(), 2);
  EXPECT_EQ(new_calls.load(), 2);
  live.SetStateFactory(nullptr);
}

TEST(MutableKbTest, LocalPinFollowsEveryPublish) {
  MutableKb live(BuildToyKb(), ManualMerge());
  std::atomic<int> factory_calls{0};
  const MutableKb::StateFactory factory =
      [&](const std::shared_ptr<const KnowledgeBase>&) {
        return std::make_shared<const int>(factory_calls.fetch_add(1) + 1);
      };
  // The local pin must report what Pin() reports after every publish. An
  // install and a clear keep the version and the epoch, so only the
  // publish count can tell a reader about them.
  const auto expect_current = [&](const char* after) {
    const auto pinned = live.Pin();
    const KbSnapshot& local = live.PinLocal();
    EXPECT_EQ(local.version, pinned->version) << after;
    EXPECT_EQ(local.epoch, pinned->epoch) << after;
    EXPECT_EQ(local.base, pinned->base) << after;
    EXPECT_EQ(local.overlay, pinned->overlay) << after;
    EXPECT_EQ(local.state, pinned->state) << after;
  };
  expect_current("construction");
  live.AddTriple("person/a", "dob", "1962", true);
  expect_current("an Apply");
  live.SetStateFactory(factory);
  ASSERT_EQ(factory_calls.load(), 1);
  expect_current("a factory install");
  live.AddTriple("person/a", "dob", "1963", true);
  expect_current("an Apply with a factory");
  live.ForceMerge();
  ASSERT_EQ(live.epoch(), 1u);
  ASSERT_EQ(factory_calls.load(), 2);
  expect_current("a merge");
  live.SetStateFactory(factory);
  ASSERT_EQ(factory_calls.load(), 3);
  expect_current("a second install at the same version");
  live.SetStateFactory(nullptr);
  expect_current("a factory clear");
  EXPECT_EQ(live.PinLocal().state, nullptr);

  // Two kbs read alternately on one thread each return their own snapshot,
  // also when both have published equally often.
  MutableKb first(BuildToyKb(), ManualMerge());
  MutableKb second(BuildToyKb(), ManualMerge());
  first.AddTriple("person/a", "dob", "1970", true);
  second.AddTriple("person/a", "dob", "1971", true);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(first.PinLocal().overlay, first.Pin()->overlay);
    EXPECT_EQ(second.PinLocal().overlay, second.Pin()->overlay);
    EXPECT_EQ(live.PinLocal().base, live.Pin()->base);
  }
}

TEST(MutableKbTest, DestroyingAMutableKbReleasesThisThreadsLocalPin) {
  std::weak_ptr<const KnowledgeBase> base;
  {
    MutableKb live(BuildToyKb(), ManualMerge());
    base = live.PinLocal().base;
    ASSERT_FALSE(base.expired());
  }
  EXPECT_TRUE(base.expired())
      << "this thread's local pin kept a destroyed kb's base alive";
}

TEST(MutableKbTest, AutoMergeTriggersInBackground) {
  MutableKb::Options options;
  options.merge_trigger_ops = 4;
  options.merge_threads = 2;
  MutableKb live(BuildToyKb(), options);
  for (int i = 0; i < 5; ++i) {
    live.AddTriple("person/a", "visited", "place_" + std::to_string(i),
                   false);
  }
  live.WaitForMergeIdle();
  EXPECT_GE(live.merges_completed(), 1u);
  EXPECT_GE(live.epoch(), 1u);
  EXPECT_LT(live.pending_ops(), 4u);
  auto snap = live.Pin();
  const TermId a = *snap->LookupNode("person/a");
  const PredId visited = *snap->LookupPredicate("visited");
  EXPECT_EQ(snap->Objects(a, visited).size(), 5u);
}

}  // namespace
}  // namespace kbqa::rdf
