#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/expanded_predicate.h"
#include "rdf/knowledge_base.h"
#include "util/coding.h"

namespace kbqa::rdf {
namespace {

// ---------- Dictionary ----------

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary dict;
  TermId a = dict.Intern("barack obama");
  TermId b = dict.Intern("barack obama");
  EXPECT_EQ(a, b);
  EXPECT_EQ(dict.size(), 1u);
  EXPECT_EQ(dict.GetString(a), "barack obama");
}

TEST(DictionaryTest, IdsAreDense) {
  Dictionary dict;
  EXPECT_EQ(dict.Intern("a"), 0u);
  EXPECT_EQ(dict.Intern("b"), 1u);
  EXPECT_EQ(dict.Intern("c"), 2u);
}

TEST(DictionaryTest, LookupNeverInterns) {
  Dictionary dict;
  EXPECT_FALSE(dict.Lookup("ghost").has_value());
  EXPECT_EQ(dict.size(), 0u);
  dict.Intern("real");
  EXPECT_EQ(dict.Lookup("real"), std::optional<TermId>(0));
}

// ---------- Toy KB (Figure 1 of the paper) ----------

/// Builds the paper's Figure 1: Barack Obama (a) -- marriage --> b --
/// person --> Michelle Obama (c); dob/pob/population facts; Honolulu (d).
class ToyKbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    name_ = kb_.AddPredicate("name");
    kb_.SetNamePredicate(name_);
    dob_ = kb_.AddPredicate("dob");
    pob_ = kb_.AddPredicate("pob");
    marriage_ = kb_.AddPredicate("marriage");
    person_ = kb_.AddPredicate("person");
    population_ = kb_.AddPredicate("population");
    date_ = kb_.AddPredicate("date");

    a_ = kb_.AddEntity("person/a");
    b_ = kb_.AddEntity("marriage/b");
    c_ = kb_.AddEntity("person/c");
    d_ = kb_.AddEntity("city/d");

    obama_lit_ = kb_.AddLiteral("barack obama");
    michelle_lit_ = kb_.AddLiteral("michelle obama");
    honolulu_lit_ = kb_.AddLiteral("honolulu");
    y1961_ = kb_.AddLiteral("1961");
    y1964_ = kb_.AddLiteral("1964");
    y1992_ = kb_.AddLiteral("1992");
    pop_ = kb_.AddLiteral("390000");

    kb_.AddTriple(a_, name_, obama_lit_);
    kb_.AddTriple(a_, dob_, y1961_);
    kb_.AddTriple(a_, pob_, d_);
    kb_.AddTriple(a_, marriage_, b_);
    kb_.AddTriple(b_, person_, c_);
    kb_.AddTriple(b_, date_, y1992_);
    kb_.AddTriple(c_, name_, michelle_lit_);
    kb_.AddTriple(c_, dob_, y1964_);
    kb_.AddTriple(d_, name_, honolulu_lit_);
    kb_.AddTriple(d_, population_, pop_);
    kb_.Freeze();
  }

  KnowledgeBase kb_;
  PredId name_, dob_, pob_, marriage_, person_, population_, date_;
  TermId a_, b_, c_, d_;
  TermId obama_lit_, michelle_lit_, honolulu_lit_, y1961_, y1964_, y1992_,
      pop_;
};

TEST_F(ToyKbTest, BasicCounts) {
  EXPECT_EQ(kb_.num_triples(), 10u);
  EXPECT_EQ(kb_.num_predicates(), 7u);
  EXPECT_EQ(kb_.num_entities(), 4u);
  EXPECT_TRUE(kb_.IsEntity(a_));
  EXPECT_TRUE(kb_.IsLiteral(y1961_));
}

TEST_F(ToyKbTest, ObjectsLookup) {
  EXPECT_EQ(kb_.Objects(a_, dob_), (std::vector<TermId>{y1961_}));
  EXPECT_EQ(kb_.Objects(a_, marriage_), (std::vector<TermId>{b_}));
  EXPECT_TRUE(kb_.Objects(a_, population_).empty());
  EXPECT_TRUE(kb_.Objects(y1961_, dob_).empty());  // literal subject
}

TEST_F(ToyKbTest, HasTripleAndConnectingPredicates) {
  EXPECT_TRUE(kb_.HasTriple(d_, population_, pop_));
  EXPECT_FALSE(kb_.HasTriple(d_, population_, y1961_));
  EXPECT_EQ(kb_.ConnectingPredicates(a_, y1961_),
            (std::vector<PredId>{dob_}));
  EXPECT_TRUE(kb_.ConnectingPredicates(a_, y1964_).empty());
}

TEST_F(ToyKbTest, InverseAdjacency) {
  auto in = kb_.In(c_);
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(in[0].p, person_);
  EXPECT_EQ(in[0].o, b_);  // In() stores (predicate, subject).
}

TEST_F(ToyKbTest, NameIndex) {
  auto entities = kb_.EntitiesByName("barack obama");
  ASSERT_EQ(entities.size(), 1u);
  EXPECT_EQ(entities[0], a_);
  EXPECT_TRUE(kb_.EntitiesByName("nobody").empty());
  EXPECT_EQ(kb_.EntityName(a_), "barack obama");
  EXPECT_EQ(kb_.EntityName(b_), "marriage/b");  // unnamed CVT falls back
}

TEST_F(ToyKbTest, DuplicateTriplesDeduplicatedAtFreeze) {
  KnowledgeBase kb;
  PredId p = kb.AddPredicate("p");
  TermId s = kb.AddEntity("s");
  TermId o = kb.AddLiteral("o");
  kb.AddTriple(s, p, o);
  kb.AddTriple(s, p, o);
  kb.Freeze();
  EXPECT_EQ(kb.num_triples(), 1u);
}

TEST_F(ToyKbTest, SaveLoadRoundTrip) {
  std::string path = ::testing::TempDir() + "/toy_kb.bin";
  ASSERT_TRUE(kb_.Save(path).ok());
  auto loaded = KnowledgeBase::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const KnowledgeBase& kb2 = loaded.value();
  EXPECT_EQ(kb2.num_triples(), kb_.num_triples());
  EXPECT_EQ(kb2.num_predicates(), kb_.num_predicates());
  EXPECT_EQ(kb2.num_entities(), kb_.num_entities());
  auto entities = kb2.EntitiesByName("honolulu");
  ASSERT_EQ(entities.size(), 1u);
  EXPECT_EQ(kb2.Objects(entities[0], *kb2.LookupPredicate("population")),
            (std::vector<TermId>{*kb2.LookupNode("390000")}));
  std::remove(path.c_str());
}

TEST_F(ToyKbTest, InjectedShortWriteNeverClobbersGoodSnapshot) {
  std::string path = ::testing::TempDir() + "/crash_safe_kb.bin";
  ASSERT_TRUE(kb_.Save(path).ok());

  // A re-Save over the same path dies mid-write (simulated crash / full
  // disk after 64 bytes). It must fail cleanly...
  KnowledgeBase::SetSaveFailureAfterBytesForTest(64);
  Status crashed = kb_.Save(path);
  KnowledgeBase::SetSaveFailureAfterBytesForTest(-1);
  EXPECT_FALSE(crashed.ok());

  // ...leave the original snapshot loadable...
  auto loaded = KnowledgeBase::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().num_triples(), kb_.num_triples());
  EXPECT_EQ(loaded.value().num_entities(), kb_.num_entities());

  // ...and clean up its temp file.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  EXPECT_FALSE(std::ifstream(tmp).good());

  // With injection off, the same Save succeeds again (atomic replace).
  ASSERT_TRUE(kb_.Save(path).ok());
  EXPECT_TRUE(KnowledgeBase::Load(path).ok());
  std::remove(path.c_str());
}

TEST_F(ToyKbTest, LoadRejectsGarbage) {
  std::string path = ::testing::TempDir() + "/garbage.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a kb", f);
  std::fclose(f);
  auto loaded = KnowledgeBase::Load(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST_F(ToyKbTest, LoadMissingFileIsIoError) {
  auto loaded = KnowledgeBase::Load("/nonexistent/path/kb.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(ToyKbTest, SaveLoadPreservesAdjacencyExactly) {
  std::string path = ::testing::TempDir() + "/toy_kb_csr.bin";
  ASSERT_TRUE(kb_.Save(path).ok());
  auto loaded = KnowledgeBase::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const KnowledgeBase& kb2 = loaded.value();

  // The CSR blocks are slurped verbatim, so every Out()/In() range must be
  // element-for-element identical, not just equal as a set.
  ASSERT_EQ(kb2.num_nodes(), kb_.num_nodes());
  for (TermId id = 0; id < kb_.num_nodes(); ++id) {
    auto out1 = kb_.Out(id), out2 = kb2.Out(id);
    ASSERT_EQ(out1.size(), out2.size()) << "node " << id;
    EXPECT_TRUE(std::equal(out1.begin(), out1.end(), out2.begin()));
    auto in1 = kb_.In(id), in2 = kb2.In(id);
    ASSERT_EQ(in1.size(), in2.size()) << "node " << id;
    EXPECT_TRUE(std::equal(in1.begin(), in1.end(), in2.begin()));
    EXPECT_EQ(kb_.IsLiteral(id), kb2.IsLiteral(id));
    EXPECT_EQ(kb_.NodeString(id), kb2.NodeString(id));
  }
  for (const char* name : {"barack obama", "michelle obama", "honolulu"}) {
    auto e1 = kb_.EntitiesByName(name);
    auto e2 = kb2.EntitiesByName(name);
    ASSERT_EQ(e1.size(), e2.size()) << name;
    EXPECT_TRUE(std::equal(e1.begin(), e1.end(), e2.begin()));
  }
  std::remove(path.c_str());
}

TEST_F(ToyKbTest, LoadRejectsVersion1SnapshotCleanly) {
  // A version-1 (pre-CSR) snapshot begins with the old magic. Loading one
  // must yield a clean Corruption status naming the version, not a crash
  // or a silently wrong store.
  constexpr uint64_t kMagicV1 = 0x4b42514152444631ULL;  // "KBQARDF1"
  std::string path = ::testing::TempDir() + "/v1_kb.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(&kMagicV1, sizeof(kMagicV1), 1, f), 1u);
  // Plausible-looking v1 payload bytes after the magic.
  uint64_t counts[4] = {3, 1, 0, 2};
  ASSERT_EQ(std::fwrite(counts, sizeof(counts), 1, f), 1u);
  std::fclose(f);

  auto loaded = KnowledgeBase::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("version 1"), std::string::npos)
      << loaded.status();
  std::remove(path.c_str());
}

TEST_F(ToyKbTest, LoadRejectsTruncatedSnapshot) {
  std::string path = ::testing::TempDir() + "/trunc_src.bin";
  ASSERT_TRUE(kb_.Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 16u);

  // A snapshot cut anywhere must come back as a clean Corruption — never a
  // crash, hang, or garbage-sized allocation.
  std::string cut_path = ::testing::TempDir() + "/trunc_cut.bin";
  for (size_t keep : {bytes.size() / 4, bytes.size() / 2,
                      bytes.size() * 9 / 10, bytes.size() - 1}) {
    std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(keep));
    out.close();
    auto loaded = KnowledgeBase::Load(cut_path);
    ASSERT_FALSE(loaded.ok()) << "kept " << keep << " of " << bytes.size();
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  }
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

TEST_F(ToyKbTest, LoadRejectsCorruptCsrOffsets) {
  std::string path = ::testing::TempDir() + "/corrupt_offsets.bin";
  ASSERT_TRUE(kb_.Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();

  // Locate the out-CSR section: the snapshot is a u64 magic followed by
  // four framed sections [u64 length][payload][u64 FNV-1a checksum] —
  // nodes, predicates, out CSR, in CSR.
  size_t section = 8;
  for (int skip = 0; skip < 2; ++skip) {
    uint64_t len = 0;
    ASSERT_LE(section + 8, bytes.size());
    std::memcpy(&len, bytes.data() + section, sizeof(len));
    section += 8 + len + 8;
  }
  uint64_t len = 0;
  ASSERT_LE(section + 8, bytes.size());
  std::memcpy(&len, bytes.data() + section, sizeof(len));
  ASSERT_LE(section + 16 + len, bytes.size());
  const std::string payload = bytes.substr(section + 8, len);
  const auto* begin = reinterpret_cast<const uint8_t*>(payload.data());
  const uint8_t* p = begin;
  std::vector<uint64_t> offsets;
  ASSERT_TRUE(util::DecodeDeltaRun64(&p, begin + payload.size(), &offsets));
  ASSERT_EQ(offsets.size(), kb_.num_nodes() + 1);
  const std::string edge_runs = payload.substr(p - begin);

  // Re-encodes the offsets with a valid frame and checksum, so only the
  // CSR structure checks stand between the corruption and the store.
  auto load_with_offsets = [&](const std::vector<uint64_t>& corrupt) {
    std::string enc;
    util::AppendDeltaRun64(&enc, corrupt.data(), corrupt.size());
    enc += edge_runs;
    std::string mutated = bytes.substr(0, section);
    const uint64_t enc_len = enc.size();
    const uint64_t sum = util::Fnv1a64(enc.data(), enc.size());
    mutated.append(reinterpret_cast<const char*>(&enc_len), sizeof(enc_len));
    mutated += enc;
    mutated.append(reinterpret_cast<const char*>(&sum), sizeof(sum));
    mutated += bytes.substr(section + 16 + len);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    out.close();
    return KnowledgeBase::Load(path);
  };

  // The untouched offsets re-encode to a loadable snapshot.
  ASSERT_TRUE(load_with_offsets(offsets).ok());

  // Every offset after the first jumps by 2^40: the implied edge count
  // dwarfs the section. Must fail before any edge-buffer allocation.
  std::vector<uint64_t> jump = offsets;
  for (size_t i = 1; i < jump.size(); ++i) jump[i] += uint64_t{1} << 40;
  auto jumped = load_with_offsets(jump);
  ASSERT_FALSE(jumped.ok());
  EXPECT_EQ(jumped.status().code(), StatusCode::kCorruption);

  // offsets[num_nodes] disagrees with the edge runs while staying monotone.
  std::vector<uint64_t> tail = offsets;
  tail.back() += 100;
  auto tail_mismatch = load_with_offsets(tail);
  ASSERT_FALSE(tail_mismatch.ok());
  EXPECT_EQ(tail_mismatch.status().code(), StatusCode::kCorruption);

  // A range that does not start at zero.
  std::vector<uint64_t> shifted = offsets;
  shifted[0] = 1;
  auto nonzero_start = load_with_offsets(shifted);
  ASSERT_FALSE(nonzero_start.ok());
  EXPECT_EQ(nonzero_start.status().code(), StatusCode::kCorruption);

  std::remove(path.c_str());
}

TEST_F(ToyKbTest, LoadRejectsOversizedV2CountsBeforeAllocating) {
  // The legacy v2 layout carried raw u64 counts with no checksum, and a
  // 16-byte v2 file could once demand a 34 GB offsets array. The v2 reader
  // is gone: any v2 file, however its counts are forged, must come back as
  // a clean Corruption naming the version before anything is sized from
  // it.
  constexpr uint64_t kMagicV2 = 0x4b42514152444632ULL;  // "KBQARDF2"
  std::string path = ::testing::TempDir() + "/oversized_v2.bin";
  for (const uint64_t count : {uint64_t{0xFFFFFFFF}, uint64_t{1} << 30,
                               uint64_t{3}}) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(&kMagicV2, sizeof(kMagicV2), 1, f), 1u);
    ASSERT_EQ(std::fwrite(&count, sizeof(count), 1, f), 1u);
    std::fclose(f);

    auto loaded = KnowledgeBase::Load(path);
    ASSERT_FALSE(loaded.ok()) << count;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
    EXPECT_NE(loaded.status().message().find("version 2"), std::string::npos)
        << loaded.status();
  }
  std::remove(path.c_str());
}

TEST_F(ToyKbTest, LoadRejectsBitFlippedV3Snapshot) {
  // Any single corrupted byte of a v3 snapshot — magic, section length,
  // payload, or checksum — must come back as a clean Corruption, never a
  // crash, bad_alloc, or a silently different store.
  std::string path = ::testing::TempDir() + "/flip_src.bin";
  ASSERT_TRUE(kb_.Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 32u);

  std::string flip_path = ::testing::TempDir() + "/flip_cut.bin";
  for (size_t pos = 0; pos < bytes.size(); pos += 3) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x40);
    std::ofstream out(flip_path, std::ios::binary | std::ios::trunc);
    out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    out.close();
    auto loaded = KnowledgeBase::Load(flip_path);
    ASSERT_FALSE(loaded.ok()) << "flip at byte " << pos;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << pos;
  }
  std::remove(path.c_str());
  std::remove(flip_path.c_str());
}

TEST_F(ToyKbTest, FreezeIsBitIdenticalAcrossThreadCounts) {
  auto build = [](int num_threads) {
    KnowledgeBase kb;
    PredId name = kb.AddPredicate("name");
    kb.SetNamePredicate(name);
    PredId p = kb.AddPredicate("p");
    PredId q = kb.AddPredicate("q");
    std::vector<TermId> ents;
    for (int i = 0; i < 64; ++i) {
      std::string entity = "e";
      entity += std::to_string(i);
      ents.push_back(kb.AddEntity(entity));
    }
    TermId lit = kb.AddLiteral("shared name");
    // Deliberately unsorted insertion order with duplicates.
    for (int i = 63; i >= 0; --i) {
      kb.AddTriple(ents[i], q, ents[(i * 7 + 3) % 64]);
      kb.AddTriple(ents[i], p, ents[(i * 13 + 1) % 64]);
      kb.AddTriple(ents[i], p, ents[(i * 13 + 1) % 64]);  // duplicate
      if (i % 3 == 0) kb.AddTriple(ents[i], name, lit);
    }
    kb.Freeze(num_threads);
    return kb;
  };
  KnowledgeBase kb1 = build(1);
  for (int threads : {2, 4}) {
    KnowledgeBase kbn = build(threads);
    ASSERT_EQ(kbn.num_triples(), kb1.num_triples());
    for (TermId id = 0; id < kb1.num_nodes(); ++id) {
      auto a = kb1.Out(id), b = kbn.Out(id);
      ASSERT_EQ(a.size(), b.size()) << "threads=" << threads;
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
      auto ia = kb1.In(id), ib = kbn.In(id);
      ASSERT_EQ(ia.size(), ib.size()) << "threads=" << threads;
      EXPECT_TRUE(std::equal(ia.begin(), ia.end(), ib.begin()));
    }
  }
}

// ---------- Expanded predicates (§6) ----------

class ExpansionTest : public ToyKbTest {
 protected:
  Result<ExpandedKb> Expand(int k, bool name_tail = true) {
    ExpansionOptions options;
    options.max_length = k;
    options.require_name_tail = name_tail;
    return ExpandedKb::Build(kb_, {a_, d_}, {name_}, options);
  }
};

TEST_F(ExpansionTest, FindsSpouseOfPath) {
  auto ekb = Expand(3);
  ASSERT_TRUE(ekb.ok()) << ekb.status();
  PredPath spouse_of = {marriage_, person_, name_};
  auto path_id = ekb.value().paths().Lookup(spouse_of);
  ASSERT_TRUE(path_id.has_value());
  // The Out() run is sorted by (path, object): the path's objects are one
  // contiguous stretch of it.
  const auto out = ekb.value().Out(a_);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  const auto stretch = std::ranges::equal_range(
      out, *path_id, std::ranges::less{}, &std::pair<PathId, TermId>::first);
  const std::vector<std::pair<PathId, TermId>> want = {
      {*path_id, michelle_lit_}};
  EXPECT_TRUE(std::ranges::equal(stretch, want));
  EXPECT_EQ(ekb.value().paths().ToString(*path_id, kb_),
            "marriage -> person -> name");
}

TEST_F(ExpansionTest, NameTailRuleExcludesWeakPaths) {
  auto ekb = Expand(3);
  ASSERT_TRUE(ekb.ok());
  // marriage -> date (the 1992 wedding) does not end with name: excluded.
  EXPECT_FALSE(ekb.value().paths().Lookup({marriage_, date_}).has_value());
  // marriage -> person -> dob ("Obama's 1964") likewise.
  EXPECT_FALSE(
      ekb.value().paths().Lookup({marriage_, person_, dob_}).has_value());
  // But with the rule off, both appear.
  auto loose = Expand(3, /*name_tail=*/false);
  ASSERT_TRUE(loose.ok());
  EXPECT_TRUE(loose.value().paths().Lookup({marriage_, date_}).has_value());
  EXPECT_TRUE(
      loose.value().paths().Lookup({marriage_, person_, dob_}).has_value());
}

TEST_F(ExpansionTest, RespectsLengthLimit) {
  auto ekb = Expand(1);
  ASSERT_TRUE(ekb.ok());
  EXPECT_EQ(ekb.value().NumTriplesOfLength(2), 0u);
  EXPECT_EQ(ekb.value().NumTriplesOfLength(3), 0u);
  // Direct predicates are present: dob, pob, marriage, name, population.
  EXPECT_GT(ekb.value().NumTriplesOfLength(1), 0u);
}

TEST_F(ExpansionTest, LengthOnePathsAreUnrestricted) {
  auto ekb = Expand(3);
  ASSERT_TRUE(ekb.ok());
  EXPECT_TRUE(ekb.value().paths().Lookup({dob_}).has_value());
  EXPECT_TRUE(ekb.value().paths().Lookup({marriage_}).has_value());
}

TEST_F(ExpansionTest, SeedsOnly) {
  ExpansionOptions options;
  options.max_length = 3;
  auto ekb = ExpandedKb::Build(kb_, {d_}, {name_}, options);
  ASSERT_TRUE(ekb.ok());
  // Only Honolulu was seeded; Obama has no materialized triples.
  EXPECT_TRUE(ekb.value().Out(a_).empty());
  EXPECT_FALSE(ekb.value().Out(d_).empty());
}

TEST_F(ExpansionTest, DuplicateSeedsDontDoubleTriples) {
  ExpansionOptions options;
  options.max_length = 1;
  auto once = ExpandedKb::Build(kb_, {d_}, {name_}, options);
  auto twice = ExpandedKb::Build(kb_, {d_, d_}, {name_}, options);
  ASSERT_TRUE(once.ok());
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(once.value().num_triples(), twice.value().num_triples());
}

TEST_F(ExpansionTest, TripleBudgetIsEnforced) {
  ExpansionOptions options;
  options.max_length = 3;
  options.max_triples = 2;
  auto ekb = ExpandedKb::Build(kb_, {a_, d_}, {name_}, options);
  ASSERT_FALSE(ekb.ok());
  EXPECT_EQ(ekb.status().code(), StatusCode::kOutOfRange);
}

TEST_F(ExpansionTest, ConnectingPaths) {
  auto ekb = Expand(3);
  ASSERT_TRUE(ekb.ok());
  auto paths = ekb.value().ConnectingPaths(a_, michelle_lit_);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(ekb.value().paths().GetPath(paths[0]),
            (PredPath{marriage_, person_, name_}));
}

TEST_F(ExpansionTest, ObjectsViaPathWalksBaseKb) {
  // Works for entities that were never seeded (online lookups).
  EXPECT_EQ(ObjectsViaPath(kb_, a_, {marriage_, person_, name_}),
            (std::vector<TermId>{michelle_lit_}));
  EXPECT_EQ(ObjectsViaPath(kb_, a_, {pob_, name_}),
            (std::vector<TermId>{honolulu_lit_}));
  EXPECT_TRUE(ObjectsViaPath(kb_, a_, {population_}).empty());
  // Paths through literals are dead ends.
  EXPECT_TRUE(ObjectsViaPath(kb_, a_, {dob_, dob_}).empty());
}

TEST_F(ExpansionTest, PathDictionaryDistinguishesPrefixes) {
  PathDictionary paths;
  PathId p1 = paths.Intern({1, 2});
  PathId p2 = paths.Intern({1});
  PathId p3 = paths.Intern({1, 2});
  EXPECT_NE(p1, p2);
  EXPECT_EQ(p1, p3);
  EXPECT_EQ(paths.size(), 2u);
}

TEST_F(ExpansionTest, RequiresFrozenKb) {
  KnowledgeBase kb;
  kb.AddPredicate("p");
  ExpansionOptions options;
  auto ekb = ExpandedKb::Build(kb, {}, {}, options);
  EXPECT_FALSE(ekb.ok());
  EXPECT_EQ(ekb.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ExpansionTest, NumPathsOfLengthCountsBackedPathsOnly) {
  auto ekb = Expand(3);
  ASSERT_TRUE(ekb.ok());
  // Length-3: exactly marriage -> person -> name (from a).
  EXPECT_EQ(ekb.value().NumPathsOfLength(3), 1u);
  // Length-2: pob -> name (a -> honolulu).
  EXPECT_EQ(ekb.value().NumPathsOfLength(2), 1u);
}

}  // namespace
}  // namespace kbqa::rdf
