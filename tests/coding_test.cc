// Round-trip and corrupt-input coverage for util/coding.h: varints,
// delta runs, bit packing, front coding, and the FNV block checksum.

#include "util/coding.h"

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace kbqa::util {
namespace {

const uint8_t* Begin(const std::string& s) {
  return reinterpret_cast<const uint8_t*>(s.data());
}
const uint8_t* End(const std::string& s) {
  return reinterpret_cast<const uint8_t*>(s.data()) + s.size();
}

// ---------------------------------------------------------------- varint --

TEST(Varint, RoundTripBoundaryValues) {
  const uint64_t cases[] = {0,
                            1,
                            127,
                            128,
                            16383,
                            16384,
                            (1ULL << 32) - 1,
                            1ULL << 32,
                            (1ULL << 32) + 1,
                            std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : cases) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_LE(buf.size(), 10u);
    uint64_t decoded = 0;
    const uint8_t* p = GetVarint64(Begin(buf), End(buf), &decoded);
    ASSERT_NE(p, nullptr) << v;
    EXPECT_EQ(p, End(buf)) << v;
    EXPECT_EQ(decoded, v);
  }
}

TEST(Varint, RoundTripRandom) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    // Mix magnitudes: raw 64-bit and small values both exercised.
    const uint64_t v =
        (i % 2 == 0) ? rng.Next() : rng.Uniform(1ULL << (1 + i % 40));
    std::string buf;
    PutVarint64(&buf, v);
    uint64_t decoded = 0;
    const uint8_t* p = GetVarint64(Begin(buf), End(buf), &decoded);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(decoded, v);
  }
}

TEST(Varint, ConcatenatedStreamAdvancesCorrectly) {
  std::string buf;
  for (uint32_t v = 0; v < 1000; ++v) PutVarint32(&buf, v * 977);
  const uint8_t* p = Begin(buf);
  for (uint32_t v = 0; v < 1000; ++v) {
    uint32_t decoded = 0;
    p = GetVarint32(p, End(buf), &decoded);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(decoded, v * 977);
  }
  EXPECT_EQ(p, End(buf));
}

TEST(Varint, TruncatedInputFails) {
  std::string buf;
  PutVarint64(&buf, std::numeric_limits<uint64_t>::max());
  for (size_t keep = 0; keep < buf.size(); ++keep) {
    uint64_t v = 0;
    EXPECT_EQ(GetVarint64(Begin(buf), Begin(buf) + keep, &v), nullptr)
        << "prefix of " << keep << " bytes decoded";
  }
}

TEST(Varint, OverlongEncodingFails) {
  // Eleven continuation bytes: more than 64 bits of payload.
  std::string buf(11, static_cast<char>(0x80));
  buf.push_back(0x01);
  uint64_t v = 0;
  EXPECT_EQ(GetVarint64(Begin(buf), End(buf), &v), nullptr);
}

TEST(Varint, TenthByteOverflowFails) {
  // 9 continuation bytes then a final byte with bits above the 64th.
  std::string buf(9, static_cast<char>(0x80));
  buf.push_back(0x02);  // bit 65
  uint64_t v = 0;
  EXPECT_EQ(GetVarint64(Begin(buf), End(buf), &v), nullptr);
}

TEST(Varint, Get32RejectsValuesAbove32Bits) {
  std::string buf;
  PutVarint64(&buf, (1ULL << 32));
  uint32_t v = 0;
  EXPECT_EQ(GetVarint32(Begin(buf), End(buf), &v), nullptr);
  buf.clear();
  PutVarint64(&buf, std::numeric_limits<uint32_t>::max());
  EXPECT_NE(GetVarint32(Begin(buf), End(buf), &v), nullptr);
  EXPECT_EQ(v, std::numeric_limits<uint32_t>::max());
}

// ------------------------------------------------------------ delta runs --

TEST(DeltaRun64, RoundTripBoundaries) {
  const std::vector<uint64_t> values = {0, 0, 1, (1ULL << 32) - 1,
                                        1ULL << 32, (1ULL << 32) + 7,
                                        std::numeric_limits<uint64_t>::max()};
  std::string buf;
  AppendDeltaRun64(&buf, values.data(), values.size());
  std::vector<uint64_t> out;
  const uint8_t* p = Begin(buf);
  ASSERT_TRUE(DecodeDeltaRun64(&p, End(buf), &out));
  EXPECT_EQ(out, values);
}

TEST(DeltaRun64, CountBeyondBufferFails) {
  std::string buf;
  PutVarint64(&buf, 1ULL << 40);  // claims 2^40 values, has none
  std::vector<uint64_t> out;
  const uint8_t* p = Begin(buf);
  EXPECT_FALSE(DecodeDeltaRun64(&p, End(buf), &out));
}

TEST(DeltaRun64, TruncatedPayloadFails) {
  std::string buf;
  const std::vector<uint64_t> values = {10, 20, 300000, 1ULL << 40};
  AppendDeltaRun64(&buf, values.data(), values.size());
  for (size_t keep = 1; keep < buf.size(); ++keep) {
    std::vector<uint64_t> out;
    const uint8_t* p = Begin(buf);
    EXPECT_FALSE(DecodeDeltaRun64(&p, Begin(buf) + keep, &out))
        << "prefix " << keep;
  }
}

TEST(DeltaRun64, WrapAroundFails) {
  std::string buf;
  PutVarint64(&buf, 2);
  PutVarint64(&buf, std::numeric_limits<uint64_t>::max());
  PutVarint64(&buf, 2);  // would wrap past 2^64
  std::vector<uint64_t> out;
  const uint8_t* p = Begin(buf);
  EXPECT_FALSE(DecodeDeltaRun64(&p, End(buf), &out));
}

// ------------------------------------------------------------ bit packing --

TEST(BitPack, WidthComputation) {
  EXPECT_EQ(BitWidth32(0), 0);
  EXPECT_EQ(BitWidth32(1), 1);
  EXPECT_EQ(BitWidth32(2), 2);
  EXPECT_EQ(BitWidth32(255), 8);
  EXPECT_EQ(BitWidth32(256), 9);
  EXPECT_EQ(BitWidth32(std::numeric_limits<uint32_t>::max()), 32);
}

TEST(BitPack, RoundTripAllWidths) {
  Rng rng(13);
  for (int bits = 0; bits <= 32; ++bits) {
    const uint32_t mask =
        bits == 32 ? std::numeric_limits<uint32_t>::max()
        : bits == 0 ? 0
                    : ((uint32_t{1} << bits) - 1);
    std::vector<uint32_t> values;
    for (int i = 0; i < 100; ++i) {
      values.push_back(static_cast<uint32_t>(rng.Next()) & mask);
    }
    // Always include the width's extremes.
    values.push_back(0);
    values.push_back(mask);
    std::string buf;
    AppendBitPacked(&buf, values.data(), values.size(), bits);
    EXPECT_EQ(buf.size(),
              (values.size() * static_cast<size_t>(bits) + 7) / 8);
    std::vector<uint32_t> out;
    const uint8_t* p = Begin(buf);
    ASSERT_TRUE(DecodeBitPacked(&p, End(buf), values.size(), bits, &out))
        << "width " << bits;
    EXPECT_EQ(out, values) << "width " << bits;
    EXPECT_EQ(p, End(buf));
  }
}

TEST(BitPack, TruncatedInputFails) {
  std::vector<uint32_t> values(64, 0x5A5);
  std::string buf;
  AppendBitPacked(&buf, values.data(), values.size(), 11);
  std::vector<uint32_t> out;
  const uint8_t* p = Begin(buf);
  EXPECT_FALSE(DecodeBitPacked(&p, End(buf) - 1, values.size(), 11, &out));
}

TEST(BitPack, BadWidthFails) {
  std::string buf(16, '\0');
  std::vector<uint32_t> out;
  const uint8_t* p = Begin(buf);
  EXPECT_FALSE(DecodeBitPacked(&p, End(buf), 4, 33, &out));
  EXPECT_FALSE(DecodeBitPacked(&p, End(buf), 4, -1, &out));
}

// ----------------------------------------------------------- front coding --

TEST(FrontCoding, RoundTripSortedDictionary) {
  const std::vector<std::string> words = {
      "",           "a",          "aardvark",  "aardvarks", "abacus",
      "entity/000", "entity/001", "entity/0010", "zebra"};
  std::string buf;
  std::string prev;
  for (const auto& w : words) {
    AppendFrontCoded(&buf, prev, w);
    prev = w;
  }
  const uint8_t* p = Begin(buf);
  prev.clear();
  for (const auto& w : words) {
    std::string decoded;
    ASSERT_TRUE(DecodeFrontCoded(&p, End(buf), prev, &decoded));
    EXPECT_EQ(decoded, w);
    prev = decoded;
  }
  EXPECT_EQ(p, End(buf));
}

TEST(FrontCoding, RoundTripRandomBinaryStrings) {
  Rng rng(17);
  std::vector<std::string> strings;
  for (int i = 0; i < 200; ++i) {
    std::string s;
    const size_t len = rng.Uniform(50);
    for (size_t j = 0; j < len; ++j) {
      s.push_back(static_cast<char>(rng.Uniform(256)));
    }
    strings.push_back(std::move(s));
  }
  std::string buf;
  std::string prev;
  for (const auto& s : strings) {
    AppendFrontCoded(&buf, prev, s);
    prev = s;
  }
  const uint8_t* p = Begin(buf);
  prev.clear();
  for (const auto& s : strings) {
    std::string decoded;
    ASSERT_TRUE(DecodeFrontCoded(&p, End(buf), prev, &decoded));
    EXPECT_EQ(decoded, s);
    prev = decoded;
  }
}

TEST(FrontCoding, SharedLongerThanPrevFails) {
  std::string buf;
  PutVarint64(&buf, 10);  // shared=10 but prev is only 3 long
  PutVarint64(&buf, 0);
  std::string out;
  const uint8_t* p = Begin(buf);
  EXPECT_FALSE(DecodeFrontCoded(&p, End(buf), "abc", &out));
}

TEST(FrontCoding, SuffixPastLimitFails) {
  std::string buf;
  PutVarint64(&buf, 0);
  PutVarint64(&buf, 1000);  // claims 1000 suffix bytes, provides 2
  buf.append("xy");
  std::string out;
  const uint8_t* p = Begin(buf);
  EXPECT_FALSE(DecodeFrontCoded(&p, End(buf), "", &out));
}

// ------------------------------------------------------- corrupt fuzzing --

// Random byte soup must never crash or read out of bounds; decoders either
// fail cleanly or produce some value while staying inside [p, limit).
TEST(CorruptInput, RandomBytesNeverCrash) {
  Rng rng(23);
  for (int trial = 0; trial < 500; ++trial) {
    std::string buf;
    const size_t len = rng.Uniform(64);
    for (size_t i = 0; i < len; ++i) {
      buf.push_back(static_cast<char>(rng.Uniform(256)));
    }
    uint64_t v64 = 0;
    const uint8_t* p = GetVarint64(Begin(buf), End(buf), &v64);
    if (p != nullptr) {
      EXPECT_LE(p, End(buf));
    }

    std::vector<uint64_t> run64;
    const uint8_t* q = Begin(buf);
    if (DecodeDeltaRun64(&q, End(buf), &run64)) {
      EXPECT_LE(q, End(buf));
    }

    std::string s;
    q = Begin(buf);
    if (DecodeFrontCoded(&q, End(buf), "seed-prev", &s)) {
      EXPECT_LE(q, End(buf));
    }
  }
}

// Flipping any single bit of a valid delta-run stream must decode to
// either a clean failure or a *different* well-formed prefix — never UB.
// (ASan/UBSan in CI give this test its teeth.)
TEST(CorruptInput, SingleBitFlipsHandled) {
  std::vector<uint64_t> values;
  for (uint64_t i = 0; i < 64; ++i) values.push_back(i * i);
  std::string buf;
  AppendDeltaRun64(&buf, values.data(), values.size());
  for (size_t byte = 0; byte < buf.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = buf;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      std::vector<uint64_t> out;
      const uint8_t* p = Begin(corrupt);
      if (DecodeDeltaRun64(&p, End(corrupt), &out)) {
        EXPECT_LE(p, End(corrupt));
      }
    }
  }
}

// -------------------------------------------------------------- checksum --

TEST(Checksum, DetectsBitFlips) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  const uint64_t clean = Fnv1a64(data.data(), data.size());
  EXPECT_EQ(clean, Fnv1a64(data.data(), data.size()));  // deterministic
  for (size_t i = 0; i < data.size(); ++i) {
    std::string flipped = data;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
    EXPECT_NE(Fnv1a64(flipped.data(), flipped.size()), clean) << i;
  }
  EXPECT_NE(Fnv1a64(data.data(), data.size() - 1), clean);
}

}  // namespace
}  // namespace kbqa::util
