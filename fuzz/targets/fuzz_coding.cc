// Fuzz target: every decoder in util/coding.h (registry: src/util/coding.h).
//
// Beyond "don't crash", each successful decode is checked against a
// round-trip oracle: re-encoding the decoded values with the matching
// encoder and decoding again must reproduce them exactly, and delta runs
// must come out non-decreasing (the overflow-guard contract).

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "fuzz/fuzz_driver.h"
#include "util/coding.h"

namespace u = kbqa::util;

namespace {

void Check(bool ok) {
  if (!ok) __builtin_trap();  // oracle violation: crash so the driver reports
}

void FuzzVarints(const uint8_t* data, const uint8_t* limit) {
  uint64_t v64 = 0;
  if (u::GetVarint64(data, limit, &v64) != nullptr) {
    std::string re;
    u::PutVarint64(&re, v64);
    const uint8_t* rp = reinterpret_cast<const uint8_t*>(re.data());
    uint64_t back = 0;
    Check(u::GetVarint64(rp, rp + re.size(), &back) == rp + re.size());
    Check(back == v64);
  }
  uint32_t v32 = 0;
  if (u::GetVarint32(data, limit, &v32) != nullptr) {
    Check(v32 <= UINT32_MAX);
  }
}

void FuzzDeltaRun(const uint8_t* data, const uint8_t* limit) {
  const uint8_t* p = data;
  std::vector<uint64_t> vals;
  if (u::DecodeDeltaRun64(&p, limit, &vals)) {
    for (size_t i = 1; i < vals.size(); ++i) Check(vals[i] >= vals[i - 1]);
    std::string re;
    u::AppendDeltaRun64(&re, vals.data(), vals.size());
    const uint8_t* rp = reinterpret_cast<const uint8_t*>(re.data());
    std::vector<uint64_t> back;
    Check(u::DecodeDeltaRun64(&rp, rp + re.size(), &back));
    Check(back == vals);
  }
}

/// First two input bytes pick (bits, n); the rest is the packed stream.
void FuzzBitPacked(const uint8_t* data, size_t size) {
  if (size < 2) return;
  const int bits = data[0] % 33;
  const size_t n = data[1];
  const uint8_t* p = data + 2;
  std::vector<uint32_t> vals;
  if (u::DecodeBitPacked(&p, data + size, n, bits, &vals)) {
    Check(vals.size() == n);
    std::string re;
    u::AppendBitPacked(&re, vals.data(), n, bits);
    const uint8_t* rp = reinterpret_cast<const uint8_t*>(re.data());
    std::vector<uint32_t> back;
    Check(u::DecodeBitPacked(&rp, rp + re.size(), n, bits, &back));
    Check(back == vals);
  }
}

void FuzzFrontCoded(const uint8_t* data, const uint8_t* limit) {
  const uint8_t* p = data;
  std::string prev;
  std::string cur;
  std::vector<std::string> strs;
  while (p < limit && strs.size() < 64 &&
         u::DecodeFrontCoded(&p, limit, prev, &cur)) {
    strs.push_back(cur);
    prev = cur;
  }
  std::string re;
  std::string enc_prev;
  for (const std::string& s : strs) {
    u::AppendFrontCoded(&re, enc_prev, s);
    enc_prev = s;
  }
  const uint8_t* rp = reinterpret_cast<const uint8_t*>(re.data());
  const uint8_t* rlimit = rp + re.size();
  std::string dec_prev;
  for (const std::string& s : strs) {
    std::string out;
    Check(u::DecodeFrontCoded(&rp, rlimit, dec_prev, &out));
    Check(out == s);
    dec_prev = out;
  }
  Check(rp == rlimit);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const uint8_t* limit = data + size;
  FuzzVarints(data, limit);
  FuzzDeltaRun(data, limit);
  FuzzBitPacked(data, size);
  FuzzFrontCoded(data, limit);
  (void)u::Fnv1a64(data, size);
  return 0;
}

namespace kbqa::fuzz {

std::vector<std::string> SeedInputs() {
  std::vector<std::string> seeds;
  {
    std::string s;
    util::PutVarint64(&s, 0);
    util::PutVarint64(&s, 0x7F);
    util::PutVarint64(&s, 0x80);
    util::PutVarint64(&s, UINT64_MAX);
    seeds.push_back(s);
  }
  {
    std::string s;
    const uint64_t vals[] = {0, 9, 9, uint64_t{1} << 40};
    util::AppendDeltaRun64(&s, vals, std::size(vals));
    seeds.push_back(s);
  }
  {
    // Leading (bits, n) header the harness reads, then the packed stream.
    std::string s;
    s.push_back(7);
    s.push_back(5);
    const uint32_t vals[] = {1, 2, 3, 100, 127};
    util::AppendBitPacked(&s, vals, std::size(vals), 7);
    seeds.push_back(s);
  }
  {
    std::string s;
    util::AppendFrontCoded(&s, "", "barack");
    util::AppendFrontCoded(&s, "barack", "barack obama");
    util::AppendFrontCoded(&s, "barack obama", "basketball");
    seeds.push_back(s);
  }
  return seeds;
}

std::vector<std::string> Dictionary() {
  return {
      std::string("\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01", 10),
      std::string("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01", 10),
      std::string("\x00", 1),
      std::string("\x7f", 1),
  };
}

}  // namespace kbqa::fuzz
