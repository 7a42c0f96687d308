#ifndef KBQA_UTIL_CODING_H_
#define KBQA_UTIL_CODING_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace kbqa::util {

/// Byte-oriented integer and string codecs behind the rdf snapshot v3
/// format.
///
/// Conventions:
///  - Encoders append to a `std::string*` byte sink and cannot fail.
///  - Decoders take `[p, limit)` byte ranges, never read past `limit`, and
///    report malformed input (truncation, varint overflow, impossible
///    lengths) by returning nullptr / false with `*out` unspecified. They
///    never allocate proportionally to a corrupt length field before
///    validating it against the remaining input, so a bit-flipped file
///    yields a clean decode error rather than a bad_alloc.

// ---------------------------------------------------------------- varint --

/// LEB128 unsigned varint: 7 value bits per byte, high bit = continuation.
inline void PutVarint64(std::string* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

inline void PutVarint32(std::string* dst, uint32_t v) {
  PutVarint64(dst, v);
}

/// Decodes one varint from [p, limit). Returns the byte past the varint,
/// or nullptr on truncation or overflow (more than 10 bytes / value bits
/// beyond 64).
inline const uint8_t* GetVarint64(const uint8_t* p, const uint8_t* limit,
                                  uint64_t* value) {
  uint64_t result = 0;
  for (int shift = 0; shift < 64 && p < limit; shift += 7) {
    const uint8_t byte = *p++;
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      // Reject non-canonical high bits that shifted out of range.
      if (shift == 63 && (byte & 0x7E) != 0) return nullptr;
      *value = result;
      return p;
    }
  }
  return nullptr;  // ran off the buffer or past 64 bits
}

inline const uint8_t* GetVarint32(const uint8_t* p, const uint8_t* limit,
                                  uint32_t* value) {
  uint64_t wide = 0;
  const uint8_t* q = GetVarint64(p, limit, &wide);
  if (q == nullptr || wide > UINT32_MAX) return nullptr;
  *value = static_cast<uint32_t>(wide);
  return q;
}

// ------------------------------------------------------------- delta runs --

/// Encodes a non-decreasing u64 sequence (CSR offset arrays) as: varint
/// count, varint first value, then varint deltas. Empty sequences encode as
/// a bare zero count.
inline void AppendDeltaRun64(std::string* dst, const uint64_t* values,
                             size_t n) {
  PutVarint64(dst, n);
  for (size_t i = 0; i < n; ++i) {
    PutVarint64(dst, i == 0 ? values[0] : values[i] - values[i - 1]);
  }
}

/// Decodes a run written by AppendDeltaRun64, appending to `*out`.
/// Fails on truncation, on a count larger than the remaining bytes could
/// possibly encode (1 byte minimum per value), or on a delta that wraps
/// past UINT64_MAX — all markers of corruption.
inline bool DecodeDeltaRun64(const uint8_t** p, const uint8_t* limit,
                             std::vector<uint64_t>* out) {
  uint64_t n = 0;
  const uint8_t* q = GetVarint64(*p, limit, &n);
  if (q == nullptr || n > static_cast<uint64_t>(limit - q)) return false;
  out->reserve(out->size() + static_cast<size_t>(n));
  uint64_t prev = 0;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t delta = 0;
    q = GetVarint64(q, limit, &delta);
    if (q == nullptr) return false;
    const uint64_t next = (i == 0) ? delta : prev + delta;
    if (i != 0 && next < prev) return false;  // wrapped: corrupt
    prev = next;
    out->push_back(prev);
  }
  *p = q;
  return true;
}

// ------------------------------------------------------------ bit packing --

/// Bits needed to represent `max_value` (0 for a value of 0).
constexpr int BitWidth32(uint32_t max_value) {
  int bits = 0;
  while (max_value != 0) {
    ++bits;
    max_value >>= 1;
  }
  return bits;
}

/// Packs `n` values of `bits` bits each (LSB-first within a little-endian
/// bit stream) into ceil(n*bits/8) bytes. `bits == 0` emits nothing (all
/// values are zero). Values must fit in `bits` bits.
inline void AppendBitPacked(std::string* dst, const uint32_t* values,
                            size_t n, int bits) {
  if (bits == 0) return;
  uint64_t acc = 0;
  int acc_bits = 0;
  for (size_t i = 0; i < n; ++i) {
    acc |= static_cast<uint64_t>(values[i]) << acc_bits;
    acc_bits += bits;
    while (acc_bits >= 8) {
      dst->push_back(static_cast<char>(acc & 0xFF));
      acc >>= 8;
      acc_bits -= 8;
    }
  }
  if (acc_bits > 0) dst->push_back(static_cast<char>(acc & 0xFF));
}

/// Decodes `n` bit-packed values of width `bits`, appending to `*out`.
/// Fails when the remaining input is shorter than ceil(n*bits/8) bytes.
inline bool DecodeBitPacked(const uint8_t** p, const uint8_t* limit, size_t n,
                            int bits, std::vector<uint32_t>* out) {
  if (bits < 0 || bits > 32) return false;
  if (bits == 0) {
    out->insert(out->end(), n, 0);
    return true;
  }
  const uint64_t need_bytes = (static_cast<uint64_t>(n) * bits + 7) / 8;
  if (need_bytes > static_cast<uint64_t>(limit - *p)) return false;
  const uint8_t* q = *p;
  uint64_t acc = 0;
  int acc_bits = 0;
  const uint32_t mask =
      bits == 32 ? UINT32_MAX : ((uint32_t{1} << bits) - 1);
  out->reserve(out->size() + n);
  for (size_t i = 0; i < n; ++i) {
    while (acc_bits < bits) {
      acc |= static_cast<uint64_t>(*q++) << acc_bits;
      acc_bits += 8;
    }
    out->push_back(static_cast<uint32_t>(acc & mask));
    acc >>= bits;
    acc_bits -= bits;
  }
  *p = *p + need_bytes;
  return true;
}

// ----------------------------------------------------------- front coding --

/// Appends `s` encoded against the previous string in the block: varint
/// shared-prefix length, varint suffix length, suffix bytes. The first
/// string of a block encodes against an empty `prev`.
inline void AppendFrontCoded(std::string* dst, std::string_view prev,
                             std::string_view s) {
  size_t shared = 0;
  const size_t bound = prev.size() < s.size() ? prev.size() : s.size();
  while (shared < bound && prev[shared] == s[shared]) ++shared;
  PutVarint64(dst, shared);
  PutVarint64(dst, s.size() - shared);
  dst->append(s.data() + shared, s.size() - shared);
}

/// Decodes one front-coded string against `prev` into `*out`. Fails when
/// the shared length exceeds `prev` or the suffix runs past `limit`.
inline bool DecodeFrontCoded(const uint8_t** p, const uint8_t* limit,
                             const std::string& prev, std::string* out) {
  uint64_t shared = 0, suffix = 0;
  const uint8_t* q = GetVarint64(*p, limit, &shared);
  if (q == nullptr) return false;
  q = GetVarint64(q, limit, &suffix);
  if (q == nullptr) return false;
  if (shared > prev.size()) return false;
  if (suffix > static_cast<uint64_t>(limit - q)) return false;
  out->assign(prev, 0, static_cast<size_t>(shared));
  out->append(reinterpret_cast<const char*>(q), static_cast<size_t>(suffix));
  *p = q + suffix;
  return true;
}

// -------------------------------------------------------------- checksums --

/// FNV-1a 64-bit hash — the block checksum of the v3 snapshot formats.
/// Not cryptographic; catches the truncation / bit-flip corruption class.
inline uint64_t Fnv1a64(const void* data, size_t n) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace kbqa::util

#endif  // KBQA_UTIL_CODING_H_
