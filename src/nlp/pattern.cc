#include "nlp/pattern.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string_view>

namespace kbqa::nlp {

namespace {

/// MakePattern, written into `*out` (replacing its contents) so a probe
/// loop can reuse one buffer.
void WritePattern(const std::vector<std::string>& tokens, size_t begin,
                  size_t end, std::string* out) {
  assert(begin < end && end <= tokens.size());
  out->clear();
  for (size_t i = 0; i < begin; ++i) {
    if (!out->empty()) *out += ' ';
    *out += tokens[i];
  }
  if (!out->empty()) *out += ' ';
  *out += kEntitySlot;
  for (size_t i = end; i < tokens.size(); ++i) {
    *out += ' ';
    *out += tokens[i];
  }
}

/// Polynomial hash of a byte string: h(xy) = h(x) * kBase^|y| + h(y), so a
/// pattern's hash combines from the hashes of its text before and after
/// any cut.
constexpr uint64_t kBase = 0x100000001b3ULL;

/// h(x + bytes), given h(x).
uint64_t Extend(uint64_t hash, std::string_view bytes) {
  for (char c : bytes) hash = hash * kBase + static_cast<unsigned char>(c);
  return hash;
}

/// kBase^length.
uint64_t Power(size_t length) {
  uint64_t power = 1;
  while (length-- > 0) power *= kBase;
  return power;
}

/// The hash of MakePattern(tokens, begin, end) for every span of one
/// question, from one pass over its tokens each way. head_[b] hashes the
/// text MakePattern writes up to and including `$e` for a span that begins
/// at b; tail_[e] hashes the text it writes after a span that ends at e,
/// and tail_power_[e] is kBase raised to that text's length. The hash is
/// of the pattern's bytes, so two spans that write the same string (a `$e`
/// or an empty token among the tokens) hash alike, just as the string loop
/// counts them as one pattern.
class SpanPatternHashes {
 public:
  void Reset(const std::vector<std::string>& tokens) {
    const size_t n = tokens.size();
    head_.resize(n);
    uint64_t prefix = 0;  // the text written for tokens [0, b)
    bool prefix_empty = true;
    for (size_t b = 0; b < n; ++b) {
      const uint64_t separated = prefix_empty ? prefix : Extend(prefix, " ");
      head_[b] = Extend(separated, kEntitySlot);
      prefix = Extend(separated, tokens[b]);
      prefix_empty = prefix_empty && tokens[b].empty();
    }
    tail_.assign(n + 1, 0);
    tail_power_.assign(n + 1, 1);
    for (size_t e = n; e-- > 1;) {
      const uint64_t piece = Extend(Extend(0, " "), tokens[e]);
      tail_[e] = piece * tail_power_[e + 1] + tail_[e + 1];
      tail_power_[e] = Power(tokens[e].size() + 1) * tail_power_[e + 1];
    }
  }

  uint64_t Hash(size_t begin, size_t end) const {
    return head_[begin] * tail_power_[end] + tail_[end];
  }

 private:
  std::vector<uint64_t> head_;
  std::vector<uint64_t> tail_;
  std::vector<uint64_t> tail_power_;
};

/// The patterns pass 1 admitted, in an open-addressed table keyed by the
/// hash of their text. A probe whose hash hits compares the real pattern
/// text, so a hash collision never miscounts. Each admitted pattern has a
/// dense index, so pass 2's shards can count into plain arrays.
class AdmittedPatterns {
 public:
  using Entry = std::pair<const std::string, PatternStats>;
  static constexpr uint32_t kNone = UINT32_MAX;

  explicit AdmittedPatterns(
      std::unordered_map<std::string, PatternStats>* stats)
      : slots_(std::bit_ceil(2 * stats->size() + 2)),
        shift_(64 - std::countr_zero(slots_.size())) {
    entries_.reserve(stats->size());
    for (Entry& entry : *stats) {
      const uint64_t hash = Extend(0, entry.first);
      size_t i = Home(hash);
      while (slots_[i].index != kNone) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = Slot{hash, static_cast<uint32_t>(entries_.size())};
      entries_.push_back(&entry);
    }
  }

  size_t size() const { return entries_.size(); }
  PatternStats& stats(uint32_t index) const { return entries_[index]->second; }

  /// The index of the admitted pattern of span [begin, end) of `tokens`,
  /// whose pattern hash is `hash`; kNone when the span's pattern was not
  /// admitted. `scratch` holds the span's pattern text when a hash hits.
  uint32_t Find(uint64_t hash, const std::vector<std::string>& tokens,
                size_t begin, size_t end, std::string* scratch) const {
    for (size_t i = Home(hash); slots_[i].index != kNone;
         i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i].hash != hash) continue;
      WritePattern(tokens, begin, end, scratch);
      if (*scratch == entries_[slots_[i].index]->first) return slots_[i].index;
    }
    return kNone;
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t index = kNone;
  };

  /// Fibonacci hashing: the top bits of the product mix every input bit.
  size_t Home(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  std::vector<Slot> slots_;
  std::vector<Entry*> entries_;
  int shift_;
};

/// Adds `pattern` to this question's counted patterns; false when it is
/// there already. A question matches a handful of patterns, so a linear
/// scan beats hashing.
template <typename Pattern>
bool CountOnce(Pattern pattern, std::vector<Pattern>* counted) {
  if (std::find(counted->begin(), counted->end(), pattern) != counted->end()) {
    return false;
  }
  counted->push_back(pattern);
  return true;
}

/// Fixed shard count of pass 2, independent of the pool size.
constexpr size_t kFoShards = 32;

}  // namespace

std::string MakePattern(const std::vector<std::string>& tokens, size_t begin,
                        size_t end) {
  std::string out;
  WritePattern(tokens, begin, end, &out);
  return out;
}

PatternIndex PatternIndex::Build(const std::vector<PatternQuestion>& questions,
                                 const Options& options) {
  ThreadPool pool(1);
  return Build(questions, options, &pool);
}

PatternIndex PatternIndex::Build(const std::vector<PatternQuestion>& questions,
                                 const Options& options, ThreadPool* pool) {
  PatternIndex index;

  // Pass 1: register the validly matched patterns and count fv, dedup per
  // question ("the number of questions that validly matches qˇ").
  std::vector<PatternStats*> counted;
  for (const PatternQuestion& q : questions) {
    counted.clear();
    for (const auto& [begin, end] : q.mention_spans) {
      if (begin >= end || end > q.tokens.size()) continue;
      PatternStats* stats = &index.stats_[MakePattern(q.tokens, begin, end)];
      if (CountOnce(stats, &counted)) ++stats->fv;
    }
  }

  // Pass 2: count fo — any-substring matches — but only for patterns that
  // pass 1 admitted (others have P(qˇ) = 0 regardless of fo). Each span's
  // pattern is probed by hash; no string is built unless the hash hits.
  const AdmittedPatterns admitted(&index.stats_);
  std::vector<std::vector<uint32_t>> shard_fo(kFoShards);
  ParallelFor(
      *pool, questions.size(), kFoShards,
      [&](size_t shard, size_t first, size_t last) {
        std::vector<uint32_t>& fo = shard_fo[shard];
        fo.assign(admitted.size(), 0);
        SpanPatternHashes hashes;
        std::string scratch;
        std::vector<uint32_t> counted_here;
        for (size_t qi = first; qi < last; ++qi) {
          const PatternQuestion& q = questions[qi];
          counted_here.clear();
          hashes.Reset(q.tokens);
          auto count = [&](size_t begin, size_t end) {
            const uint32_t found = admitted.Find(
                hashes.Hash(begin, end), q.tokens, begin, end, &scratch);
            if (found != AdmittedPatterns::kNone &&
                CountOnce(found, &counted_here)) {
              ++fo[found];
            }
          };
          const size_t n = q.tokens.size();
          for (size_t begin = 0; begin < n; ++begin) {
            const size_t max_end =
                std::min(n, begin + options.max_span_tokens);
            for (size_t end = begin + 1; end <= max_end; ++end) {
              count(begin, end);
            }
          }
          // Long mentions can exceed max_span_tokens; make sure every valid
          // match is also an occurrence so fv <= fo holds by construction.
          for (const auto& [begin, end] : q.mention_spans) {
            if (begin < end && end <= n &&
                end - begin > options.max_span_tokens) {
              count(begin, end);
            }
          }
        }
      });
  for (const std::vector<uint32_t>& fo : shard_fo) {
    for (uint32_t i = 0; i < fo.size(); ++i) admitted.stats(i).fo += fo[i];
  }
  return index;
}

double PatternIndex::ValidProbability(const std::string& pattern) const {
  auto it = stats_.find(pattern);
  if (it == stats_.end() || it->second.fo == 0) return 0.0;
  return static_cast<double>(it->second.fv) /
         static_cast<double>(it->second.fo);
}

PatternStats PatternIndex::Stats(const std::string& pattern) const {
  auto it = stats_.find(pattern);
  if (it == stats_.end()) return {};
  return it->second;
}

}  // namespace kbqa::nlp
