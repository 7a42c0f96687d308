#ifndef KBQA_NLP_PATTERN_H_
#define KBQA_NLP_PATTERN_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/thread_pool.h"

namespace kbqa::nlp {

/// Placeholder token for the entity variable in a question pattern /
/// decomposed sub-question (§5.1).
inline constexpr const char* kEntitySlot = "$e";

/// Builds the pattern string obtained by replacing token span [begin, end)
/// of `tokens` with the `$e` placeholder. Example:
/// ["when","was","michelle","obama","born"], span [2,4) ->
/// "when was $e born".
std::string MakePattern(const std::vector<std::string>& tokens, size_t begin,
                        size_t end);

/// A corpus question prepared for pattern counting: its tokens and the
/// entity-mention token spans found in it.
struct PatternQuestion {
  std::vector<std::string> tokens;
  std::vector<std::pair<size_t, size_t>> mention_spans;
};

/// Occurrence statistics for one pattern: fo = #questions matching it via
/// *any* substring replacement, fv = #questions matching it via an entity
/// mention (a *valid* match). P(qˇ) = fv / fo (Eq. 26) — fo punishes
/// over-generalized patterns like "when $e".
struct PatternStats {
  uint32_t fo = 0;
  uint32_t fv = 0;
};

/// Corpus-wide pattern index answering P(qˇ) queries for the complex-
/// question decomposer (§5.2).
///
/// Memory note: only patterns with fv > 0 can have P(qˇ) > 0, so pass 1
/// collects exactly the validly-matched patterns and pass 2 counts fo only
/// for those — the index holds O(#mentions) patterns instead of
/// O(#questions · |q|²) (the full fo table would not fit for large corpora,
/// and its extra entries are all P = 0 anyway).
///
/// Pass 2 builds no string per span. It hashes each question's text before
/// and after every cut once, probes each span with one hash combine, and
/// builds and compares the span's pattern text only when the hash hits an
/// admitted pattern. The hash is of the pattern's bytes, so the counts
/// equal those of the MakePattern string loop for any tokens, `$e` and
/// empty tokens included.
class PatternIndex {
 public:
  struct Options {
    /// Longest replaced span, in tokens, considered during fo counting.
    /// Mention spans longer than this still enter the fv pass.
    size_t max_span_tokens = 8;
  };

  /// Builds the index over `questions` in the two passes described above.
  static PatternIndex Build(const std::vector<PatternQuestion>& questions,
                            const Options& options);
  /// As above, with pass 2 sharded on `pool`: a fixed number of shards
  /// count fo into their own arrays, summed in shard order, so the index
  /// is the same for any pool size.
  static PatternIndex Build(const std::vector<PatternQuestion>& questions,
                            const Options& options, ThreadPool* pool);
  static PatternIndex Build(const std::vector<PatternQuestion>& questions) {
    return Build(questions, Options());
  }

  /// P(qˇ) = fv/fo for `pattern`; 0 when the pattern was never validly
  /// matched in the corpus.
  double ValidProbability(const std::string& pattern) const;

  /// Raw counts (both zero when absent).
  PatternStats Stats(const std::string& pattern) const;

  size_t num_patterns() const { return stats_.size(); }

 private:
  std::unordered_map<std::string, PatternStats> stats_;
};

}  // namespace kbqa::nlp

#endif  // KBQA_NLP_PATTERN_H_
