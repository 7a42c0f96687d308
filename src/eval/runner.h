#ifndef KBQA_EVAL_RUNNER_H_
#define KBQA_EVAL_RUNNER_H_

#include <string>
#include <vector>

#include "core/qa_interface.h"
#include "corpus/qa_generator.h"
#include "eval/metrics.h"

namespace kbqa::eval {

/// Verdict for one question.
enum class Judgment { kDeclined, kRight, kPartial, kWrong };

/// Per-question record of a benchmark run.
struct JudgedQuestion {
  Judgment judgment = Judgment::kDeclined;
  bool is_bfq = false;
  bool unseen_paraphrase = false;
  std::string kind;
  std::string question;
  std::string system_answer;
  std::string gold_answer;
  double elapsed_ms = 0;
};

/// Result of running one system over one benchmark.
struct RunResult {
  QaldCounts counts;
  /// Counters restricted to the BFQ subset — the well-defined source for
  /// R_BFQ / P_BFQ columns even for systems that also answer non-BFQs
  /// (dividing all-question #ri by #BFQ can exceed 1 otherwise).
  QaldCounts bfq_only;
  std::vector<JudgedQuestion> judged;
  double total_ms = 0;

  double avg_latency_ms() const {
    return counts.total == 0 ? 0 : total_ms / counts.total;
  }
};

/// Judges a system answer against the gold annotation: exact match on the
/// normalized value string is right; a match against the gold's
/// partial-values set is partially right (the paper's #par — e.g. a country
/// where a city was asked); anything else is wrong. A declined answer
/// (answered == false) does not count toward #pro.
Judgment Judge(const core::AnswerResult& answer, const corpus::QaGold& gold);

/// Runs `system` over every benchmark question, one Answer call at a time,
/// and tallies the QALD counters.
RunResult RunBenchmark(const core::QaSystemInterface& system,
                       const corpus::BenchmarkSet& benchmark);

}  // namespace kbqa::eval

#endif  // KBQA_EVAL_RUNNER_H_
