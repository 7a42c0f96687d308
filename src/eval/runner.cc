#include "eval/runner.h"

#include "nlp/tokenizer.h"
#include "util/timer.h"

namespace kbqa::eval {

Judgment Judge(const core::AnswerResult& answer,
               const corpus::QaGold& gold) {
  if (!answer.answered) return Judgment::kDeclined;
  const std::string got = nlp::NormalizeText(answer.value);
  if (!gold.value_string.empty() &&
      got == nlp::NormalizeText(gold.value_string)) {
    return Judgment::kRight;
  }
  for (const std::string& alternate : gold.correct_alternates) {
    if (got == nlp::NormalizeText(alternate)) return Judgment::kRight;
  }
  for (const std::string& partial : gold.partial_values) {
    if (got == nlp::NormalizeText(partial)) return Judgment::kPartial;
  }
  return Judgment::kWrong;
}

RunResult RunBenchmark(const core::QaSystemInterface& system,
                       const corpus::BenchmarkSet& benchmark) {
  RunResult result;
  result.judged.reserve(benchmark.questions.size());
  for (size_t i = 0; i < benchmark.questions.size(); ++i) {
    const corpus::QaPair& pair = benchmark.questions.pairs[i];
    const corpus::QaGold& gold = benchmark.questions.gold[i];

    Timer timer;
    core::AnswerResult answer = system.Answer(pair.question);
    double elapsed = timer.ElapsedMillis();
    result.total_ms += elapsed;

    JudgedQuestion jq;
    jq.judgment = Judge(answer, gold);
    jq.is_bfq = gold.is_bfq;
    jq.unseen_paraphrase = gold.unseen_paraphrase;
    jq.kind = gold.kind;
    jq.question = pair.question;
    jq.system_answer = answer.answered ? answer.value : "";
    jq.gold_answer = gold.value_string;
    jq.elapsed_ms = elapsed;

    auto tally = [&](QaldCounts& counts) {
      ++counts.total;
      if (gold.is_bfq) ++counts.bfq;
      switch (jq.judgment) {
        case Judgment::kDeclined:
          break;
        case Judgment::kRight:
          ++counts.pro;
          ++counts.ri;
          break;
        case Judgment::kPartial:
          ++counts.pro;
          ++counts.par;
          break;
        case Judgment::kWrong:
          ++counts.pro;
          break;
      }
    };
    tally(result.counts);
    if (gold.is_bfq) tally(result.bfq_only);
    result.judged.push_back(std::move(jq));
  }
  return result;
}

}  // namespace kbqa::eval
