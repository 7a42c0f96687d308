// Table 14 (§7.4): online latency and complexity. Paper: KBQA 79ms vs
// gAnswer 990ms (12.5x) vs DEANNA 7738ms (98x); KBQA's pipeline is
// polynomial (O(|q|^4) parsing + O(|P|) inference) while both competitors
// contain NP-hard question understanding. The reimplemented families keep
// the same algorithmic structure, so the *ordering* and rough magnitude
// gaps reproduce; absolute times scale with the synthetic KB.
//
// Also measures the offline procedure's corpus-size scaling (§7.4 reports
// 1438 min for 41M pairs; ours is linear in corpus size as predicted by
// the O(km) EM bound).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_common.h"

namespace {

using namespace kbqa;

const eval::Experiment& Experiment() {
  static const eval::Experiment* const kExperiment = [] {
    return bench::BuildStandardExperiment().release();
  }();
  return *kExperiment;
}

const std::vector<std::string>& Questions() {
  static const std::vector<std::string>* const kQuestions = [] {
    corpus::BenchmarkConfig config;
    config.num_questions = 64;
    config.bfq_ratio = 1.0;
    config.seed = 1414;
    auto* questions = new std::vector<std::string>();
    for (const corpus::QaPair& pair :
         corpus::GenerateBenchmark(Experiment().world(), config)
             .questions.pairs) {
      questions->push_back(pair.question);
    }
    return questions;
  }();
  return *kQuestions;
}

void BM_Kbqa_Answer(benchmark::State& state) {
  const auto& questions = Questions();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Experiment().kbqa().Answer(questions[i++ % questions.size()]));
  }
}
BENCHMARK(BM_Kbqa_Answer)->Unit(benchmark::kMicrosecond);

void BM_Kbqa_AnswerComplex(benchmark::State& state) {
  // Complex pipeline: decomposition DP (O(|q|^4)) + chained inference.
  static const std::vector<std::string> kComplex = {
      "when was barack obama's wife born",
      "how many people live in the capital of japan",
      "what is the birthday of the ceo of google",
  };
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Experiment().kbqa().AnswerComplex(kComplex[i++ % kComplex.size()]));
  }
}
BENCHMARK(BM_Kbqa_AnswerComplex)->Unit(benchmark::kMicrosecond);

void BM_RuleQa(benchmark::State& state) {
  const auto& questions = Questions();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Experiment().rule_qa().Answer(questions[i++ % questions.size()]));
  }
}
BENCHMARK(BM_RuleQa)->Unit(benchmark::kMicrosecond);

void BM_KeywordQa(benchmark::State& state) {
  const auto& questions = Questions();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Experiment().keyword_qa().Answer(questions[i++ % questions.size()]));
  }
}
BENCHMARK(BM_KeywordQa)->Unit(benchmark::kMicrosecond);

void BM_GraphQa_gAnswerFamily(benchmark::State& state) {
  const auto& questions = Questions();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Experiment().graph_qa().Answer(questions[i++ % questions.size()]));
  }
}
BENCHMARK(BM_GraphQa_gAnswerFamily)->Unit(benchmark::kMicrosecond);

void BM_SynonymQa_DeannaFamily(benchmark::State& state) {
  const auto& questions = Questions();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Experiment().synonym_qa().Answer(questions[i++ % questions.size()]));
  }
}
BENCHMARK(BM_SynonymQa_DeannaFamily)->Unit(benchmark::kMicrosecond);

const corpus::World& ScalingWorld() {
  static const corpus::World* const kWorld = [] {
    corpus::WorldConfig world_config;
    world_config.schema.scale = 0.15;
    return new corpus::World(corpus::GenerateWorld(world_config));
  }();
  return *kWorld;
}

/// Offline-procedure scaling: full Train() over increasing corpus sizes.
void BM_OfflineTraining(benchmark::State& state) {
  corpus::QaGenConfig corpus_config;
  corpus_config.num_pairs = static_cast<size_t>(state.range(0));
  corpus::QaCorpus corpus =
      corpus::GenerateTrainingCorpus(ScalingWorld(), corpus_config);
  for (auto _ : state) {
    core::KbqaSystem kbqa(&ScalingWorld());
    benchmark::DoNotOptimize(kbqa.Train(corpus));
  }
  state.SetItemsProcessed(state.iterations() * corpus.size());
}
BENCHMARK(BM_OfflineTraining)
    ->Arg(2000)
    ->Arg(8000)
    ->Arg(32000)
    ->Unit(benchmark::kMillisecond);

/// Offline-procedure thread scaling: Train() over a fixed corpus at 1/2/N
/// worker threads (bit-identical θ across rows — only wall clock moves).
void BM_OfflineTrainingThreads(benchmark::State& state) {
  corpus::QaGenConfig corpus_config;
  corpus_config.num_pairs = 8000;
  corpus::QaCorpus corpus =
      corpus::GenerateTrainingCorpus(ScalingWorld(), corpus_config);
  core::KbqaOptions options;
  options.em.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::KbqaSystem kbqa(&ScalingWorld(), options);
    benchmark::DoNotOptimize(kbqa.Train(corpus));
  }
  state.SetItemsProcessed(state.iterations() * corpus.size());
}
BENCHMARK(BM_OfflineTrainingThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// Measures the offline procedure's parallel speedup directly (the median
/// of five Trains at each of 1/2/4 threads) and emits BENCH_parallel.json.
void EmitParallelSpeedupJson() {
  std::printf("[parallel] measuring offline thread scaling...\n");
  corpus::QaGenConfig corpus_config;
  corpus_config.num_pairs = 8000;
  corpus::QaCorpus corpus =
      corpus::GenerateTrainingCorpus(ScalingWorld(), corpus_config);
  const std::vector<int> thread_counts = {1, 2, 4};
  // One Train takes about 0.1 s here, so each row is the median of a few.
  constexpr int kRepeats = 5;

  std::vector<double> train_seconds;
  for (int threads : thread_counts) {
    std::vector<double> runs;
    for (int r = 0; r < kRepeats; ++r) {
      core::KbqaOptions options;
      options.em.num_threads = threads;
      kbqa::Timer timer;
      core::KbqaSystem kbqa(&ScalingWorld(), options);
      if (!kbqa.Train(corpus).ok()) std::exit(1);
      runs.push_back(timer.ElapsedSeconds());
    }
    std::nth_element(runs.begin(), runs.begin() + kRepeats / 2, runs.end());
    train_seconds.push_back(runs[kRepeats / 2]);
  }

  FILE* out = std::fopen("BENCH_parallel.json", "w");
  if (out == nullptr) return;
  std::fprintf(out, "{\n  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out,
               "  \"offline_training\": {\"corpus_pairs\": %zu, "
               "\"repeats\": %d, \"runs\": [",
               corpus.size(), kRepeats);
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    std::fprintf(out,
                 "%s\n    {\"threads\": %d, \"seconds\": %.3f, "
                 "\"speedup\": %.2f}",
                 i ? "," : "", thread_counts[i], train_seconds[i],
                 train_seconds[0] / train_seconds[i]);
  }
  std::fprintf(out, "\n  ]}\n}\n");
  std::fclose(out);
  std::printf("[parallel] wrote BENCH_parallel.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  Experiment();  // Train once before timing anything.
  std::printf(
      "\nTable 14 reference (paper): DEANNA 7738ms (NP-hard understanding "
      "+ NP-hard evaluation), gAnswer 990ms (O(|V|^3) + NP-hard), KBQA "
      "79ms (O(|q|^4) parsing + O(|P|) inference). Shape to check below: "
      "KBQA's per-question latency is far below the Graph (gAnswer) family "
      "which is below the Synonym (DEANNA) family; offline training scales "
      "linearly in corpus size.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  EmitParallelSpeedupJson();
  return 0;
}
