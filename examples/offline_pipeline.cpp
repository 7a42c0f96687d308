// File-based offline pipeline — the workflow a team operating KBQA on real
// dumps would run:
//
//   1. obtain a KB (here: generated in memory, where training reads it)
//   2. obtain a QA corpus (here: generated, exported to TSV)
//   3. import the corpus from disk
//   4. train, persist the model, answer from the reloaded model
//
// Run: ./build/examples/offline_pipeline

#include <cstdio>
#include <string>

#include "core/kbqa_system.h"
#include "corpus/corpus_io.h"
#include "corpus/qa_generator.h"
#include "corpus/world_generator.h"
#include "util/timer.h"

int main() {
  using namespace kbqa;
  const std::string corpus_path = "/tmp/kbqa_pipeline_corpus.tsv";
  const std::string model_path = "/tmp/kbqa_pipeline_model.bin";

  // ---- 1+2: the KB and the on-disk corpus (stand-ins for real dumps) ----
  corpus::WorldConfig world_config;
  world_config.schema.scale = 0.15;
  corpus::World world = corpus::GenerateWorld(world_config);
  corpus::QaGenConfig corpus_config;
  corpus_config.num_pairs = 10000;
  corpus::QaCorpus generated =
      corpus::GenerateTrainingCorpus(world, corpus_config);

  Status status = corpus::ExportQaTsv(generated, corpus_path);
  if (!status.ok()) {
    std::printf("export failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("KB of %zu triples in memory; wrote %s (%zu QA pairs)\n",
              world.kb.num_triples(), corpus_path.c_str(), generated.size());

  // ---- 3: import the corpus (gold annotations are gone, as in real life) --
  auto corpus = corpus::ImportQaTsv(corpus_path);
  if (!corpus.ok()) {
    std::printf("corpus import failed: %s\n",
                corpus.status().ToString().c_str());
    return 1;
  }

  // ---- 4: train, persist, answer from the reloaded artifact ----
  Timer timer;
  core::KbqaSystem trainer(&world);
  status = trainer.Train(corpus.value());
  if (!status.ok()) {
    std::printf("training failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("trained from imported corpus in %.1fs (%zu templates)\n",
              timer.ElapsedSeconds(),
              trainer.template_store().num_templates());
  if (!trainer.SaveModel(model_path).ok()) {
    std::printf("model save failed\n");
    return 1;
  }

  core::KbqaSystem server(&world);
  if (!server.LoadModel(model_path).ok()) {
    std::printf("model load failed\n");
    return 1;
  }
  for (const char* q : {"how many people are there in honolulu",
                        "who is the wife of barack obama",
                        "what is the capital of germany"}) {
    core::AnswerResult answer = server.Answer(q);
    std::printf("  Q: %-42s A: %s\n", q,
                answer.answered ? answer.value.c_str() : "<no answer>");
  }
  std::printf("pipeline complete.\n");
  return 0;
}
