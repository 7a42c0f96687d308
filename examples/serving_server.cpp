// A complete serving process with the observability stack wired in: the
// serve::Server front door, a request-scoped wide event per
// terminal outcome, the SLO burn-rate monitor, and the pull exposition
// endpoints (/metricsz /statusz /eventz /slo) on a local port.
//
// Run:  ./build/examples/serving_server [port]          (default: ephemeral)
//       echo "who is the wife of barack obama" | ./build/examples/serving_server
//
// Questions arrive on stdin, one per line; each is answered through the
// server (so it pays admission, queueing, and the worker hand-off like
// production traffic) and emits one wide event. While the process is alive:
//
//       curl 127.0.0.1:$PORT/statusz        # build, uptime, RSS, sink totals
//       curl 127.0.0.1:$PORT/metricsz       # registry tables (?format=json)
//       curl "127.0.0.1:$PORT/eventz?n=20"  # recent wide events as JSONL
//       curl 127.0.0.1:$PORT/slo            # burn-rate evaluation
//
// On EOF the server drains, prints the SLO evaluation and a per-stage
// attribution line per question, and exits.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/online.h"
#include "corpus/qa_generator.h"
#include "corpus/world_generator.h"
#include "eval/experiment.h"
#include "obs/slo.h"
#include "obs/wide_event.h"
#include "serve/exposition.h"
#include "serve/server.h"

int main(int argc, char** argv) {
  using namespace kbqa;

  int port = 0;  // ephemeral unless the caller pins one
  if (argc > 1) port = std::atoi(argv[1]);

  // ---- Train a small system (same setup path as the benches). ----
  std::printf("[setup] generating world + corpus and training KBQA...\n");
  auto built = eval::Experiment::Build(eval::ExperimentConfig::Small());
  if (!built.ok()) {
    std::fprintf(stderr, "experiment build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  auto experiment = std::move(built).value();
  const core::KbqaSystem& kbqa = experiment->kbqa();
  core::OnlineInference::Options engine_opts = kbqa.options().online;
  engine_opts.enable_answer_cache = true;
  core::OnlineInference engine(
      &experiment->world().kb, &experiment->world().taxonomy, &kbqa.ner(),
      &kbqa.template_store(), &kbqa.expanded_kb().paths(), engine_opts);

  // ---- Observability: SLO monitor, serving front door, exposition. ----
  obs::SloMonitor slo{obs::SloSpec{}};
  serve::ServingOptions serve_options;
  serve_options.num_workers = 2;
  serve_options.max_batch_size = 8;
  serve_options.slo = &slo;
  auto server = serve::Server::ForEngine(&engine, serve_options);

  serve::ExpositionOptions obs_options;
  obs_options.port = port;
  obs_options.slo = &slo;
  obs_options.statusz_extra = [&](std::string* out) {
    out->append("world.triples: ");
    out->append(std::to_string(experiment->world().kb.num_triples()));
    out->append("\n");
  };
  auto exposition = serve::ExpositionServer::Start(obs_options);
  if (!exposition.ok()) {
    std::fprintf(stderr, "exposition failed to start: %s\n",
                 exposition.status().ToString().c_str());
    return 1;
  }
  std::printf("[obs] exposition listening on 127.0.0.1:%d\n",
              exposition.value()->port());
  std::printf("[ready] type questions (EOF to exit)\n");
  std::fflush(stdout);

  // ---- Serve stdin through the front door. ----
  uint64_t asked = 0;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    ++asked;
    serve::ServeResponse response = server->Answer(line);
    if (response.result.answered) {
      std::printf("  -> %s   [predicate: %s]\n", response.result.value.c_str(),
                  response.result.predicate.c_str());
    } else if (!response.result.status.ok()) {
      std::printf("  -> (error: %s)\n",
                  response.result.status.ToString().c_str());
    } else {
      std::printf("  -> (no answer)\n");
    }
    std::printf("     queue %.1f us, service %.1f us, batch %zu\n",
                response.queue_ns / 1e3, response.service_ns / 1e3,
                response.batch_size);
    std::fflush(stdout);
  }

  // ---- Teardown report: SLO state and the per-request wide events. ----
  const obs::SloEvaluation slo_eval = slo.Evaluate(obs::NowSteadyNs());
  std::printf("[slo] good %llu bad %llu, burn short %.2f long %.2f, "
              "firing: %s\n",
              static_cast<unsigned long long>(slo.TotalGood()),
              static_cast<unsigned long long>(slo.TotalBad()),
              slo_eval.short_burn_rate, slo_eval.long_burn_rate,
              slo_eval.firing ? "yes" : "no");
  const std::vector<obs::WideEvent> events = obs::WideEvents::Drain();
  std::printf("[obs] %zu wide events (pipe to scripts/trace_summarize.py "
              "for fleet-level attribution):\n",
              events.size());
  for (const obs::WideEvent& event : events) {
    std::printf("%s\n", event.ToJsonLine().c_str());
  }
  return asked > 0 || events.empty() ? 0 : 1;
}
