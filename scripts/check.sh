#!/usr/bin/env bash
# Tier-1 verification. Run from the repo root:
#
#   scripts/check.sh          # lint + plain build/tests + ASan+UBSan tree
#   scripts/check.sh fast     # lint + plain build/tests only
#   scripts/check.sh --lint   # project lint only (scripts/lint.py)
#   scripts/check.sh --tsan   # ThreadSanitizer tree only (build + tests,
#                             # suppressions from tsan.supp — kept empty;
#                             # see the policy note at its top)
#   scripts/check.sh --serve-smoke
#                             # build bench_serving, run a short low-QPS
#                             # open-loop pass (--smoke), and validate the
#                             # BENCH_serving.json schema
#   scripts/check.sh --mutation-smoke
#                             # build bench_mutation, run the Small-world
#                             # mixed read/write pass (--smoke: reads
#                             # during forced background merges + the
#                             # from-scratch-freeze equivalence check),
#                             # and validate the BENCH_mutation.json schema
#   scripts/check.sh --obs-smoke
#                             # wide-event telemetry end to end: run
#                             # bench_serving --smoke with the exposition
#                             # listener up, scrape /metricsz /statusz
#                             # /slo /eventz live, schema-check a scraped
#                             # wide event, require samples in the
#                             # online.stage.ner_ns histogram, then
#                             # summarize the drained JSONL with
#                             # scripts/trace_summarize.py
#   scripts/check.sh --fuzz-smoke
#                             # deterministic fuzzing layer under ASan+UBSan:
#                             # replay every committed corpus + regression
#                             # input, run a bounded fuzz pass per target,
#                             # and prove the planted canary bug is found
#                             # within its budget (fuzz/ — DESIGN.md §11)
#   scripts/check.sh --perf-smoke
#                             # a 2 s traced perfbench run of answer_cold and
#                             # of live_rw: each exits non-zero unless every
#                             # perfbench check passes (Table 15 answers,
#                             # server == direct answers, live freshness
#                             # after an Apply and after a merge, the train
#                             # replay's template count, precision/recall
#                             # floors, zero failed operations)
#   scripts/check.sh --perf PARENT_REV
#                             # short parent/change A/B of perfbench:
#                             # scripts/perf_ab.py PARENT_REV --pairs 3
#                             # --seconds 5 (both workloads); exits with
#                             # its status (non-zero on a failed check or
#                             # a metric past its BENCHMARK.json bound)
#
# Exits non-zero on the first failure.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc)}

run_lint() {
  echo "== project lint =="
  python3 scripts/lint.py
  echo "== trace_summarize golden =="
  python3 scripts/trace_summarize.py --top 3 tests/data/wide_events_golden.jsonl \
    | diff -u tests/data/wide_events_golden.txt -
}

run_plain() {
  echo "== plain build =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS"
  echo "== plain tests =="
  ctest --test-dir build --output-on-failure -j "$JOBS"
}

run_asan() {
  echo "== ASan+UBSan build =="
  cmake -B build-asan -S . -DASAN=ON >/dev/null
  cmake --build build-asan -j "$JOBS"
  echo "== ASan+UBSan tests =="
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"
}

run_tsan() {
  echo "== TSan build =="
  cmake -B build-tsan -S . -DTSAN=ON >/dev/null
  cmake --build build-tsan -j "$JOBS"
  echo "== TSan tests =="
  TSAN_OPTIONS="suppressions=$(pwd)/tsan.supp halt_on_error=1 ${TSAN_OPTIONS:-}" \
    ctest --test-dir build-tsan --output-on-failure -j "$JOBS"
}

run_serve_smoke() {
  echo "== serving smoke (bench_serving --smoke) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target bench_serving
  (cd build && ./bench/bench_serving --smoke)
  echo "== BENCH_serving.json schema =="
  python3 scripts/validate_bench.py build/BENCH_serving.json
}

run_mutation_smoke() {
  echo "== live-mutation smoke (bench_mutation --smoke) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target bench_mutation
  (cd build && ./bench/bench_mutation --smoke)
  echo "== BENCH_mutation.json schema =="
  python3 scripts/validate_bench.py build/BENCH_mutation.json
}

run_obs_smoke() {
  echo "== obs smoke (bench_serving --smoke --obs-port=0) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target bench_serving
  rm -f build/obs_smoke.log build/wide_events.jsonl
  (cd build && exec ./bench/bench_serving --smoke --obs-port=0 \
      --obs-events=wide_events.jsonl >obs_smoke.log 2>&1) &
  local bench_pid=$!
  # The exposition listener comes up before the expensive world build, so
  # the port line appears within seconds even on a slow box.
  local port=""
  for _ in $(seq 1 120); do
    port=$(sed -n 's/.*exposition listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
        build/obs_smoke.log 2>/dev/null | head -1)
    [ -n "$port" ] && break
    kill -0 "$bench_pid" 2>/dev/null || break
    sleep 0.5
  done
  if [ -z "$port" ]; then
    echo "FAILED: exposition never reported a port" >&2
    cat build/obs_smoke.log >&2 || true
    kill "$bench_pid" 2>/dev/null || true
    exit 1
  fi
  echo "== live scrape on port $port =="
  if ! python3 scripts/obs_scrape_check.py "$port"; then
    cat build/obs_smoke.log >&2 || true
    kill "$bench_pid" 2>/dev/null || true
    exit 1
  fi
  if ! wait "$bench_pid"; then
    echo "FAILED: bench_serving exited non-zero" >&2
    cat build/obs_smoke.log >&2 || true
    exit 1
  fi
  tail -4 build/obs_smoke.log
  echo "== drained wide-event summary =="
  python3 scripts/trace_summarize.py --top 3 build/wide_events.jsonl
  echo "== BENCH_serving.json schema (with obs section) =="
  python3 scripts/validate_bench.py build/BENCH_serving.json
}

run_fuzz_smoke() {
  echo "== fuzz smoke (ASan+UBSan tree) =="
  cmake -B build-asan -S . -DASAN=ON >/dev/null
  local targets
  targets=$(python3 -c "import json; print(' '.join(sorted({e['target'] \
      for e in json.load(open('fuzz/registry.json'))['entries']})))")
  # shellcheck disable=SC2086
  cmake --build build-asan -j "$JOBS" --target $targets fuzz_canary
  echo "== corpus + regression replay, bounded pass per target =="
  ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
      -R '^fuzz_.*_(replay|smoke)$'
  echo "== planted-bug canary =="
  ctest --test-dir build-asan --output-on-failure \
      -R '^fuzz_canary_finds_planted_bug$'
}

run_perf_smoke() {
  local workload
  for workload in answer_cold live_rw; do
    echo "== perf smoke: $workload =="
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 \
        --trace 1
  done
}

case "${1:-}" in
  --lint)
    run_lint
    echo "== OK (lint) =="
    ;;
  --serve-smoke)
    run_serve_smoke
    echo "== OK (serve smoke) =="
    ;;
  --mutation-smoke)
    run_mutation_smoke
    echo "== OK (mutation smoke) =="
    ;;
  --obs-smoke)
    run_obs_smoke
    echo "== OK (obs smoke) =="
    ;;
  --fuzz-smoke)
    run_fuzz_smoke
    echo "== OK (fuzz smoke) =="
    ;;
  --perf-smoke)
    run_perf_smoke
    echo "== OK (perf smoke) =="
    ;;
  --perf)
    if [ -z "${2:-}" ]; then
      echo "usage: scripts/check.sh --perf PARENT_REV" >&2
      exit 2
    fi
    python3 scripts/perf_ab.py "$2" --pairs 3 --seconds 5
    echo "== OK (perf A/B against $2) =="
    ;;
  --tsan)
    run_tsan
    echo "== OK (tsan) =="
    ;;
  fast)
    run_lint
    run_plain
    echo "== OK (fast: ASan/UBSan skipped) =="
    ;;
  "")
    run_lint
    run_plain
    run_asan
    echo "== OK =="
    ;;
  *)
    echo "usage: scripts/check.sh [fast|--lint|--tsan|--serve-smoke|--mutation-smoke|--obs-smoke|--fuzz-smoke|--perf-smoke|--perf PARENT_REV]" >&2
    exit 2
    ;;
esac
