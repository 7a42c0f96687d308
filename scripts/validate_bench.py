#!/usr/bin/env python3
"""Schema checks for bench JSON artifacts (scripts/check.sh smoke targets).

One validator per artifact family, dispatched on file name:

  BENCH_serving.json  — the serving load harness: a steady run below
      saturation that kept up with its offered load, an overload run that
      actually exercised admission control, p50/p99/p999 latency split
      into queue-wait vs service for both, and how late each run's
      generator sent its requests.
  BENCH_observability.json — the obs bench: paired A/B overhead of the
      metrics registry AND of wide-event telemetry through the serving
      front door, both gated under their 2% budgets, plus the bare-engine
      context-propagation delta (informational) and metric coverage.

Usage: validate_bench.py <BENCH_*.json> [more...]
"""

import json
import os
import sys

LATENCY_KEYS = ("p50_ns", "p99_ns", "p999_ns", "mean_ns", "count")
RUN_KEYS = (
    "target_qps",
    "offered",
    "wall_s",
    "completed",
    "rejected",
    "shed_expired",
    "shed_shutdown",
    "throughput_qps",
    "generator_lag",
    "latency",
)
LAG_KEYS = ("p50_ns", "p99_ns", "max_ns", "count")


class SchemaError(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise SchemaError(msg)


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# ---- BENCH_serving.json ----


def check_latency(run_name, latency):
    for split in ("total", "queue_wait", "service"):
        require(split in latency, f"{run_name}.latency.{split} missing")
        for key in LATENCY_KEYS:
            value = latency[split].get(key)
            require(
                is_number(value) and value >= 0,
                f"{run_name}.latency.{split}.{key} missing or negative",
            )
        require(
            latency[split]["p50_ns"]
            <= latency[split]["p99_ns"]
            <= latency[split]["p999_ns"],
            f"{run_name}.latency.{split} percentiles not monotone",
        )


def check_generator_lag(run_name, lag):
    # Schema only, not a floor: actual minus scheduled send per request.
    for key in LAG_KEYS:
        value = lag.get(key)
        require(
            is_number(value) and value >= 0,
            f"{run_name}.generator_lag.{key} missing or negative",
        )
    require(
        lag["p50_ns"] <= lag["p99_ns"] <= lag["max_ns"],
        f"{run_name}.generator_lag percentiles not monotone",
    )


def check_run(name, run):
    for key in RUN_KEYS:
        require(key in run, f"{name}.{key} missing")
    check_generator_lag(name, run["generator_lag"])
    require(run["completed"] > 0, f"{name} completed no requests")
    require(run["throughput_qps"] > 0, f"{name} throughput is zero")
    accounted = (
        run["completed"]
        + run["rejected"]
        + run["shed_expired"]
        + run["shed_shutdown"]
    )
    require(
        accounted == run["offered"],
        f"{name}: offered {run['offered']} != accounted {accounted}",
    )
    check_latency(name, run["latency"])


def validate_serving(doc):
    for key in ("hardware_threads", "config", "engine_serial_qps",
                "capacity_estimate_qps", "steady", "overload"):
        require(key in doc, f"top-level {key} missing")
    require(doc["hardware_threads"] >= 1, "hardware_threads < 1")

    check_run("steady", doc["steady"])
    check_run("overload", doc["overload"])

    steady = doc["steady"]
    require(
        steady["rejected"] == 0,
        "steady (below saturation) rejected requests",
    )
    require(
        steady["completed"] >= 0.8 * steady["offered"],
        "steady throughput did not track offered load",
    )
    require(
        doc["overload"]["rejected"] > 0,
        "overload run never hit admission control",
    )

    require(doc["capacity_estimate_qps"] > 0,
            "closed-loop capacity through the server is zero")

    # obs section (wide-event sink + SLO accounting); optional for JSONs
    # emitted before the telemetry PR, required keys once present.
    if "obs" in doc:
        obs = doc["obs"]
        for key in ("sample_period", "wide_events_recorded",
                    "wide_events_drained", "wide_events_dropped",
                    "slo_good", "slo_bad", "slo_burn_short",
                    "slo_burn_long", "slo_firing"):
            require(key in obs, f"obs.{key} missing")
        if obs["sample_period"] == 1:
            require(obs["wide_events_recorded"] > 0,
                    "1-in-1 sampling recorded no wide events")
        require(obs["slo_good"] + obs["slo_bad"] > 0,
                "slo monitor saw no terminal outcomes")


# ---- BENCH_observability.json ----

OVERHEAD_KEYS = (
    "questions",
    "pairs",
    "median_paired_diff_ns",
    "overhead_percent",
    "budget_percent",
)


def check_overhead(name, section):
    for key in OVERHEAD_KEYS:
        require(key in section, f"{name}.{key} missing")
    require(section["pairs"] >= 100, f"{name} has too few A/B pairs")
    require(
        is_number(section["overhead_percent"]),
        f"{name}.overhead_percent not numeric",
    )
    require(
        section["overhead_percent"] < section["budget_percent"],
        f"{name}: overhead {section['overhead_percent']}% breaks the "
        f"{section['budget_percent']}% budget",
    )


def validate_observability(doc):
    for key in ("hardware_threads", "answer_overhead", "wide_event_overhead",
                "context_propagation", "coverage", "benchmark_run"):
        require(key in doc, f"top-level {key} missing")

    check_overhead("answer_overhead", doc["answer_overhead"])
    check_overhead("wide_event_overhead", doc["wide_event_overhead"])
    require(
        doc["wide_event_overhead"].get("events_recorded", 0) > 0,
        "wide_event_overhead arm recorded no events",
    )

    # Propagation delta is informational (the budget is gated on the
    # through-the-server denominator above), but must be present and sane.
    ctx = doc["context_propagation"]
    for key in ("questions", "pairs", "median_paired_diff_ns",
                "with_context_median_ns", "without_context_median_ns",
                "overhead_percent"):
        require(key in ctx, f"context_propagation.{key} missing")
    require(ctx["without_context_median_ns"] > 0,
            "context_propagation baseline is zero")

    coverage = doc["coverage"]
    for key in ("stage_ner_count", "stage_ner_avg_us", "value_cache_hits",
                "em_iterations", "thread_pool_tasks"):
        require(key in coverage, f"coverage.{key} missing")
        require(coverage[key] > 0, f"coverage.{key} is zero")


# ---- BENCH_mutation.json ----


def validate_mutation(doc):
    for key in ("config", "base", "quiescent", "during_merge", "final",
                "equivalence"):
        require(key in doc, f"top-level {key} missing")

    for phase_name in ("quiescent", "during_merge"):
        phase = doc[phase_name]
        for key in ("answers", "p50_ns", "p99_ns", "mean_ns"):
            value = phase.get(key)
            require(
                is_number(value) and value >= 0,
                f"{phase_name}.{key} missing or negative",
            )
        require(phase["answers"] > 0, f"{phase_name} answered no questions")
        require(
            phase["p50_ns"] <= phase["p99_ns"],
            f"{phase_name} percentiles not monotone",
        )
        # Schema only, not a floor: the share of the phase's reads served
        # from the answer cache.
        rate = phase.get("answer_cache_hit_rate")
        require(
            is_number(rate) and 0 <= rate <= 1,
            f"{phase_name}.answer_cache_hit_rate missing or outside [0, 1]",
        )

    during = doc["during_merge"]
    require(during["merges"] >= 1, "no merge completed during the load phase")
    require(during["ops_applied"] > 0, "no mutation ops applied")

    # Bounded read p99 while the background re-freeze runs: the RCU swap
    # must never block readers, so the merge-phase p99 stays within a
    # generous multiple of quiescent (or an absolute 100ms floor that
    # absorbs tiny-denominator noise in smoke runs).
    bound = max(100e6, 25 * doc["quiescent"]["p99_ns"])
    require(
        during["p99_ns"] <= bound,
        f"during_merge p99 {during['p99_ns']}ns exceeds bound {bound:.0f}ns",
    )

    eq = doc["equivalence"]
    require(
        eq["kb_bit_identical"] is True,
        "merged base diverged from the from-scratch freeze",
    )
    require(
        eq["answers_identical"] is True,
        "live answers diverged from the from-scratch engine",
    )
    require(eq["questions"] > 0, "equivalence compared no questions")

    require(doc["final"]["epoch"] >= 1, "final epoch < 1 (no merge published)")


VALIDATORS = {
    "BENCH_serving.json": validate_serving,
    "BENCH_observability.json": validate_observability,
    "BENCH_mutation.json": validate_mutation,
}


def main():
    if len(sys.argv) < 2:
        print("usage: validate_bench.py <BENCH_*.json> [more...]",
              file=sys.stderr)
        sys.exit(2)
    for path in sys.argv[1:]:
        name = os.path.basename(path)
        validator = VALIDATORS.get(name)
        if validator is None:
            print(f"{name}: FAIL: no validator for this artifact",
                  file=sys.stderr)
            sys.exit(1)
        with open(path) as f:
            doc = json.load(f)
        try:
            validator(doc)
        except SchemaError as e:
            print(f"{name} schema: FAIL: {e}", file=sys.stderr)
            sys.exit(1)
        print(f"{name} schema: OK")


if __name__ == "__main__":
    main()
