#!/usr/bin/env python3
"""Summarize wide-event JSONL (the /eventz payload, or a drain written by
bench_serving --obs-events) into a latency-attribution report.

Each input line is one request's wide event (DESIGN.md §8): terminal
outcome, end-to-end latency split into queue-wait / batch-wait / service,
per-stage nanosecond attribution inside the service span, and cache
traffic. The report answers "where did the time go" at the fleet level:

  - outcome mix (answered / shed / rejected / ...)
  - end-to-end and split latency percentiles
  - per-stage p50/p99 plus each stage's share of total service time,
    including the unattributed remainder (service minus stage sum)
  - the top-K slowest requests with their dominant stage

Percentiles are nearest-rank (ceil(q*n)) on exact values — deterministic,
so the output is golden-testable (tests/data/wide_events_golden.*).

Usage: trace_summarize.py [--top K] [events.jsonl ...]   (default: stdin)
"""

import argparse
import json
import math
import sys

# Display order mirrors the answer pipeline; kStageNames in wide_event.cc.
STAGES = ("ner", "conceptualize", "template_match", "score",
          "value_lookup", "rank")
OUTCOMES = ("answered", "unanswered", "deadline_exceeded", "error",
            "rejected", "shed_expired", "shed_shutdown")


def percentile(sorted_values, q):
    """Nearest-rank percentile of an already-sorted list (0 if empty)."""
    if not sorted_values:
        return 0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def load_events(paths):
    events = []
    streams = [(p, open(p)) for p in paths] if paths else [("<stdin>",
                                                            sys.stdin)]
    for name, stream in streams:
        for lineno, line in enumerate(stream, 1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as e:
                print(f"{name}:{lineno}: skipping unparseable line ({e})",
                      file=sys.stderr)
                continue
            if "trace_id" not in event or "outcome" not in event:
                print(f"{name}:{lineno}: skipping non-wide-event object",
                      file=sys.stderr)
                continue
            events.append(event)
        if stream is not sys.stdin:
            stream.close()
    return events


def ms(ns):
    return ns / 1e6


def dominant_stage(event):
    best_name, best_ns = "-", 0
    for stage in STAGES:
        record = event.get("stages", {}).get(stage, {})
        if record.get("ns", 0) > best_ns:
            best_name, best_ns = stage, record["ns"]
    return best_name


def summarize(events, top_k, out):
    n = len(events)
    out.write(f"wide events: {n}\n")
    if n == 0:
        return

    out.write("\n== outcomes ==\n")
    for outcome in OUTCOMES:
        count = sum(1 for e in events if e["outcome"] == outcome)
        if count:
            out.write(f"  {outcome:<17} {count:>6}  ({100.0 * count / n:.1f}%)\n")

    out.write("\n== latency split (ms) ==\n")
    out.write(f"  {'split':<12} {'p50':>9} {'p99':>9} {'max':>9}\n")
    for label, key in (("total", "total_ns"), ("queue_wait", "queue_wait_ns"),
                       ("batch_wait", "batch_wait_ns"),
                       ("service", "service_ns")):
        values = sorted(e.get(key, 0) for e in events)
        out.write(f"  {label:<12} {ms(percentile(values, 0.5)):>9.3f} "
                  f"{ms(percentile(values, 0.99)):>9.3f} "
                  f"{ms(values[-1]):>9.3f}\n")

    # Stage attribution: percentiles over requests that ran the stage;
    # share is of aggregate service time, so the rows plus "unattributed"
    # (dispatch glue, uninstrumented tail) sum to ~100%.
    served = [e for e in events if e.get("service_ns", 0) > 0]
    total_service = sum(e["service_ns"] for e in served)
    out.write("\n== service-time attribution ==\n")
    if total_service == 0:
        out.write("  (no served requests)\n")
    else:
        out.write(f"  {'stage':<16} {'reqs':>6} {'p50_ms':>9} {'p99_ms':>9} "
                  f"{'share':>7}\n")
        attributed = 0
        for stage in STAGES:
            values = sorted(
                e["stages"][stage]["ns"] for e in served
                if e.get("stages", {}).get(stage, {}).get("count", 0) > 0)
            stage_total = sum(values)
            attributed += stage_total
            if not values:
                continue
            out.write(f"  {stage:<16} {len(values):>6} "
                      f"{ms(percentile(values, 0.5)):>9.3f} "
                      f"{ms(percentile(values, 0.99)):>9.3f} "
                      f"{100.0 * stage_total / total_service:>6.1f}%\n")
        out.write(f"  {'(unattributed)':<16} {len(served):>6} {'':>9} {'':>9} "
                  f"{100.0 * (total_service - attributed) / total_service:>6.1f}%\n")

    out.write("\n== cache traffic ==\n")
    for cache in ("value_cache", "answer_cache"):
        hits = sum(e.get(cache, {}).get("hits", 0) for e in events)
        misses = sum(e.get(cache, {}).get("misses", 0) for e in events)
        total = hits + misses
        rate = f"{100.0 * hits / total:.1f}%" if total else "n/a"
        out.write(f"  {cache:<13} hits {hits:>8}  misses {misses:>8}  "
                  f"hit-rate {rate}\n")

    out.write(f"\n== top {top_k} slowest ==\n")
    slowest = sorted(events, key=lambda e: (-e.get("total_ns", 0),
                                            e["trace_id"]))[:top_k]
    out.write(f"  {'trace_id':>10} {'total_ms':>9} {'queue_ms':>9} "
              f"{'service_ms':>10} {'outcome':<17} {'dominant_stage':<14}\n")
    for e in slowest:
        out.write(f"  {e['trace_id']:>10} {ms(e.get('total_ns', 0)):>9.3f} "
                  f"{ms(e.get('queue_wait_ns', 0)):>9.3f} "
                  f"{ms(e.get('service_ns', 0)):>10.3f} "
                  f"{e['outcome']:<17} {dominant_stage(e):<14}\n")


def main():
    parser = argparse.ArgumentParser(
        description="Summarize wide-event JSONL into latency attribution.")
    parser.add_argument("--top", type=int, default=5, metavar="K",
                        help="slowest requests to list (default 5)")
    parser.add_argument("paths", nargs="*", help="JSONL files (default stdin)")
    args = parser.parse_args()
    events = load_events(args.paths)
    summarize(events, args.top, sys.stdout)
    return 0 if events else 1


if __name__ == "__main__":
    sys.exit(main())
