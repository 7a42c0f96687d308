#!/usr/bin/env python3
"""Live-scrape check for the exposition endpoints (check.sh --obs-smoke).

Runs against a bench_serving (or examples/serving_server) process that
printed "exposition listening on 127.0.0.1:PORT". Verifies:

  /statusz   — reports build info and the wide-event sink totals
  /metricsz  — text tables; ?format=json holds `counters`, `gauges` and
               `histograms` lists whose entries carry name/value
               (counters, gauges) and name/count/sum/buckets
               (histograms), the shape MetricsSnapshot::ToJson writes
  /slo       — parses as JSON with burn rates and the firing flag
  /eventz    — retried until at least one wide event is visible (the
               load phases start shortly after the listener), then one
               event line is schema-checked against the DESIGN.md §8
               wide-event shape
  stages     — /metricsz?format=json holds samples in the exact
               online.stage.ner_ns histogram (bench_serving warms its
               question pool through the server, so its answer-cache
               misses run the stage clock)

Usage: obs_scrape_check.py <port> [timeout_s]
"""

import json
import sys
import time
import urllib.request

OUTCOMES = {"answered", "unanswered", "deadline_exceeded", "error",
            "rejected", "shed_expired", "shed_shutdown"}
STAGES = {"ner", "conceptualize", "template_match", "score",
          "value_lookup", "rank"}


def fetch(port, path):
    with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=10) as response:
        return response.read().decode()


def fail(msg):
    print(f"obs scrape: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def histogram_count(port, name):
    metrics = json.loads(fetch(port, "/metricsz?format=json"))
    for histogram in metrics.get("histograms", []):
        if histogram["name"] == name:
            return histogram["count"]
    return 0


def check_metrics_json(metrics):
    if not isinstance(metrics, dict):
        fail("/metricsz?format=json is not an object")
    number = (int, float)
    shapes = {"counters": {"name": str, "value": int},
              "gauges": {"name": str, "value": number},
              "histograms": {"name": str, "count": int, "sum": int,
                             "buckets": list}}
    for section, fields in shapes.items():
        entries = metrics.get(section)
        if not isinstance(entries, list):
            fail(f"/metricsz?format=json has no {section} list")
        for entry in entries:
            for field, kind in fields.items():
                if not isinstance(entry, dict) or \
                        not isinstance(entry.get(field), kind):
                    fail(f"/metricsz?format=json {section} entry lacks "
                         f"{field}: {entry!r:.200}")
            for bucket in entry.get("buckets", []):
                if not isinstance(bucket, dict) or \
                        not isinstance(bucket.get("bucket"), int) or \
                        not isinstance(bucket.get("count"), int):
                    fail(f"/metricsz?format=json bad bucket in "
                         f"{entry['name']}: {bucket!r}")
    return {section: len(metrics[section]) for section in shapes}


def check_wide_event(line):
    event = json.loads(line)
    for key in ("trace_id", "outcome", "admit_ns", "has_deadline",
                "deadline_budget_ns", "question_bytes", "queue_wait_ns",
                "service_ns", "total_ns", "stages", "value_cache",
                "answer_cache"):
        if key not in event:
            fail(f"wide event missing key {key}: {line[:200]}")
    if event["outcome"] not in OUTCOMES:
        fail(f"unknown outcome {event['outcome']!r}")
    if set(event["stages"].keys()) != STAGES:
        fail(f"stage set mismatch: {sorted(event['stages'])}")
    stage_sum = sum(s["ns"] for s in event["stages"].values())
    if stage_sum > event["service_ns"]:
        fail(f"stage sum {stage_sum} exceeds service_ns "
             f"{event['service_ns']} (trace {event['trace_id']})")
    if event["trace_id"] <= 0:
        fail("trace_id not positive")
    return event


def main():
    port = int(sys.argv[1])
    timeout_s = float(sys.argv[2]) if len(sys.argv) > 2 else 120.0

    statusz = fetch(port, "/statusz")
    for needle in ("build.compiler", "wide_events.recorded",
                   "wide_events.sample_period"):
        if needle not in statusz:
            fail(f"/statusz missing {needle}")
    print("obs scrape: /statusz OK")

    if not fetch(port, "/metricsz").strip():
        fail("/metricsz is empty")
    sizes = check_metrics_json(
        json.loads(fetch(port, "/metricsz?format=json")))
    print(f"obs scrape: /metricsz OK ({sizes['counters']} counters, "
          f"{sizes['gauges']} gauges, {sizes['histograms']} histograms)")

    slo = json.loads(fetch(port, "/slo"))
    for key in ("availability_target", "short_burn_rate", "long_burn_rate",
                "firing"):
        if key not in slo:
            fail(f"/slo missing {key}")
    print(f"obs scrape: /slo OK (firing={slo['firing']})")

    # The load phases begin after the world build; poll until events show.
    deadline = time.monotonic() + timeout_s
    lines = []
    while time.monotonic() < deadline:
        lines = [l for l in fetch(port, "/eventz?n=5").splitlines()
                 if l.strip()]
        if lines:
            break
        time.sleep(0.5)
    if not lines:
        fail(f"/eventz served no wide events within {timeout_s:.0f}s")
    event = check_wide_event(lines[-1])
    print(f"obs scrape: /eventz OK ({len(lines)} events, last: trace "
          f"{event['trace_id']}, outcome {event['outcome']}, total "
          f"{event['total_ns']} ns)")

    ner_samples = histogram_count(port, "online.stage.ner_ns")
    while ner_samples <= 0 and time.monotonic() < deadline:
        time.sleep(0.5)
        ner_samples = histogram_count(port, "online.stage.ner_ns")
    if ner_samples <= 0:
        fail("/metricsz?format=json holds no online.stage.ner_ns samples")
    print(f"obs scrape: online.stage.ner_ns OK ({ner_samples} samples)")

    # With load flowing, the serving metrics must be visible too.
    if "serve." not in fetch(port, "/metricsz"):
        fail("/metricsz shows no serve.* metrics under load")
    print("obs scrape: serve.* metrics visible under load")


if __name__ == "__main__":
    main()
