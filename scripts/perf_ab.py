#!/usr/bin/env python3
"""Parent/change A/B of the end-to-end benchmark (perfbench) in one command.

Run from anywhere inside the repository:

  scripts/perf_ab.py PARENT_REV [--pairs 10] [--seconds 20]
                     [--workloads answer_cold,live_rw] [--first-seed N]

The change is the working tree this script lives in; the parent is
PARENT_REV, exported with `git archive` into a temporary directory (under
$TMPDIR) that is removed on exit. Each tree builds perfbench into its own
.bench_build/ on its first run.

For each workload, pair i (1-based) runs

  python3 <tree>/perfbench/run.py --workload W --seed S --seconds T --trace 0

on both trees with seed S = first_seed + (workload index) * pairs + i - 1,
the parent first on odd pairs and the change first on even pairs, so host
drift falls on both sides alike.

It prints every run, with the Train time of each of its set-ups, then
per workload one row per end-to-end metric of BENCHMARK.json: parent
median and interquartile range, change median, the change's relative
delta, and the pairs the change won (ties count for neither side). A
metric whose change median is worse than the parent's by more than its
BENCHMARK.json bound is flagged. A metric is marked unresolved when the
parent's own spread (the width of its IQR) is wider than the bound times
the parent median, unless every change run reads better than every parent
run: such a delta cannot tell a change from noise, so it shows neither a
gain nor the absence of a regression. Last comes each side's median and
maximum first set-up Train, which train_s (a median of the set-ups'
Trains) does not show.

Exit status: 0 when every run reported `correct: true` and 0 failed
operations and no metric is flagged; 1 otherwise; 2 on bad arguments or a
parent revision git cannot export. An unresolved metric is listed but does
not change the exit status.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Alternating parent/change pairs of perfbench runs.")
    parser.add_argument("parent_rev", metavar="PARENT_REV",
                        help="git revision to compare the working tree with")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--workloads", default="answer_cold,live_rw")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    args.workloads = [w for w in args.workloads.split(",") if w]
    if args.pairs < 1 or args.seconds < 1 or not args.workloads:
        parser.error("--pairs and --seconds must be positive and "
                     "--workloads non-empty")
    return args


def export_tree(rev, dest):
    """Writes the files of `rev` into `dest`; False if git cannot."""
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    return archive.wait() == 0 and untar.returncode == 0


def run_once(tree, workload, seed, seconds):
    """One perfbench run; returns its parsed result line, or None."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stderr[-4000:])
        return None
    result["exit_code"] = done.returncode
    # perfbench logs each set-up as "[setup] k: S s (Train T s)".
    result["trains"] = [line.rsplit("(Train ", 1)[1].split()[0]
                        for line in done.stderr.splitlines()
                        if line.startswith("[setup]") and "(Train " in line]
    return result


def value(result, name):
    metric = result["metrics"].get(name)
    return None if metric is None else metric["value"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def fmt(x):
    if x is None:
        return "-"
    return f"{x:,.0f}" if abs(x) >= 1000 else f"{x:.4g}"


def report(workload, pairs, metrics):
    """Prints the per-metric table; returns the names of the flagged
    metrics and of the unresolved ones."""
    print(f"\n== {workload}: {len(pairs)} pairs ==")
    print(f"{'metric':<18} {'parent med':>11} {'parent IQR':>21} "
          f"{'change med':>11} {'delta':>8} {'won':>6} {'bound':>6}")
    flagged, unresolved = [], []
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        both = [(value(p, name), value(c, name)) for p, c in pairs]
        both = [(p, c) for p, c in both if p is not None and c is not None]
        if not both:
            continue
        parent = [p for p, _ in both]
        change = [c for _, c in both]
        pmed, cmed = statistics.median(parent), statistics.median(change)
        q1, q3 = quartiles(parent)
        won = sum(1 for p, c in both if (c > p if higher else c < p))
        delta = (cmed - pmed) / pmed if pmed else 0.0
        worse = -delta if higher else delta
        flag = worse > m["bound"]
        if flag:
            flagged.append(name)
        separated = (min(change) > max(parent) if higher
                     else max(change) < min(parent))
        noisy = q3 - q1 > m["bound"] * abs(pmed) and not separated
        if noisy:
            unresolved.append(name)
        print(f"{name:<18} {fmt(pmed):>11} {fmt(q1):>10}-{fmt(q3):<10} "
              f"{fmt(cmed):>11} {delta:>+8.1%} {won:>3}/{len(both):<2} "
              f"{m['bound']:>6.2f}{'  WORSE THAN BOUND' if flag else ''}"
              f"{'  UNRESOLVED' if noisy else ''}")
    for side, index in (("parent", 0), ("change", 1)):
        firsts = [float(pair[index]["trains"][0]) for pair in pairs
                  if pair[index]["trains"]]
        if firsts:
            print(f"first Train {side}: median {statistics.median(firsts):.3f}"
                  f" s, max {max(firsts):.3f} s over {len(firsts)} runs")
    return flagged, unresolved


def main(argv):
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    names = [m["name"] for m in metrics]
    parent_tree = tempfile.mkdtemp(prefix="perf_ab_parent.")
    try:
        if not export_tree(args.parent_rev, parent_tree):
            print(f"perf_ab: cannot export {args.parent_rev}",
                  file=sys.stderr)
            return 2
        trees = {"parent": parent_tree, "change": ROOT}
        results = {}  # workload -> list of (parent result, change result)
        ok = True
        for w_index, workload in enumerate(args.workloads):
            results[workload] = []
            for pair in range(1, args.pairs + 1):
                seed = args.first_seed + w_index * args.pairs + pair - 1
                order = ("parent", "change") if pair % 2 else ("change",
                                                               "parent")
                got = {}
                for side in order:
                    result = run_once(trees[side], workload, seed,
                                      args.seconds)
                    if result is None:
                        print(f"{workload} pair {pair} seed {seed} {side}: "
                              f"no result line", flush=True)
                        return 1
                    got[side] = result
                    good = result["correct"] and result["failed"] == 0
                    ok = ok and good and result["exit_code"] == 0
                    shown = " ".join(f"{n}={fmt(value(result, n))}"
                                     for n in names)
                    print(f"{workload} pair {pair} seed {seed} {side:<6} "
                          f"correct={str(result['correct']).lower()} "
                          f"failed={result['failed']} {shown} "
                          f"trains={','.join(result['trains'])}", flush=True)
                results[workload].append((got["parent"], got["change"]))
        flagged, unresolved = [], []
        for workload, pairs in results.items():
            worse, noisy = report(workload, pairs, metrics)
            flagged += [f"{workload}.{n}" for n in worse]
            unresolved += [f"{workload}.{n}" for n in noisy]
        if not ok:
            print("\nperf_ab: a run reported correct: false or failed "
                  "operations")
        if flagged:
            print("\nperf_ab: worse than the BENCHMARK.json bound: " +
                  ", ".join(flagged))
        if unresolved:
            print("\nperf_ab: unresolved (parent IQR wider than the bound): " +
                  ", ".join(unresolved))
        return 0 if ok and not flagged else 1
    finally:
        shutil.rmtree(parent_tree, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
