#!/usr/bin/env python3
"""Builds and runs the KBQA end-to-end benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload answer_cold --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --list

The first run configures and builds perfbench/ (which compiles the library
sources under src/) into .bench_build/; later runs only check that the build
is up to date. All build output goes to stderr, so the last stdout line is
the benchmark's JSON result. --list prints every metric named in
BENCHMARK.json with its unit and better direction.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "kbqa_perfbench")


def list_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        print(f"workload  {w['name']:<12} {w['why']}")
    for section in ("end_to_end", "per_layer"):
        for m in spec[section]:
            bound = f"bound {m['bound']}" if "bound" in m else ""
            print(f"{section:<10} {m['name']:<36} {m['unit']:<6} "
                  f"{m['better']:<7} {bound}")
    return 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "kbqa_system.h")):
        print("perfbench: no KBQA sources under src/; nothing to build",
              file=sys.stderr)
        return 2
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return done.returncode or 1
    return 0


def main(argv):
    if argv == ["--list"]:
        return list_metrics()
    status = build()
    if status != 0:
        return status
    os.chdir(ROOT)
    sys.stdout.flush()
    # Replace this process, so a caller's signals reach the benchmark
    # directly and no child outlives the run.
    os.execv(BINARY, [BINARY] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
