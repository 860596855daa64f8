#!/usr/bin/env python3
"""Perf-smoke gate: run bench_hotpath and compare against the committed
BENCH_hotpath.json baseline.

Fails (exit 1) when any benchmark tracked in the baseline regresses by
more than the tolerance (default 25%). This is a smoke gate against
order-of-magnitude mistakes -- an accidental O(n^2), a lost fast path --
not a precision gate: CI hardware differs from the machine that recorded
the baseline, so the tolerance is wide and each benchmark is measured as
the minimum over several repetitions to shed scheduler noise.

Benchmarks present only in the current run (newly added) are reported
but never fail the gate; benchmarks present only in the baseline fail it
(the suite lost coverage).

Usage:
  scripts/bench_gate.py [--build-dir build] [--baseline BENCH_hotpath.json]
                        [--tolerance 0.25] [--repetitions 3]
                        [--current out.json]   # compare a saved run
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

UNIT_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_benchmarks(path):
    """Map benchmark name -> (best real_time in ns) from a google-benchmark
    JSON file, ignoring aggregate rows (mean/median/stddev)."""
    with open(path) as f:
        doc = json.load(f)
    best = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        name = b["name"]
        ns = b["real_time"] * UNIT_TO_NS[b.get("time_unit", "ns")]
        if name not in best or ns < best[name]:
            best[name] = ns
    return best


def run_bench(binary, out_path, repetitions):
    cmd = [
        binary,
        "--benchmark_format=console",
        "--benchmark_out=%s" % out_path,
        "--benchmark_out_format=json",
        # Old-style min_time flag (no unit suffix): the baked-in
        # google-benchmark predates the "0.2s" syntax.
        "--benchmark_min_time=0.05",
        "--benchmark_repetitions=%d" % repetitions,
    ]
    print("+", " ".join(cmd), flush=True)
    subprocess.run(cmd, check=True)


def fmt(ns):
    if ns >= 1e6:
        return "%.3f ms" % (ns / 1e6)
    if ns >= 1e3:
        return "%.1f us" % (ns / 1e3)
    return "%.1f ns" % ns


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap.add_argument("--build-dir", default=os.path.join(repo, "build"))
    ap.add_argument("--baseline",
                    default=os.path.join(repo, "BENCH_hotpath.json"))
    ap.add_argument("--tolerance", type=float,
                    default=float(os.environ.get("BENCH_GATE_TOLERANCE",
                                                 0.25)),
                    help="allowed fractional regression (0.25 = +25%%)")
    ap.add_argument("--repetitions", type=int, default=3)
    ap.add_argument("--current", default=None,
                    help="saved benchmark JSON to compare instead of "
                         "running the binary")
    ap.add_argument("--strict", action="append", default=[],
                    metavar="NAME=TOL",
                    help="tighter per-benchmark tolerance, e.g. "
                         "BM_MissRoundTrip=0.05 to assert the clean "
                         "miss path pays <5%% for features that are "
                         "compiled in but disabled; repeatable")
    args = ap.parse_args()

    strict = {}
    for spec in args.strict:
        name, _, tol = spec.partition("=")
        if not tol:
            print("error: --strict wants NAME=TOL, got %r" % spec,
                  file=sys.stderr)
            return 2
        strict[name] = float(tol)

    baseline = load_benchmarks(args.baseline)
    if not baseline:
        print("error: no benchmarks in baseline %s" % args.baseline,
              file=sys.stderr)
        return 2

    if args.current:
        current_path = args.current
    else:
        binary = os.path.join(args.build_dir, "bench", "bench_hotpath")
        if not os.access(binary, os.X_OK):
            print("error: %s not built" % binary, file=sys.stderr)
            return 2
        fd, current_path = tempfile.mkstemp(suffix=".json")
        os.close(fd)
        run_bench(binary, current_path, args.repetitions)
    current = load_benchmarks(current_path)

    failures = []
    width = max(len(n) for n in sorted(baseline) + sorted(current))
    print("\n%-*s %12s %12s %8s" %
          (width, "benchmark", "baseline", "current", "ratio"))
    for name in sorted(baseline):
        if name not in current:
            failures.append("%s: missing from current run" % name)
            print("%-*s %12s %12s %8s" %
                  (width, name, fmt(baseline[name]), "MISSING", "-"))
            continue
        ratio = current[name] / baseline[name]
        tol = strict.get(name, args.tolerance)
        flag = ""
        if ratio > 1.0 + tol:
            failures.append("%s: %.2fx baseline (limit %.2fx)" %
                            (name, ratio, 1.0 + tol))
            flag = "  REGRESSED"
        print("%-*s %12s %12s %7.2fx%s" %
              (width, name, fmt(baseline[name]), fmt(current[name]),
               ratio, flag))
    for name in sorted(set(current) - set(baseline)):
        print("%-*s %12s %12s %8s  (untracked)" %
              (width, name, "-", fmt(current[name]), "-"))

    if failures:
        print("\nFAIL: %d benchmark(s) beyond +%d%% tolerance" %
              (len(failures), round(args.tolerance * 100)))
        for f in failures:
            print("  " + f)
        return 1
    print("\nOK: no tracked benchmark regressed beyond +%d%%" %
          round(args.tolerance * 100))
    return 0


if __name__ == "__main__":
    sys.exit(main())
