#!/usr/bin/env python3
"""Paper-suite benchmark: FLASH vs ideal machine on mp3d, lu and radix.

Run from the root of a checkout:

    python3 paperbench/run.py --workload mp3d --seed 1 --seconds 40 --trace 0

It builds the simulator and the benchmark binary (paperbench.cc) from
source into
.bench_build/paperbench, times cold set-up in fresh processes, then runs
the binary's timed runs for --seconds and prints every metric by name
and unit. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (exact counts plus the
layer-replay host times). METRICS.md documents every metric.

Extra options (not used by the standard runs): --scale default runs the
reduced problem sizes in seconds (the self-test), --ref-digest HEX
replaces the verified reference digest.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "paperbench")
BINARY = os.path.join(BUILD, "paperbench")

WORKLOADS = ("mp3d", "lu", "radix")
# Seeds recorded for reproducing results: the default seed, and one held
# out of all tuning. lu has no random input and ignores the seed.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
# Reference FLASH/ideal slowdown (percent) from the paper's Figure 4.1
# text: ~25% for MP3D, and 2-12% for the optimized applications, whose
# centre (7%) is the point reference, so the error is never exactly 0.
PAPER_SLOWDOWN_PCT = {"mp3d": 25.0, "lu": 7.0, "radix": 7.0}
# Each timed run is scaled by PROBE_REF_S / (the host-speed probe's time
# around it): the seconds it would take on a host where the binary's
# fixed probe takes PROBE_REF_S. Neighbours on a shared host slow the
# simulator and the probe alike, so the scaling removes most of the
# host's drift. Compare results on one host only.
PROBE_REF_S = 0.15
# Fresh processes whose cold set-up times give the setup_s median.
SETUP_PROCESSES = 15
# Seconds kept back from --seconds for the binary's exit, and for the
# layer replays of a traced run.
RESERVE_S = 0.5
TRACE_RESERVE_S = 2.0


def fail(msg):
    print("paperbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then bring the build up to date."""
    for need in ("src/CMakeLists.txt", "paperbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail("missing %s: run from the root of a full checkout" % need)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance():
    commit = "none (not a git checkout)"
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
        if p.returncode == 0:
            commit = p.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "paperbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": cmake_cache("CMAKE_CXX_COMPILER"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def bench(args, timeout):
    p = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=timeout)
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        fail("paperbench exited %d: %s" % (p.returncode, " ".join(args)))
    return json.loads(p.stdout.strip().splitlines()[-1])


def declared_units(kind):
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {e["name"]: e["unit"] for e in json.load(f)[kind]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("paper", "default"), default="paper")
    ap.add_argument("--ref-digest")
    a = ap.parse_args()

    build()
    prov = provenance()
    if prov["build_type"] not in ("RelWithDebInfo", "Release"):
        fail("refusing to time a %s build: results are only compared "
             "as same-host A/B of optimised builds" % prov["build_type"])

    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--scale", a.scale]
    t0 = time.monotonic()
    setups = [bench(["setup"] + common, 60) for _ in range(SETUP_PROCESSES)]
    med = lambda key: statistics.median(s[key] for s in setups)
    reserve = RESERVE_S + (TRACE_RESERVE_S if a.trace else 0)
    budget = max(1.0, a.seconds - (time.monotonic() - t0) - reserve)
    run_args = ["run"] + common + ["--seconds", "%.3f" % budget]
    if a.trace:
        run_args.append("--trace")
    if a.ref_digest:
        run_args += ["--ref-digest", a.ref_digest]
    r = bench(run_args, 170)

    def scaled(kind):
        return statistics.median(
            t * PROBE_REF_S / p
            for t, p in zip(r[kind + "_cpu"], r[kind + "_probe"]))

    flash_s = scaled("flash")
    ideal_s = scaled("ideal")
    verify_s = scaled("verify")
    slowdown = 100.0 * (r["flash_cycles"] / r["ideal_cycles"] - 1.0)
    prov.update(optimized=r["optimized"], binary_compiler=r["compiler"],
                flash_digest=r["flash_digest"],
                ideal_digest=r["ideal_digest"], slowdown_pct=slowdown,
                failures=r["failures"])
    print("# provenance " + json.dumps(prov, sort_keys=True))
    print("# samples " + json.dumps({
        k + s: r[k + s] for k in ("flash", "ideal", "verify")
        for s in ("_cpu", "_wall", "_probe")}))

    failed_frac = r["failed"] / r["attempted"]
    if a.trace:
        v = dict(r["counts"])
        v.update(r["ns_per_op"])
        v.update(r["flash_layers"])
        v.update(("ideal." + k, x) for k, x in r["ideal_layers"].items())
        v["machine.build_s"] = med("build_cpu")
        v["apps.setup_s"] = med("setup_cpu")
        v["ppc.compile_s"] = med("compile_cpu")
        v["verify.overhead_s"] = verify_s - flash_s
        v["trace_overhead_s"] = r["trace_overhead_s"]
        v["failed_frac"] = failed_frac
    else:
        v = {
            "flash_run_s": flash_s,
            "ideal_run_s": ideal_s,
            "sim_refs_per_s": (r["flash_refs"] + r["ideal_refs"]) /
                              (flash_s + ideal_s),
            "setup_s": med("total_cpu"),
            "verify_run_s": verify_s,
            "peak_rss_mb": r["peak_rss_mb"],
            "slowdown_err_pp": abs(slowdown -
                                   PAPER_SLOWDOWN_PCT[a.workload]),
        }
    units = declared_units("per_layer" if a.trace else "end_to_end")
    if set(v) != set(units):
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(v) ^ set(units)))
    m = {k: {"value": v[k], "unit": units[k]} for k in units}
    for k in units:
        print("%-28s %18.6g %s" % (k, v[k], units[k]))
    if not a.trace:
        print("%-28s %18.6g %s" % ("failed_frac", failed_frac, "frac"))
    print(json.dumps({"correct": r["failed"] == 0,
                      "attempted": r["attempted"], "failed": r["failed"],
                      "metrics": m}))


if __name__ == "__main__":
    main()
