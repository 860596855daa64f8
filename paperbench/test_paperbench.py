#!/usr/bin/env python3
"""Self-test of the paper-suite benchmark at the reduced (default) sizes.

Runs every workload through run.py in both modes, so every metric path
executes, and shows that a wrong reference digest is counted as failed
runs. Takes under a minute once the benchmark is built. Run from the
root of a checkout:

    python3 paperbench/test_paperbench.py
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench(workload, trace, *extra):
    p = subprocess.run(
        [sys.executable, "paperbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", "default"] + list(extra),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600)
    if p.returncode != 0:
        raise AssertionError("run.py exited %d:\n%s" % (p.returncode,
                                                        p.stderr[-2000:]))
    return json.loads(p.stdout.strip().splitlines()[-1])


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {e["name"]: e["unit"] for e in json.load(f)[kind]}


class PaperBench(unittest.TestCase):
    def check_result(self, r, kind):
        self.assertEqual(set(r), {"correct", "attempted", "failed",
                                  "metrics"})
        self.assertTrue(r["correct"])
        self.assertGreaterEqual(r["attempted"], 3)
        self.assertEqual(r["failed"], 0)
        units = declared(kind)
        self.assertEqual(set(r["metrics"]), set(units))
        for name, m in r["metrics"].items():
            self.assertEqual(m["unit"], units[name], name)
            self.assertIsInstance(m["value"], (int, float), name)

    def test_end_to_end_metrics(self):
        for w in ("mp3d", "lu", "radix"):
            with self.subTest(workload=w):
                r = bench(w, 0)
                self.check_result(r, "end_to_end")
                for name, m in r["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_per_layer_metrics(self):
        for w in ("mp3d", "lu", "radix"):
            with self.subTest(workload=w):
                r = bench(w, 1)
                self.check_result(r, "per_layer")
                m = {k: v["value"] for k, v in r["metrics"].items()}
                self.assertEqual(m["failed_frac"], 0)
                self.assertGreater(m["ppisa.host_s"], 0)
                self.assertGreater(m["sim.flash_cycles"],
                                   m["sim.ideal_cycles"])
                self.assertFalse(any(k.startswith("ideal.ppisa")
                                     for k in m))

    def test_counts_repeat_exactly(self):
        a = bench("radix", 1)["metrics"]
        b = bench("radix", 1)["metrics"]
        counts = [k for k, v in declared("per_layer").items()
                  if v in ("count", "cycles")]
        self.assertTrue(counts)
        for k in counts:
            self.assertEqual(a[k]["value"], b[k]["value"], k)

    def test_wrong_reference_digest_fails_runs(self):
        r = bench("radix", 0, "--ref-digest", "0x1")
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"], 0)
        self.assertLessEqual(r["failed"], r["attempted"])


if __name__ == "__main__":
    unittest.main()
