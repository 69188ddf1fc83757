#!/usr/bin/env python3
"""The benchmark's own test.  Run from the repository root:

    python3 perfbench/test_bench.py

It reruns a short walk-2mut at a second seed (the walk and its traced
replay must both still give the pinned answer: SAFE, every step taken, no
dead end), and checks that the benchmark refuses to run, without printing
a result, in a directory that holds only the benchmark.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench-out")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class WalkSecondSeed(unittest.TestCase):
    def check(self, seed, trace):
        proc = bench("--workload", "walk-2mut", "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = result(proc)
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        provenance = json.loads(proc.stdout.strip().splitlines()[0])["provenance"]
        self.assertEqual(provenance["seed"], seed)
        return res["metrics"]

    def test_end_to_end_at_second_seed(self):
        metrics = self.check(seed=2, trace=0)
        self.assertGreater(metrics["wall_s"]["value"], 0)

    def test_traced_replay_at_second_seed(self):
        metrics = self.check(seed=2, trace=1)
        self.assertEqual(metrics["cimp.steps_calls"]["value"], 200_000)


class RefusesWithoutSource(unittest.TestCase):
    def test_benchmark_only_directory(self):
        bare = os.path.join(OUT, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = bench("--workload", "walk-2mut", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
