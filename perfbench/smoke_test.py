#!/usr/bin/env python3
"""Smoke test of the host-time benchmark.

    python3 perfbench/smoke_test.py

Runs every workload at tiny size, untraced and traced, and asserts that
each named metric is emitted with its unit and that no operation failed.
Also checks the shape of BENCHMARK.json, that the benchmark refuses to run
without the repository's sources, and the verdicts of compare.py on
synthetic result sets.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, record=None, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    if record:
        cmd += ["--record", record]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


class Spec(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        names = [w["name"] for w in SPEC["workloads"]]
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__", "target"))
            res = run(SPEC["workloads"][0]["name"], 0, cwd=tmp)
        self.assertNotEqual(res.returncode, 0)
        self.assertNotIn('"correct"', res.stdout)


class Workloads(unittest.TestCase):
    def check(self, workload, trace):
        with tempfile.TemporaryDirectory() as tmp:
            record_path = os.path.join(tmp, "rec.jsonl")
            res = run(workload, trace, record=record_path)
            self.assertEqual(res.returncode, 0, res.stderr)
            with open(record_path) as f:
                record = json.loads(f.read())
        result = json.loads(res.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], res.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        self.assertTrue(all(record["checks"].values()))
        for key in ("host_cores", "threads", "rustc", "reps", "throughput_rel_iqr"):
            self.assertIn(key, record["env"])
        self.assertTrue(record["simulated_unvalidated"])


for _w in SPEC["workloads"]:
    for _t in (0, 1):
        def _test(self, w=_w["name"], t=_t):
            self.check(w, t)
        setattr(Workloads, f"test_{_w['name'].replace('-', '_')}_trace{_t}", _test)


class Compare(unittest.TestCase):
    def verdicts(self, base, change):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, values in (("a", base), ("b", change)):
                path = os.path.join(tmp, name)
                with open(path, "w") as f:
                    for seed, v in enumerate(values):
                        metrics = {m["name"]: {"value": v, "unit": m["unit"]}
                                   for m in SPEC["end_to_end"]}
                        f.write(json.dumps({"workload": "w", "seed": seed, "trace": 0,
                                            "metrics": metrics}) + "\n")
                paths.append(path)
            res = subprocess.run([sys.executable, os.path.join(HERE, "compare.py"), *paths],
                                 capture_output=True, text=True, timeout=60)
        self.assertEqual(res.returncode, 0, res.stderr)
        rows = [l.split() for l in res.stdout.splitlines()[1:]]
        return {r[1]: r[-1] for r in rows}

    def test_verdicts(self):
        base = [100.0 + i % 3 for i in range(10)]
        v = self.verdicts(base, [x * 2 for x in base])
        self.assertEqual(v["ops_per_s"], "improved")
        self.assertEqual(v["op_us.p50"], "worse")
        v = self.verdicts(base, list(base))
        self.assertEqual(v["ops_per_s"], "unchanged")
        noisy = [100.0, 40.0, 160.0, 90.0, 130.0, 60.0, 150.0, 50.0, 110.0, 70.0]
        v = self.verdicts(noisy, list(reversed(noisy)))
        self.assertEqual(v["ops_per_s"], "unresolved")


if __name__ == "__main__":
    unittest.main()
