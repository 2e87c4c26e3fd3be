#!/usr/bin/env python3
"""Tests of the benchmark's own accounting.

    python3 perfbench/test_bench.py

Each test drives perfbench/run.py on a short window (the first run builds
the driver).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def run(*args, env=None, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines()


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class FailureAccounting(unittest.TestCase):
    def test_tampered_kv_map_fails_every_operation(self):
        code, lines = run("--workload", "kv-open", "--seed", "3",
                          "--seconds", "1", "--trace", "0", "--tamper")
        self.assertNotEqual(code, 0)
        meta, result = json.loads(lines[-2]), json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(meta["failed_share"], 1.0)
        self.assertTrue(any("zero-sum" in e for e in meta["errors"]),
                        meta["errors"])
        for name in result["metrics"]:
            self.assertRegex(name, NAME)


class MetricNames(unittest.TestCase):
    def test_each_mode_prints_exactly_the_declared_metrics(self):
        declared = spec()
        env = dict(os.environ, RUBIC_STM_BACKEND="orec_swiss")
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run("--workload", "synchro-contended", "--seed",
                              "1", "--seconds", "1", "--trace", str(trace),
                              env=env)
            self.assertEqual(code, 0, lines)
            meta, result = json.loads(lines[-2]), json.loads(lines[-1])
            self.assertEqual(meta["engine"], "tl2")  # the env is ignored
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(list(result["metrics"]),
                             [m["name"] for m in declared[key]])
            for m in declared[key]:
                self.assertRegex(m["name"], NAME)
                self.assertEqual(result["metrics"][m["name"]]["unit"],
                                 m["unit"])


class TraceAccounting(unittest.TestCase):
    def test_children_plus_self_time_equal_each_task_span(self):
        code, lines = run("--workload", "synchro-contended", "--seed", "2",
                          "--seconds", "1", "--trace", "1")
        self.assertEqual(code, 0, lines)
        meta, result = json.loads(lines[-2]), json.loads(lines[-1])
        self.assertIn("bench.trace_overhead_pct", result["metrics"])
        children, tasks = {}, []
        with open(os.path.join(ROOT, meta["spans"])) as f:
            for line in f:
                span = json.loads(line)
                if span["name"] == "task":
                    tasks.append(span)
                elif span["parent"] == "task":
                    children.setdefault(span["id"], []).append(span)
        self.assertGreater(len(tasks), 100)
        names = set()
        for task in tasks:
            kids = sorted(children.get(task["id"], []),
                          key=lambda s: s["start_ns"])
            cursor, covered = task["start_ns"], 0
            for kid in kids:
                self.assertGreaterEqual(kid["start_ns"], cursor)
                self.assertLessEqual(kid["end_ns"], task["end_ns"])
                cursor = kid["end_ns"]
                covered += kid["end_ns"] - kid["start_ns"]
                names.add(kid["name"])
            duration = task["end_ns"] - task["start_ns"]
            self_time = duration - covered
            self.assertGreaterEqual(self_time, 0)
            self.assertEqual(covered + self_time, duration)
        self.assertTrue({"stm.commit", "tds.lookup"} <= names, names)


class Packaging(unittest.TestCase):
    def test_fails_without_a_result_when_the_library_is_missing(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        code, lines = run("--workload", "kv-open", "--seed", "1",
                          "--seconds", "1", "--trace", "0", env=env, cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
