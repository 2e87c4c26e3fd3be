#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the driver from source
(perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs only check that the build is current.
Every measurement runs in a fresh driver process.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. setup_s is the
median over SETUP_SAMPLES fresh processes (SETUP_SAMPLES - 1 that only set
up, plus the measured one). --trace 1 prints the per-layer metrics: one
untraced and one traced process run back to back, and
bench.trace_overhead_pct compares their CPU time per task. Spans of the
traced process go to the build directory.

The line before the last is a JSON record of the run (engine, git sha,
nproc, build type, failed_share, sample counts); the last line is the
result: {"correct", "attempted", "failed", "metrics"}. The exit code is 0
only when every output verified and no operation failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

SETUP_SAMPLES = 5
RUN_BUDGET_S = 170.0  # every driver process of one run, build excluded

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    # Each workload pins its engine; the environment must not change it.
    env.pop("RUBIC_STM_BACKEND", None)
    return env


def build(build_root):
    """Configures once, then builds the driver; returns its path."""
    tree = os.path.join(build_root, "perfbench")
    # Compiler temporaries stay inside the build directory too.
    env = dict(child_env(), TMPDIR=os.path.join(build_root, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", tree, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr, env=env)
    return os.path.join(tree, "bin", "perfbench")


def run_driver(binary, args, deadline):
    """Runs one driver process and returns its JSON record."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("run budget exhausted")
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              env=child_env(), timeout=remaining, text=True)
    except subprocess.TimeoutExpired:
        fail(f"driver timed out: {' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"driver printed nothing (exit {proc.returncode}): "
             f"{' '.join(args)}")
    record = json.loads(lines[-1])
    record["exit_code"] = proc.returncode
    return record


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """sha256 over the library and benchmark sources, for checkouts that
    are not git repositories."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper", action="store_true",
                        help="kv-open: break the map before verify()")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (known: {', '.join(names)})")

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_root)
    deadline = time.monotonic() + RUN_BUDGET_S
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds)]
    if args.tamper:
        base.append("--tamper")

    if args.trace == 0:
        wanted = spec["end_to_end"]
        setups = [run_driver(binary, base + ["--setup-only"], deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
        record = run_driver(binary, base, deadline)
        runs = setups + [record]
        setup_samples = [r["setup_s"] for r in runs]
        record["metrics"]["setup_s"] = {
            "value": statistics.median(setup_samples), "unit": "s"}
        extra = {"setup_samples_s": setup_samples}
    else:
        wanted = spec["per_layer"]
        spans = os.path.join(build_root, "spans",
                             f"{args.workload}-seed{args.seed}.jsonl")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        untraced = run_driver(binary, base, deadline)
        record = run_driver(binary, base + ["--trace", "--spans-out", spans],
                            deadline)
        runs = [untraced, record]
        base_rate = untraced["metrics"]["tasks_per_cpu_s"]["value"]
        traced_rate = record["metrics"]["tasks_per_cpu_s"]["value"]
        overhead = base_rate / traced_rate - 1.0 if traced_rate > 0 else 0.0
        record["metrics"]["bench.trace_overhead_pct"] = {
            "value": 100.0 * overhead, "unit": "%"}
        extra = {"spans": os.path.relpath(spans, ROOT)}

    correct = all(r["correct"] and r["exit_code"] in (0, 3) for r in runs)
    failed = record["failed"] if correct else record["attempted"]
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None:
            fail(f"driver did not report {m['name']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "engine": record["engine"], "policy": record["policy"],
        "workers": record["workers"], "nproc": record["nproc"],
        "build_type": record["build_type"], "git_sha": git_sha(),
        "source_digest": source_digest(),
        "failed_share": failed / max(1, record["attempted"]),
        "latency_samples": record["latency_samples"],
        "errors": [r["error"] for r in runs if r["error"]],
    }
    for key in ("steps", "slices_tasks_per_s"):
        if record.get(key):
            meta[key] = record[key]
    meta.update(extra)
    print(json.dumps(meta))
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
