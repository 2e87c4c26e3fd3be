#!/usr/bin/env python3
"""Validate rubic telemetry artifacts.

Checks a JSON telemetry document against the rubic-telemetry/v1 schema and
(optionally) a Prometheus text exposition file against the exposition
grammar. Accepts either a raw snapshot (rubic_sim --metrics-out, the
Scraper's per-line output) or a rubic_colocate report whose "telemetry" key
embeds per-process and merged metric arrays — the format is auto-detected.

Also validates rubic-contention/v1 documents (the contention profiler's
--contention-out files and the live /hotspots endpoint body) — pass one as
FILE.json (auto-detected by its schema key) or via --contention. A live
/metrics scrape is the same exposition text a .prom file holds, so CI curls
it to a file and passes it through --prom.

Usage:
    check_telemetry.py FILE.json [--prom FILE.prom] [--contention FILE.json]
    check_telemetry.py --prom live_metrics.txt --contention live_hotspots.json

Exit code 0 when every check passes; 1 with a diagnostic on stderr
otherwise. CI runs this after the telemetry smoke run and against the live
endpoint bodies during the chaos soak (see .github/workflows/ci.yml and
tests/CMakeLists.txt).
"""

import argparse
import json
import re
import sys

SCHEMA = "rubic-telemetry/v1"
CONTENTION_SCHEMA = "rubic-contention/v1"

CONTENTION_BACKENDS = {"orec_swiss", "norec", "tl2"}
CONTENTION_CAUSES = {
    "read_conflict",
    "write_conflict",
    "validation_failed",
    "doomed",
    "user_retry",
    "fault_injected",
}

METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

# One line of Prometheus text exposition: comment, blank, or sample. The
# sample value accepts integers, floats, and the NaN/+Inf/-Inf tokens.
PROM_LINE_RE = re.compile(
    r"^(?:"
    r"#\s(?:HELP|TYPE)\s[a-zA-Z_:][a-zA-Z0-9_:]*\s.+"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(?:\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r"\s(?:[-+]?[0-9.eE+-]+|NaN|\+Inf|-Inf)"
    r")$"
)


def fail(message):
    print(f"check_telemetry: {message}", file=sys.stderr)
    sys.exit(1)


def check_metric(metric, where):
    if not isinstance(metric, dict):
        fail(f"{where}: metric is not an object")
    name = metric.get("name")
    if not isinstance(name, str) or not name:
        fail(f"{where}: metric missing name")
    mtype = metric.get("type")
    if mtype not in ("counter", "gauge", "histogram"):
        fail(f"{where}: {name}: bad type {mtype!r}")
    labels = metric.get("labels", {})
    if not isinstance(labels, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in labels.items()
    ):
        fail(f"{where}: {name}: labels must map strings to strings")
    if mtype == "counter":
        if not isinstance(metric.get("value"), int) or metric["value"] < 0:
            fail(f"{where}: {name}: counter value must be a non-negative int")
    elif mtype == "gauge":
        value = metric.get("value")
        if value is not None and not isinstance(value, (int, float)):
            fail(f"{where}: {name}: gauge value must be a number or null")
    else:
        count = metric.get("count")
        total = metric.get("sum")
        buckets = metric.get("buckets")
        if not isinstance(count, int) or count < 0:
            fail(f"{where}: {name}: histogram count must be a non-negative int")
        if not isinstance(total, int) or total < 0:
            fail(f"{where}: {name}: histogram sum must be a non-negative int")
        if not isinstance(buckets, list) or not all(
            isinstance(b, int) and b >= 0 for b in buckets
        ):
            fail(f"{where}: {name}: histogram buckets must be counts")
        if sum(buckets) != count:
            fail(f"{where}: {name}: bucket total {sum(buckets)} != count {count}")


def check_metrics_array(metrics, where):
    if not isinstance(metrics, list):
        fail(f"{where}: metrics must be an array")
    for metric in metrics:
        check_metric(metric, where)
    keys = [(m["name"], tuple(sorted(m.get("labels", {}).items()))) for m in metrics]
    if keys != sorted(keys):
        fail(f"{where}: metrics are not sorted by (name, labels)")
    if len(keys) != len(set(keys)):
        fail(f"{where}: duplicate metric identity")


def check_snapshot(doc, where):
    if doc.get("schema") != SCHEMA:
        fail(f"{where}: schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    if not isinstance(doc.get("ts_ns"), int):
        fail(f"{where}: ts_ns must be an integer")
    check_metrics_array(doc.get("metrics"), where)


def check_colocate_report(doc, path):
    telemetry = doc["telemetry"]
    if telemetry.get("schema") != SCHEMA:
        fail(f"{path}: telemetry.schema is {telemetry.get('schema')!r}")
    processes = telemetry.get("processes")
    if not isinstance(processes, list):
        fail(f"{path}: telemetry.processes must be an array")
    for entry in processes:
        if not isinstance(entry.get("pid"), int):
            fail(f"{path}: telemetry.processes entry missing pid")
        check_metrics_array(entry.get("metrics"), f"{path}: pid {entry['pid']}")
    check_metrics_array(telemetry.get("merged"), f"{path}: merged")
    if processes and not telemetry["merged"]:
        fail(f"{path}: merged section is empty despite per-process metrics")


def check_contention(doc, path):
    if doc.get("schema") != CONTENTION_SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r}, want {CONTENTION_SCHEMA!r}")
    for key in ("ts_ns", "sampled", "dropped"):
        if not isinstance(doc.get(key), int) or doc[key] < 0:
            fail(f"{path}: {key} must be a non-negative integer")
    if not isinstance(doc.get("sample_every"), int) or doc["sample_every"] < 1:
        fail(f"{path}: sample_every must be a positive integer")
    rows = doc.get("rows")
    if not isinstance(rows, list):
        fail(f"{path}: rows must be an array")
    total = 0
    for i, row in enumerate(rows):
        where = f"{path}: rows[{i}]"
        if not isinstance(row, dict):
            fail(f"{where}: not an object")
        stripe = row.get("stripe")
        if stripe is not None and (not isinstance(stripe, int) or stripe < 0):
            fail(f"{where}: stripe must be a non-negative integer or null")
        if row.get("backend") not in CONTENTION_BACKENDS:
            fail(f"{where}: unknown backend {row.get('backend')!r}")
        if row.get("cause") not in CONTENTION_CAUSES:
            fail(f"{where}: unknown cause {row.get('cause')!r}")
        for key in ("victim", "owner"):
            if not isinstance(row.get(key), str):
                fail(f"{where}: {key} must be a string")
        count = row.get("count")
        if not isinstance(count, int) or count < 1:
            fail(f"{where}: count must be a positive integer")
        total += count
    counts = [row["count"] for row in rows]
    if counts != sorted(counts, reverse=True):
        fail(f"{path}: rows are not sorted by count descending")
    # A live scrape reads tables concurrently with writers, so the sampled
    # header and the row total may disagree slightly — but never by much,
    # and an exit-time dump has them equal.
    if doc["sampled"] and total > 2 * doc["sampled"]:
        fail(f"{path}: row total {total} wildly exceeds sampled {doc['sampled']}")
    for key, fields in (("hotspots", ("stripe", "total")), ("pairs", ("count",))):
        view = doc.get(key)
        if not isinstance(view, list):
            fail(f"{path}: {key} must be an array")
        for i, entry in enumerate(view):
            if not isinstance(entry, dict):
                fail(f"{path}: {key}[{i}]: not an object")
            for field in fields:
                if not isinstance(entry.get(field), int) or entry[field] < 0:
                    fail(f"{path}: {key}[{i}]: {field} must be a non-negative int")


def check_prometheus(path):
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        fail(f"{path}: empty exposition file")
    for number, line in enumerate(lines, start=1):
        if line and not PROM_LINE_RE.match(line):
            fail(f"{path}:{number}: bad exposition line: {line!r}")
    samples = [line for line in lines if line and not line.startswith("#")]
    if not samples:
        fail(f"{path}: no samples in exposition file")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "json_file",
        nargs="?",
        help="snapshot, colocate report, or contention JSON (auto-detected)",
    )
    parser.add_argument("--prom", help="Prometheus exposition file to check")
    parser.add_argument(
        "--contention",
        help="rubic-contention/v1 file (--contention-out or /hotspots body)",
    )
    args = parser.parse_args()
    if not args.json_file and not args.prom and not args.contention:
        parser.error("nothing to check: pass a JSON file, --prom or --contention")

    if args.json_file:
        with open(args.json_file, encoding="utf-8") as handle:
            doc = json.load(handle)
        if not isinstance(doc, dict):
            fail(f"{args.json_file}: top level is not an object")
        if doc.get("schema") == CONTENTION_SCHEMA:
            check_contention(doc, args.json_file)
        elif "telemetry" in doc:
            check_colocate_report(doc, args.json_file)
        else:
            check_snapshot(doc, args.json_file)
    if args.contention:
        with open(args.contention, encoding="utf-8") as handle:
            doc = json.load(handle)
        if not isinstance(doc, dict):
            fail(f"{args.contention}: top level is not an object")
        check_contention(doc, args.contention)
    if args.prom:
        check_prometheus(args.prom)
    print("check_telemetry: OK")


if __name__ == "__main__":
    main()
