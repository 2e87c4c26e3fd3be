#!/usr/bin/env python3
"""Validate the nightly cross-backend bench grid for completeness and sanity.

The soak-nightly backend-grid job runs `rubic_bench --suite
micro_backend_compare --filter backend_<name>_` once per STM engine and
uploads one rubic-bench-results/v1 artifact per backend. A missing engine, a
bench that silently benchmarked zero work, or a filter that stopped matching
after a rename would all still produce a green bench step — this checker is
what turns those holes into a red nightly. It asserts that, across the given
result files, every (backend, metric) cell of the grid is present exactly
once, carries the full rep count, and holds a sane value (finite, positive,
below an absurdity ceiling).

With --synchro the checker validates the Synchrobench evaluation grid
instead: tools/rubic_synchro sweeps structure x backend (x update-ratio x
key-range x threads x controller) and emits cells named
synchro_<structure>_<backend>_u<u>_r<r>_t<t>_<controller>; the nightly
synchro-grid job must produce at least one sane cell (finite, positive
tasks/s median, full rep count) for every (structure, backend) pair.

Usage:
    check_backend_grid.py RESULTS.json [RESULTS.json ...]
        [--backends orec,norec,tl2]
        [--metrics read1_ns,write1_ns,rmw8_ns,rbtree_lookup_ns]
        [--max-ns 1e7]
    check_backend_grid.py --synchro RESULTS.json [RESULTS.json ...]
        [--structures btree,hashmap,list,rbtree,skiplist]
        [--backends orec_swiss,norec,tl2]

Exit code 0 when the grid is complete and sane; 1 with a per-cell diagnostic
on stderr otherwise.
"""

import argparse
import json
import math
import sys

SCHEMA = "rubic-bench-results/v1"

# Bench-name tokens, kept in sync with stm::known_backends()
# (src/stm/backend/backend.hpp) and the micro_backend_compare suite
# (tools/rubic_bench.cpp). The bench names abbreviate the orec_swiss engine
# to "orec" (backend_orec_rmw8_ns etc.); the other tokens match the
# runtime's backend names exactly.
DEFAULT_BACKENDS = ["orec", "norec", "tl2"]
DEFAULT_METRICS = ["read1_ns", "write1_ns", "rmw8_ns", "rbtree_lookup_ns"]

# Synchro-grid tokens, kept in sync with tds::known_structures()
# (src/tds/registry.hpp) and the full backend names the rubic_synchro cell
# namer uses (no orec abbreviation there).
DEFAULT_STRUCTURES = ["btree", "hashmap", "list", "rbtree", "skiplist"]
DEFAULT_SYNCHRO_BACKENDS = ["orec_swiss", "norec", "tl2"]


def fail(message):
    print(f"check_backend_grid: {message}", file=sys.stderr)
    return 1


def load_results(paths, prefix):
    """Collect (name -> (median, reps, path)) for cells with the prefix.

    Returns (cells, errors); schema and rep-count violations are diagnosed
    here so both grid modes share them.
    """
    cells = {}
    errors = 0
    for path in paths:
        try:
            with open(path, encoding="utf-8") as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            return None, fail(f"cannot read {path}: {exc}")
        if data.get("schema") != SCHEMA:
            return None, fail(
                f"{path}: schema {data.get('schema')!r} != {SCHEMA!r}")
        reps = data.get("reps")
        if not isinstance(reps, int) or reps < 1:
            return None, fail(f"{path}: bad reps {reps!r}")
        for entry in data.get("results", []):
            name = entry.get("name", "")
            if not name.startswith(prefix):
                continue
            if name in cells:
                errors += fail(
                    f"{path}: duplicate cell {name} "
                    f"(already seen in {cells[name][2]})")
                continue
            values = entry.get("values", [])
            if len(values) != reps:
                errors += fail(
                    f"{path}: {name} has {len(values)} values, "
                    f"expected reps={reps}")
            cells[name] = (entry.get("median"), reps, path)
    return cells, errors


def sane_median(name, median, path, ceiling=None):
    """Returns an error count for a non-finite/non-positive/absurd median."""
    if not isinstance(median, (int, float)) or not math.isfinite(median):
        return fail(f"{path}: {name} median {median!r} not finite")
    if median <= 0.0:
        return fail(
            f"{path}: {name} median {median} <= 0 (benchmarked no work?)")
    if ceiling is not None and median > ceiling:
        return fail(f"{path}: {name} median {median} exceeds {ceiling}")
    return 0


def check_synchro(args):
    structures = [s for s in args.structures.split(",") if s]
    backends = [b for b in args.backends.split(",") if b]
    cells, errors = load_results(args.results, "synchro_")
    if cells is None:
        return 1

    # Every (structure, backend) pair needs >= 1 cell, and every cell must
    # belong to a known pair — an unknown token means the registry and this
    # checker drifted apart.
    prefixes = {(s, b): f"synchro_{s}_{b}_" for s in structures
                for b in backends}
    matched = set()
    for name, (median, _, path) in sorted(cells.items()):
        owner = None
        for pair, prefix in prefixes.items():
            if name.startswith(prefix):
                owner = pair
                break
        if owner is None:
            errors += fail(
                f"{path}: unexpected cell {name} "
                "(structure/backend list out of date?)")
            continue
        matched.add(owner)
        errors += sane_median(name, median, path)
    for structure in structures:
        for backend in backends:
            if (structure, backend) not in matched:
                errors += fail(
                    f"missing synchro grid pair: no cell matches "
                    f"synchro_{structure}_{backend}_*")

    if errors:
        return 1
    print(
        f"check_backend_grid: OK — synchro {len(structures)}x{len(backends)} "
        f"grid covered by {len(cells)} cell(s) across "
        f"{len(args.results)} file(s)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="+", help="bench result JSON files")
    parser.add_argument("--backends", default=None)
    parser.add_argument("--metrics", default=",".join(DEFAULT_METRICS))
    parser.add_argument(
        "--synchro",
        action="store_true",
        help="validate rubic_synchro structure x backend cells instead of "
        "the micro_backend_compare grid",
    )
    parser.add_argument(
        "--structures", default=",".join(DEFAULT_STRUCTURES))
    parser.add_argument(
        "--max-ns",
        type=float,
        default=1e7,
        help="absurdity ceiling for any ns_per_op median (default 1e7)",
    )
    args = parser.parse_args()
    if args.synchro:
        if args.backends is None:
            args.backends = ",".join(DEFAULT_SYNCHRO_BACKENDS)
        return check_synchro(args)
    if args.backends is None:
        args.backends = ",".join(DEFAULT_BACKENDS)
    backends = [b for b in args.backends.split(",") if b]
    metrics = [m for m in args.metrics.split(",") if m]

    # cell name -> (median, reps, source file)
    cells, errors = load_results(args.results, "backend_")
    if cells is None:
        return 1

    for backend in backends:
        for metric in metrics:
            name = f"backend_{backend}_{metric}"
            if name not in cells:
                errors += fail(f"missing grid cell {name}")
                continue
            median, _, path = cells[name]
            errors += sane_median(name, median, path, ceiling=args.max_ns)

    expected = {f"backend_{b}_{m}" for b in backends for m in metrics}
    for name, (_, _, path) in sorted(cells.items()):
        if name not in expected:
            errors += fail(
                f"{path}: unexpected cell {name} "
                "(backend list out of date?)")

    if errors:
        return 1
    print(
        f"check_backend_grid: OK — {len(backends)}x{len(metrics)} grid "
        f"complete across {len(args.results)} file(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
