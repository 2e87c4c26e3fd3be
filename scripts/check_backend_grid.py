#!/usr/bin/env python3
"""Validate the nightly Synchrobench evaluation grid for completeness.

tools/rubic_synchro sweeps structure x backend (x update-ratio x key-range x
threads x controller) and emits rubic-bench-results/v1 cells named
synchro_<structure>_<backend>_u<u>_r<r>_t<t>_<controller>. The nightly
synchro-grid job uploads one result file per backend; a missing engine, a
cell that silently benchmarked zero work, or a namer that drifted from the
registries would all still produce a green sweep step. This checker turns
those holes into a red nightly: across the given files, every
(structure, backend) pair needs at least one sane cell (finite, positive
tasks/s median, full rep count), every cell must belong to a known pair,
and no cell may appear twice.

Usage:
    check_backend_grid.py RESULTS.json [RESULTS.json ...]
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

# Grid tokens, kept in sync with tds::known_structures()
# (src/tds/registry.hpp) and the full backend names the rubic_synchro cell
# namer uses (stm::known_backends()).
DEFAULT_STRUCTURES = ["btree", "hashmap", "list", "rbtree", "skiplist"]
DEFAULT_BACKENDS = ["orec_swiss", "norec", "tl2"]


def fail(message):
    print(f"check_backend_grid: {message}", file=sys.stderr)
    return 1


def load_results(paths, prefix):
    """Collect (name -> (median, reps, path)) for cells with the prefix.

    Returns (cells, errors); schema and rep-count violations are diagnosed
    here.
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


def sane_median(name, median, path):
    """Returns an error count for a non-finite or non-positive median."""
    if not isinstance(median, (int, float)) or not math.isfinite(median):
        return fail(f"{path}: {name} median {median!r} not finite")
    if median <= 0.0:
        return fail(
            f"{path}: {name} median {median} <= 0 (benchmarked no work?)")
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
    parser.add_argument("results", nargs="+", help="synchro result JSON files")
    parser.add_argument("--backends", default=",".join(DEFAULT_BACKENDS))
    parser.add_argument(
        "--structures", default=",".join(DEFAULT_STRUCTURES))
    return check_synchro(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
