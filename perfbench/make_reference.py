"""Regenerate ``reference.json``: digests of every series a workload can draw.

    PYTHONPATH=src python3 perfbench/make_reference.py

The committed file was made from the package as it stood when the benchmark
was defined; every later change must keep every coefficient bit-identical, so
regenerating it is only right when the pools or sizes in ``workloads.py``
change.  The script then draws the task lists of many seeds and fails if any
of them needs a digest the file lacks.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import lattice_gf  # noqa: E402
import workloads as w  # noqa: E402


def reference_sets(scale: str):
    """Every (dim, residues, period, order) whose solution a task can need."""
    size = w.SCALES[scale]
    n1, n2, n3 = size["deep_orders"]
    yield 1, (0,), 2, n1
    yield 2, (0,), 2, n2
    for residues, period in w.DEEP_DIM3_POOL:
        yield 3, residues, period, n3
    k, order = size["wide_stair"]
    dim, drawn_order = size["wide_drawn"]
    for o in (order, order // 2):
        yield (1, *w.staircase(k), o)
    for residues, period in w.wide_pool(scale):
        for o in (drawn_order, drawn_order // 2):
            yield dim, residues, period, o
    for dim, ks, order in size["chain"]:
        for k in ks:
            yield (dim, *w.staircase(k), order)
    small = [(tuple(range(p)), p) for p in (1, 2, 3)] + w.CLI_SMALL_POOL
    for dim in (1, 2, 3):
        for residues, period in small:
            for order in size["cli_small_orders"]:
                yield dim, residues, period, order
    for residues, period in w.CLI_GF_POOL:
        yield 2, residues, period, size["cli_gf_order"]
    for dim, order in zip((2, 3), size["cli_compare_orders"]):
        for residues, period in w.CLI_COMPARE_POOL:
            yield dim, residues, period, order


def needed_keys(tasks):
    for task in tasks:
        if task["kind"] == "cli" and "series" in task:
            yield "series", w.series_key(*task["series"])
        elif task["kind"] == "cli" and task["expect"] == "oracle-escaping":
            yield "escaping", f"escaping|{task['dim']}|{task['order']}"
        elif task["kind"] in ("solve", "requery"):
            starts = task["residues"] if task["kind"] == "requery" else [task["start"]]
            for start in starts:
                yield "series", w.series_key(task["dim"], task["residues"], task["period"], start, task["order"])
        elif task["kind"] == "check" and task["name"] == "cramer_ratio_check":
            dim, k, order = task["args"]
            yield "series", w.series_key(dim, *w.staircase(k), 0, order)


def main() -> None:
    reference = {"series": {}, "escaping": {}}
    for scale in w.SCALES:
        for dim, residues, period, order in sorted(set(reference_sets(scale))):
            solution = lattice_gf.solve_restricted(dim, lattice_gf.PeriodicSet(residues, period), order)
            for start, series in solution.series.items():
                key = w.series_key(dim, residues, period, start, order)
                reference["series"][key] = w.digest(series.coeffs)
        order = w.SCALES[scale]["cli_oracle_order"]
        counts = lattice_gf.count_escaping(3, order - 1).counts
        reference["escaping"][f"escaping|3|{order}"] = w.digest(counts)
    missing = {
        (table, key)
        for workload in w.WORKLOADS
        for scale in w.SCALES
        for seed in range(300)
        for table, key in needed_keys(w.build_tasks(workload, seed, scale))
        if key not in reference[table]
    }
    if missing:
        raise SystemExit(f"pools and reference_sets disagree: {sorted(missing)[:5]}")
    w.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference['series'])} series digests to {w.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
