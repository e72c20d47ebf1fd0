"""Workloads: seeded task lists drawn from fixed input pools, and the
correctness gate every task output must pass.

A task is a plain dict so that the parent and the worker build the same list
from the same ``(workload, seed, scale)``.  The seed only picks from the pools
below and fixes task order.  The pools of the costly tasks hold inputs of one
shape (dimension, order, number of residues, period), so the work per pass
does not depend on the seed; the small CLI calls vary in shape because process
start-up dominates them.  Scale ``smoke`` keeps every task and every check but
shrinks the orders so that all workloads run in seconds.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

WORKLOADS = ("deep-series", "wide-system", "identity-chain", "cli-mix")

# Which rows of the ROADMAP baseline table each workload reproduces.
BASELINE_ROWS = {
    "deep-series": ["restricted_path_gf dim 1, {0} mod 2, order 400", "dim 2, {0} mod 2, order 400"],
    "wide-system": ["dim 1, staircase k=16 ({0..15} mod 32), order 200"],
    "identity-chain": ["hn_determinant_check(8, 100): in part, k=1..6 at order 100"],
    "cli-mix": ["oracle dim 2 K=40 / dim 3 K=12", "lattice-gf gf order 6, whole process"],
}

SCALES = {
    "full": {
        "deep_orders": (400, 400, 300),
        "wide_stair": (16, 200),
        "wide_drawn": (2, 150),
        "chain": ((1, range(1, 7), 100), (2, range(1, 4), 60)),
        "cli_small_orders": (6, 8, 10),
        "cli_gf_order": 150,
        "cli_compare_orders": (41, 13),
        "cli_oracle_order": 13,
        "cli_verify_orders": (20, 12),
        "prefix": {1: 30, 2: 12, 3: 6},
        "cramer_margin": 8,
    },
    "smoke": {
        "deep_orders": (24, 24, 16),
        "wide_stair": (3, 24),
        "wide_drawn": (2, 16),
        "chain": ((1, range(1, 3), 12), (2, range(1, 3), 10)),
        "cli_small_orders": (4, 6),
        "cli_gf_order": 12,
        "cli_compare_orders": (9, 5),
        "cli_oracle_order": 5,
        "cli_verify_orders": (8, 6),
        "prefix": {1: 8, 2: 5, 3: 3},
        "cramer_margin": 2,
    },
}

# Sets are (residues, period).
DEEP_DIM3_POOL = [((0, 1), 3), ((0, 2), 3)]
CLI_GF_POOL = [((0, 1), 3), ((0, 2), 3)]
CLI_SMALL_POOL = [((0,), 2), ((0, 1), 3), ((0, 2), 5), ((0, 1, 3), 4)]
CLI_COMPARE_POOL = [((0,), 2), ((0, 1), 3), ((0, 2), 5)]
CLI_INVALID = [
    ["gf", "--dim", "1", "--residues", "1,2", "--period", "3", "--order", "5"],
    ["gf", "--dim", "2", "--residues", "0,x", "--period", "3", "--order", "5"],
    ["oracle", "--dim", "2", "--order", "0", "--kind", "loops"],
    ["gf", "--dim", "1", "--residues", "0", "--period", "0", "--order", "5"],
]
CLI_OVER_BUDGET = [
    ["oracle", "--dim", "3", "--order", "40", "--kind", "loops"],
    ["oracle", "--dim", "2", "--order", "300", "--kind", "escaping"],
    ["oracle", "--dim", "3", "--residues", "0", "--period", "2", "--order", "30"],
]


def wide_pool(scale: str) -> list:
    """Fixed pool of 12-residue sets mod 28 (3 residues mod 7 at smoke scale)."""
    size, period = (12, 28) if scale == "full" else (3, 7)
    rng = random.Random(28)
    return [
        ((0, *sorted(rng.sample(range(1, period), size - 1))), period)
        for _ in range(8)
    ]


def staircase(k: int) -> tuple:
    return (tuple(range(k)), 2 * k)


# -- task lists -----------------------------------------------------------------


def _solve(dim, residues, period, start, order, kind="solve"):
    return {"kind": kind, "dim": dim, "residues": list(residues),
            "period": period, "start": start, "order": order}


def _cli(argv, expect, **extra):
    return {"kind": "cli", "argv": [str(a) for a in argv], "expect": expect, **extra}


def build_tasks(workload: str, seed: int, scale: str) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    size = SCALES[scale]
    if workload == "deep-series":
        n1, n2, n3 = size["deep_orders"]
        residues, period = rng.choice(DEEP_DIM3_POOL)
        return [
            _solve(1, (0,), 2, 0, n1),
            _solve(2, (0,), 2, 0, n2),
            _solve(3, residues, period, rng.choice(residues), n3),
        ]
    if workload == "wide-system":
        k, order = size["wide_stair"]
        dim, drawn_order = size["wide_drawn"]
        residues, period = rng.choice(wide_pool(scale))
        start = rng.choice(residues)
        stair = staircase(k)
        return [
            _solve(1, *stair, 0, order),
            _solve(dim, residues, period, start, drawn_order),
            _solve(1, *stair, None, order, kind="requery"),
            _solve(dim, residues, period, None, drawn_order, kind="requery"),
            _solve(1, *stair, 0, order // 2),
            _solve(dim, residues, period, start, drawn_order // 2),
        ]
    if workload == "identity-chain":
        tasks = []
        for dim, ks, order in size["chain"]:
            for k in ks:
                checks = [("row_relation_check", [dim, 2 * k, order]),
                          ("column_substitution_check", [dim, k, order]),
                          ("cramer_ratio_check", [dim, k, order])]
                if dim == 1:
                    checks.append(("hn_determinant_check", [k, order]))
                tasks += [{"kind": "check", "name": name, "args": args} for name, args in checks]
        rng.shuffle(tasks)
        return tasks
    if workload == "cli-mix":
        return _cli_tasks(rng, size)
    raise ValueError(f"unknown workload {workload!r}")


def _gf_argv(dim, residues, period, start, order, fmt="json"):
    return ["gf", "--dim", dim, "--residues", ",".join(map(str, residues)),
            "--period", period, "--order", order, "--start-residue", start,
            "--format", fmt]


def _cli_tasks(rng, size) -> list[dict]:
    tasks = []
    full_period = rng.choice((1, 2, 3))
    small = [(tuple(range(full_period)), full_period)] + [rng.choice(CLI_SMALL_POOL) for _ in range(3)]
    for residues, period in small:
        dim, order, start = rng.choice((1, 2, 3)), rng.choice(size["cli_small_orders"]), rng.choice(residues)
        key = (dim, residues, period, start, order)
        tasks.append(_cli(_gf_argv(*key), "gf-json", series=key))
    residues, period = rng.choice(CLI_GF_POOL)
    key = (2, residues, period, rng.choice(residues), size["cli_gf_order"])
    tasks.append(_cli(_gf_argv(*key), "gf-json", series=key))
    tasks.append(_cli(_gf_argv(*key, fmt="csv"), "gf-csv", series=key))
    for dim, order in zip((2, 3), size["cli_compare_orders"]):
        residues, period = rng.choice(CLI_COMPARE_POOL)
        argv = ["compare", "--dim", dim, "--residues", ",".join(map(str, residues)),
                "--period", period, "--order", order]
        tasks.append(_cli(argv, "compare", series=(dim, residues, period, 0, order)))
    order = size["cli_oracle_order"]
    for kind in ("loops", "escaping"):
        tasks.append(_cli(["oracle", "--dim", 3, "--order", order, "--kind", kind],
                          f"oracle-{kind}", dim=3, order=order))
    hn_order, circ_order = size["cli_verify_orders"]
    tasks.append(_cli(["verify-hn", "--k-max", 2, "--order", hn_order], "verified"))
    tasks.append(_cli(["verify-circulant", "--dim", 2, "--k-max", 2, "--order", circ_order], "verified"))
    tasks.append(_cli(rng.choice(CLI_INVALID), "exit-2"))
    tasks.append(_cli(rng.choice(CLI_OVER_BUDGET), "exit-3"))
    rng.shuffle(tasks)
    return tasks


# -- reference digests ------------------------------------------------------------


def digest(coeffs) -> str:
    """Order- and type-stable fingerprint: ``str`` of an integral Fraction and
    of the equal int coincide."""
    return hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest()


def series_key(dim, residues, period, start, order) -> str:
    return f"{dim}|{','.join(map(str, residues))}|{period}|{start}|{order}"


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


# -- correctness gate ---------------------------------------------------------------


class Gate:
    """Checks task outputs; every method returns a list of problems."""

    def __init__(self, lattice_gf, scale: str, tracer=None):
        self.lg = lattice_gf
        self.tracer = tracer
        self.size = SCALES[scale]
        self.reference = load_reference()
        self.cramer_checked: set = set()

    def check(self, task: dict, output) -> list[str]:
        kind = task["kind"]
        if kind in ("solve", "requery"):
            return self._check_solved(task, output)
        if kind == "check":
            problems = [] if output is True else [f"{task['name']}{tuple(task['args'])} returned {output!r}"]
            if task["name"] == "cramer_ratio_check":
                dim, k, order = task["args"]
                residues, period = staircase(k)
                coeffs = self.lg.restricted_path_gf(dim, self.lg.PeriodicSet(residues, period), 0, order).coeffs
                problems += self._series_problems(dim, residues, period, 0, order, coeffs)
                problems += self._cli_round_trip(dim, residues, period, 0, order, coeffs)
            return problems
        return self._check_cli(task, output)

    def _check_solved(self, task: dict, output: dict) -> list[str]:
        dim, residues, period, order = task["dim"], tuple(task["residues"]), task["period"], task["order"]
        problems = []
        for start, coeffs in output.items():
            problems += self._series_problems(dim, residues, period, start, order, coeffs)
        if task["kind"] == "solve":
            start = task["start"]
            problems += self._cli_round_trip(dim, residues, period, start, order, output[start])
            k = len(residues)
            if (residues, period) == staircase(k) and (dim, k) not in self.cramer_checked:
                # Past order 2k each 2k-multisection has more than its
                # constant term, so the identity is no longer trivial.
                self.cramer_checked.add((dim, k))
                if not self.lg.cramer_ratio_check(dim, k, min(order, 2 * k + self.size["cramer_margin"])):
                    problems.append(f"cramer ratio fails for dim {dim} staircase k={k}")
        return problems

    def _series_problems(self, dim, residues, period, start, order, coeffs) -> list[str]:
        name = series_key(dim, residues, period, start, order)
        problems = []
        if self.reference["series"].get(name) != digest(coeffs):
            problems.append(f"{name}: coefficients differ from the reference digest")
        # Walks started at time 2*start see the set shifted by -start.
        shifted = self.lg.PeriodicSet(tuple((r - start) % period for r in residues), period)
        half_len = min(self.size["prefix"][dim], order - 1)
        counts = self.lg.oracle.count_restricted(dim, shifted, half_len).counts
        if tuple(coeffs[: half_len + 1]) != tuple(counts):
            problems.append(f"{name}: prefix disagrees with count_restricted")
        if len(residues) == period and any(c != 4 ** (dim * j) for j, c in enumerate(coeffs)):
            problems.append(f"{name}: full set is not 4**(d*j)")
        if dim == 1 and start == 0 and (residues, period) == staircase(len(residues)):
            step = period
            for j, c in enumerate(coeffs[::step]):
                if c != comb(2 * j, j) * 4 ** ((step - 1) * j):
                    problems.append(f"{name}: multisection index {j * step} breaks the closed form")
                    break
        return problems

    def _cli_round_trip(self, dim, residues, period, start, order, coeffs) -> list[str]:
        code, out, _ = run_cli_in_process(self.lg.cli, _gf_argv(dim, residues, period, start, order), self.tracer)
        if code != 0:
            return [f"cli gf exited {code} for {series_key(dim, residues, period, start, order)}"]
        got = [_fraction_text(item) for item in json.loads(out)["coefficients"]]
        if got != [str(c) for c in coeffs]:
            return [f"cli gf output differs from the library for {series_key(dim, residues, period, start, order)}"]
        return []

    def _check_cli(self, task: dict, output) -> list[str]:
        code, out, err = output
        expect = task["expect"]
        argv = " ".join(task["argv"])
        want_code = {"exit-2": 2, "exit-3": 3}.get(expect, 0)
        if code != want_code:
            return [f"`{argv}` exited {code}, expected {want_code}: {err.strip()[-200:]}"]
        if want_code:
            return [] if out == "" else [f"`{argv}` wrote output despite failing"]
        if expect == "verified":
            lines = out.strip().splitlines()
            ok = lines and lines[-1].endswith("all checks passed") and not any("FAIL" in line for line in lines)
            return [] if ok else [f"`{argv}` did not pass every check"]
        if expect in ("gf-json", "gf-csv", "compare"):
            dim, residues, period, start, order = task["series"]
            if expect == "gf-json":
                document = json.loads(out)
                meta = (document["dim"], tuple(document["residues"]), document["period"],
                        document["start_residue"], document["order"])
                if meta != (dim, tuple(residues), period, start, order):
                    return [f"`{argv}` reports the wrong inputs {meta}"]
                coeffs = [_fraction_text(item) for item in document["coefficients"]]
            elif expect == "gf-csv":
                rows = list(csv.reader(io.StringIO(out)))
                if rows[0] != ["k", "length", "numerator", "denominator"]:
                    return [f"`{argv}` has an unexpected CSV header"]
                coeffs = [n if d == "1" else f"{n}/{d}" for _, _, n, d in rows[1:]]
            else:
                document = json.loads(out)
                if document["pass"] is not True or not all(row["equal"] for row in document["rows"]):
                    return [f"`{argv}` reports a mismatch"]
                coeffs = [_fraction_text(row["gf"]) for row in document["rows"]]
                if [row["oracle"] for row in document["rows"]] != coeffs:
                    return [f"`{argv}` oracle column differs from the gf column"]
            name = series_key(dim, residues, period, start, order)
            if self.reference["series"].get(name) != digest(coeffs):
                return [f"`{argv}` coefficients differ from the reference digest"]
            if len(residues) == period and coeffs != [str(4 ** (dim * j)) for j in range(order)]:
                return [f"`{argv}` full set is not 4**(d*j)"]
            return []
        counts = [int(_fraction_text(item)) for item in json.loads(out)["coefficients"]]
        dim, order = task["dim"], task["order"]
        if expect == "oracle-loops":
            want = [comb(2 * k, k) ** dim for k in range(order)]
            return [] if counts == want else [f"`{argv}` loop counts are not comb(2k, k)**d"]
        name = f"escaping|{dim}|{order}"
        return [] if self.reference["escaping"].get(name) == digest(counts) else [
            f"`{argv}` escaping counts differ from the reference digest"]


def _fraction_text(item: dict) -> str:
    return item["n"] if item["d"] == "1" else f"{item['n']}/{item['d']}"


def run_cli_in_process(cli_module, argv, tracer=None):
    """Run ``cli.main`` with stdout and stderr captured; returns (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_module.main([str(a) for a in argv])
    if tracer is not None:
        tracer.output_bytes += len(out.getvalue().encode())
    return code, out.getvalue(), err.getvalue()
