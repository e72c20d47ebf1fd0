"""Small independent oracles used to freeze expected values in the tests.

Everything here is computed by a different route than the library code it
checks: closed-form binomials, the binomial series for square roots, and a
step-by-step polygon walk for cyclic distances, which checks
``shift_distance``, the range-checked ``(target - start) % period`` that the
system tests index multisections with.  The matrix helpers
build identity matrices, matrix products and matrix-vector products entry by
entry, ``odd_length_count`` reads one value off an oracle table, and
``payload_to_series`` reads back the exact coefficients of a CLI document.
``unfolded_counts`` is the reference for the folded oracle: the same dynamic
program over every site of the unfolded grid.  ``reduction_check`` and
``period_two_closed_form`` test the solved series against the system they
solve, by multisection, and ``one_forbidden_closed_form`` solves a set with
one forbidden residue by hand.  ``sets_up_to_rotation`` lists the periodic
sets of small periods for grid tests.  ``load_benchmark_module`` imports a
file of ``perfbench/`` for the tests that pin what the benchmark reaches.
"""

import importlib.util
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path

from lattice_gf.loops import LoopModel
from lattice_gf.oracle import count_odd_length
from lattice_gf.periodic import PeriodicSet
from lattice_gf.series import TruncatedSeries
from lattice_gf.system import SeriesMatrix, build_system, solve_restricted


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def central_binomial(n: int) -> int:
    return comb(2 * n, n)


def sqrt_one_minus_4t(order: int) -> list[int]:
    """Coefficients of (1-4t)**(1/2) from the binomial series, computed over
    the rationals; every one of them is an integer."""
    coeffs = [1]
    term = Fraction(1)
    for k in range(1, order):
        # binom(1/2, k) / binom(1/2, k-1) = (3 - 2k) / (2k), times (-4)**1
        term *= Fraction(3 - 2 * k, 2 * k) * (-4)
        assert term.denominator == 1
        coeffs.append(term.numerator)
    return coeffs


def polygon_distance(start: int, target: int, period: int) -> int:
    """Count forward arcs on the oriented period-gon, one at a time."""
    steps = 0
    vertex = start
    while vertex != target:
        vertex = (vertex + 1) % period
        steps += 1
    return steps


def shift_distance(start: int, target: int, period: int) -> int:
    """Number of forward arcs from ``start`` to ``target`` on the oriented
    ``period``-gon whose vertices are the residue classes."""
    if period < 1:
        raise ValueError("period must be positive")
    if not 0 <= start < period:
        raise ValueError(f"start residue {start} outside [0, {period})")
    if not 0 <= target < period:
        raise ValueError(f"target residue {target} outside [0, {period})")
    return (target - start) % period


def identity_matrix(n: int, order: int) -> SeriesMatrix:
    one = TruncatedSeries.one(order)
    zero = TruncatedSeries([0] * order)
    return SeriesMatrix([[one if i == j else zero for j in range(n)] for i in range(n)])


def matmul(a: SeriesMatrix, b: SeriesMatrix) -> SeriesMatrix:
    """Matrix product over the series ring, by the schoolbook formula."""
    if a.n != b.n or a.order != b.order:
        raise ValueError("matrix sizes or orders do not match")
    rows = []
    for i in range(a.n):
        row = []
        for j in range(a.n):
            acc = TruncatedSeries([0] * a.order)
            for m in range(a.n):
                acc = acc + a.rows[i][m] * b.rows[m][j]
            row.append(acc)
        rows.append(row)
    return SeriesMatrix(rows)


def mul_vec(matrix: SeriesMatrix, vec) -> list[TruncatedSeries]:
    """Matrix times a vector of series, by the schoolbook formula."""
    if len(vec) != matrix.n:
        raise ValueError("vector length does not match the matrix size")
    out = []
    for row in matrix.rows:
        acc = TruncatedSeries([0] * matrix.order)
        for entry, x in zip(row, vec):
            acc = acc + entry * x
        out.append(acc)
    return out


def reduction_check(
    dim: int, restriction: PeriodicSet, anchor: int, slot: int, order: int
) -> bool:
    """Verify that one multisection of each solved series solves the same
    system with multisected right-hand side.

    Taking the ``(period, l_r)``-multisection of the equation for residue
    ``r`` with ``l_r = (shift_distance(r, anchor) + slot) mod period`` keeps
    the unknowns aligned, because each matrix entry is supported on a single
    residue class.  The anchor's own series contributes its
    ``(period, slot)``-multisection.
    """
    period = restriction.period
    anchor_reduced = anchor % period
    if anchor_reduced not in restriction.residues:
        raise ValueError(f"anchor residue {anchor} is not admissible")
    if not 0 <= slot < period:
        raise ValueError(f"slot {slot} outside [0, {period})")
    solution = solve_restricted(dim, restriction, order)
    matrix, escaping_rhs = build_system(dim, restriction, order)
    slots = [
        (shift_distance(r, anchor_reduced, period) + slot) % period
        for r in restriction.residues
    ]
    vec = [
        solution.series[r].multisection(period, l)
        for r, l in zip(restriction.residues, slots)
    ]
    rhs = [series.multisection(period, l) for series, l in zip(escaping_rhs, slots)]
    return mul_vec(matrix, vec) == rhs


def period_two_closed_form(dim: int, order: int) -> TruncatedSeries:
    """Even multisection of the walk series for the restriction ({0}, 2).

    With a single admissible residue the system is one equation, so the even
    part of the solution is the even part of the escaping series divided by
    one minus the even part of the simple-loop series, which is the even part
    of the reciprocal loop series.
    """
    model = LoopModel(dim, order)
    escaping_even = model.escaping_gf().multisection(2, 0)
    return escaping_even * model.reciprocal_loop_gf().multisection(2, 0).inverse()


def one_forbidden_closed_form(
    dim: int, restriction: PeriodicSet, residue: int, order: int
) -> TruncatedSeries:
    """Walk series from ``residue`` when exactly one residue ``s`` is forbidden.

    The forbidden-residue system is the single equation ``L_0 z = 1``, so
    ``P_r = (1 - L_{(s - r) mod p} / L_0) / (1 - 4**d t)``, with ``L_c`` the
    ``(p, c)``-multisection of the loop series.
    """
    period = restriction.period
    (forbidden,) = set(range(period)).difference(restriction.residues)
    loop = LoopModel(dim, order).loop_gf()
    one = TruncatedSeries.one(order)
    ratio = loop.multisection(period, (forbidden - residue) % period) * (
        loop.multisection(period, 0).inverse()
    )
    drift = one - TruncatedSeries.monomial(4**dim, 1, order)
    return (one - ratio) * drift.inverse()


def odd_length_count(
    dim: int, restriction: PeriodicSet, half_len: int, max_cells: int | None = None
) -> int:
    """Number of restricted walks of length ``2 * half_len + 1``."""
    return count_odd_length(dim, restriction, half_len, max_cells).counts[half_len]


def payload_to_series(payload) -> TruncatedSeries:
    """Rebuild a series from ``lattice_gf.cli.series_to_payload`` output;
    every coefficient is an integer, so every denominator reads "1"."""
    assert all(item["d"] == "1" for item in payload), payload
    return TruncatedSeries(int(item["n"]) for item in payload)


def unfolded_walk(dim: int, max_half_len: int, allow_touch) -> tuple[list, list, list]:
    """Origin counts after even steps, and total counts after even and after
    odd steps, from a plain list with one cell per site of ``[-R, R]**dim``,
    ``R = 2 * max_half_len + 1``.  Each step moves every cell's count to its
    ``2**dim`` diagonal neighbours; the origin is emptied after step ``2k``
    unless ``allow_touch(k)``.  No count reaches ``|x_i| = R`` before the
    last step, so no move wraps round the flat list.  Tiny sizes only.
    """
    width = 2 * (2 * max_half_len + 1) + 1
    strides = [width**axis for axis in range(dim)]
    offsets = [
        sum(m * stride for m, stride in zip(move, strides))
        for move in product((-1, 1), repeat=dim)
    ]
    origin = (width // 2) * sum(strides)
    counts = [0] * width**dim
    counts[origin] = 1
    origin_even, total_even, total_odd = [1], [1], []
    for step in range(1, 2 * max_half_len + 2):
        moved = [0] * len(counts)
        for cell, count in enumerate(counts):
            if count:
                for offset in offsets:
                    moved[cell + offset] += count
        counts = moved
        if step % 2:
            total_odd.append(sum(counts))
        else:
            origin_even.append(counts[origin])
            if not allow_touch(step // 2):
                counts[origin] = 0
            total_even.append(sum(counts))
    return origin_even, total_even, total_odd


def unfolded_counts(
    kind: str, dim: int, restriction: PeriodicSet | None, max_half_len: int
) -> list[int]:
    """What the oracle counter for CLI ``--kind kind`` should return."""
    if kind in ("restricted", "odd-length"):
        _, even, odd = unfolded_walk(dim, max_half_len, restriction.is_admissible_half_time)
        return even if kind == "restricted" else odd
    origins, totals, _ = unfolded_walk(dim, max_half_len, lambda k: kind == "loops")
    if kind == "simple-loops":
        return [0] + origins[1:]
    return origins if kind == "loops" else totals


def sets_up_to_rotation(max_period: int) -> list[PeriodicSet]:
    """Every nonempty set of each period up to ``max_period``, one per class
    of rotations: the least of its rotations that contain 0."""
    out = []
    for period in range(1, max_period + 1):
        seen = set()
        for mask in range(1, 2**period):
            residues = [r for r in range(period) if mask >> r & 1]
            least = min(tuple(sorted((r - s) % period for r in residues)) for s in residues)
            if least not in seen:
                seen.add(least)
                out.append(PeriodicSet(least, period))
    return out


def load_benchmark_module(name: str):
    """``perfbench/<name>.py`` as a module; importing it runs no benchmark
    and installs no tracer wrapper."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
