"""Small independent oracles used to freeze expected values in the tests.

Everything here is computed by a different route than the library code it
checks: closed-form binomials, the binomial series for square roots, and a
step-by-step polygon walk for cyclic distances, which checks
``shift_distance``, the range-checked ``(target - start) % period`` that the
system tests index multisections with.  ``graded_block`` is the reference
for the solver's graded block: it checks with ``is_multisection`` that
every entry of a matrix of series lies in its class and then slices it,
and ``entry_series`` turns a block back into series.  The matrix helpers
work on square lists of series: they build identity matrices, matrix
products and matrix-vector products entry by entry,
``leibniz_determinant`` sums signed products over permutations,
``odd_length_count`` reads one value off an oracle table, and
``payload_to_series`` reads back the exact coefficients of a CLI document.
``unfolded_counts`` is the reference for the folded oracle: the same dynamic
program over every site of the unfolded grid.  ``per_class_row_relation``
checks the row relation one multisection class at a time, and
``hajnal_nagy_closed_form`` expands ``(1 - (4t)**(2k)) ** (-1/2)`` from
binomials; ``closed_form_by_product`` and ``closed_form_detail`` are the
product and first-difference forms of the Hajnal-Nagy closed-form checks
that the library's one-relation and ``u``-section forms are held equal to.  ``reduction_check`` and
``period_two_closed_form`` test the solved series against the system they
solve, by multisection, and ``one_forbidden_closed_form`` solves a set with
one forbidden residue by hand.  ``sets_up_to_rotation`` lists the periodic
sets of small periods for grid tests.  ``load_benchmark_module`` imports a
file of ``perfbench/`` for the tests that pin what the benchmark reaches.
``solve_complement`` and ``solve_reciprocal`` are no independent oracles:
they run one of the library's two routes for every admissible residue,
whatever route the solution cache would take, so that the routes and the
cache are compared with each other.  ``solve_dense`` runs
``solve_linear_system`` on dense series, the all-classes case, and
``spread`` places a solver vector kept on a few classes back in ``t``.
"""

import importlib.util
from fractions import Fraction
from itertools import permutations, product
from math import comb
from pathlib import Path

from lattice_gf.loops import LoopModel
from lattice_gf.oracle import count_odd_length
from lattice_gf.periodic import PeriodicSet
from lattice_gf.series import TruncatedSeries
from lattice_gf.system import (
    SeriesMatrix,
    _Solved,
    build_system,
    solve_linear_system,
    solve_restricted,
)


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


def is_multisection(series: TruncatedSeries, q: int, r: int) -> bool:
    """Whether every nonzero coefficient of ``series`` sits at an index
    congruent to ``r`` mod ``q``."""
    return all(c == 0 for index, c in enumerate(series.coeffs) if index % q != r)


def graded_block(series_rows, grading=None) -> SeriesMatrix:
    """The graded block of a square matrix of series of one order, checked:
    ``grading = (period, labels)``, by default the trivial ``(1, (0, ...,
    0))``, puts entry ``(i, j)`` in class ``(labels[j] - labels[i]) %
    period``, and every entry must lie in its class.  The reference for
    ``system._circulant_block``, which slices the classes without a check."""
    rows = [list(row) for row in series_rows]
    n = len(rows)
    if not n or any(len(row) != n for row in rows):
        raise ValueError("a block is a nonempty square")
    period, labels = (1, (0,) * n) if grading is None else grading
    if len(labels) != n:
        raise ValueError("a grading needs one label per column")
    order = rows[0][0].order
    classes = tuple(tuple((b - a) % period for b in labels) for a in labels)
    for i, row in enumerate(rows):
        for j, (entry, c) in enumerate(zip(row, classes[i])):
            if entry.order != order:
                raise ValueError("entries must share one truncation order")
            if not is_multisection(entry, period, c):
                raise ValueError(
                    f"entry ({i}, {j}) has a coefficient outside its class {c} mod {period}")
    sliced = tuple(
        tuple(entry.coeffs[c::period] for entry, c in zip(row, row_classes))
        for row, row_classes in zip(rows, classes)
    )
    return SeriesMatrix(sliced, classes, period, order)


def entry_series(block: SeriesMatrix) -> list[list[TruncatedSeries]]:
    """The entries of a graded block as series in ``t``, row by row."""
    out = []
    for row, row_classes in zip(block.rows, block.classes):
        series_row = []
        for entry, c in zip(row, row_classes):
            coeffs = [0] * block.order
            coeffs[c :: block.period] = entry
            series_row.append(TruncatedSeries(coeffs))
        out.append(series_row)
    return out


def identity_matrix(n: int, order: int) -> list[list[TruncatedSeries]]:
    one = TruncatedSeries.one(order)
    zero = TruncatedSeries([0] * order)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def matmul(a, b) -> list[list[TruncatedSeries]]:
    """Product of two square matrices of series, by the schoolbook formula."""
    n, order = len(a), a[0][0].order
    if len(b) != n or b[0][0].order != order:
        raise ValueError("matrix sizes or orders do not match")
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = TruncatedSeries([0] * order)
            for m in range(n):
                acc = acc + a[i][m] * b[m][j]
            row.append(acc)
        rows.append(row)
    return rows


def mul_vec(matrix, vec) -> list[TruncatedSeries]:
    """A square matrix of series times a vector of series, by the
    schoolbook formula."""
    if len(vec) != len(matrix):
        raise ValueError("vector length does not match the matrix size")
    out = []
    for row in matrix:
        acc = TruncatedSeries([0] * row[0].order)
        for entry, x in zip(row, vec):
            acc = acc + entry * x
        out.append(acc)
    return out


def leibniz_determinant(matrix) -> TruncatedSeries:
    """Determinant of a square matrix of series as the sum over
    permutations of the signed products of entries: no elimination, no
    pivot and no sign convention to undo."""
    n, order = len(matrix), matrix[0][0].order
    total = TruncatedSeries([0] * order)
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = TruncatedSeries.one(order)
        for i, j in enumerate(perm):
            term = term * matrix[i][j]
        total = total - term if inversions % 2 else total + term
    return total


def solve_complement(
    dim: int, restriction: PeriodicSet, order: int
) -> list[TruncatedSeries]:
    """Walk series of every admissible residue on the complement route, in
    the order of ``restriction.residues``: a complement-route ``_Solved``
    entry factors ``B_SS^T`` once, and each residue is one forward pass and
    one back substitution of its own column of ``B_RS^T``."""
    entry = _Solved(dim, restriction, order, True)
    return [entry.walk_series(r, order) for r in restriction.residues]


def solve_reciprocal(
    dim: int, restriction: PeriodicSet, order: int
) -> list[TruncatedSeries]:
    """Walk series of every admissible residue on the reciprocal route, in
    the order of ``restriction.residues``: one solve of ``A_RR z = A_RS
    1_S`` by ``build_system`` and ``solve_linear_system``."""
    entry = _Solved(dim, restriction, order, False)
    return [entry.walk_series(r, order) for r in restriction.residues]


def solve_dense(matrix: SeriesMatrix, rhs) -> list[TruncatedSeries]:
    """``solve_linear_system`` with every right-hand side entry a dense
    series, on all classes below ``min(period, order)``."""
    support = range(min(matrix.period, matrix.order))
    solved = solve_linear_system(matrix, [(support, series.coeffs) for series in rhs])
    return [TruncatedSeries(coeffs) for coeffs in solved]


def spread(support, coeffs, period: int, order: int) -> TruncatedSeries:
    """The series in ``t`` of a solver vector on the sorted classes
    ``support``, walking the exponents below ``order`` one by one."""
    values = iter(coeffs)
    out = [next(values) if e % period in support else 0 for e in range(order)]
    if next(values, None) is not None:
        raise ValueError("coefficients left over past the order")
    return TruncatedSeries(out)


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
    matrix, _ = build_system(dim, restriction, order)
    escaping = LoopModel(dim, order).escaping_gf()
    slots = [
        (shift_distance(r, anchor_reduced, period) + slot) % period
        for r in restriction.residues
    ]
    vec = [
        solution.series[r].multisection(period, l)
        for r, l in zip(restriction.residues, slots)
    ]
    rhs = [escaping.multisection(period, l) for l in slots]
    return mul_vec(entry_series(matrix), vec) == rhs


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


def per_class_row_relation(
    escaping: TruncatedSeries, reciprocal: TruncatedSeries, dim: int, n: int
) -> bool:
    """The row relation entry by entry: for each class ``j`` mod ``n``, the
    ``(n, j)`` multisection of ``escaping - reciprocal`` is ``4**dim t``
    times the ``(n, j - 1)`` multisection of ``escaping``."""
    sections = [escaping.multisection(n, j) for j in range(n)]
    step = TruncatedSeries.monomial(4**dim, 1, escaping.order)
    # sections[-1] is the class n - 1 that cyclically precedes class 0.
    return all(
        sections[j] - reciprocal.multisection(n, j) == sections[j - 1] * step
        for j in range(n)
    )


def hajnal_nagy_closed_form(k: int, order: int) -> TruncatedSeries:
    """``(1 - (4t)**(2k)) ** (-1/2)``: ``comb(2j, j) * 4**((2k - 1) j)`` at
    ``t**(2kj)`` and zero elsewhere."""
    coeffs = [0] * order
    for j in range((order - 1) // (2 * k) + 1):
        coeffs[2 * k * j] = comb(2 * j, j) * 4 ** ((2 * k - 1) * j)
    return TruncatedSeries(coeffs)


def closed_form_by_product(det_full: TruncatedSeries, k: int) -> bool:
    """Whether ``det_full`` is ``sqrt(1 - (4t)**(2k))``, by its product with
    the inverse square root being 1."""
    order = det_full.order
    return det_full * hajnal_nagy_closed_form(k, order) == TruncatedSeries.one(order)


def closed_form_detail(series: TruncatedSeries, k: int) -> tuple[bool, str]:
    """``verify-hn``'s closed-form verdict and detail for a walk series: its
    ``(2k, 0)`` multisection against ``hajnal_nagy_closed_form``, index by
    index in ``t``."""
    sliced = series.multisection(2 * k, 0)
    target = hajnal_nagy_closed_form(k, series.order)
    for j, (got, want) in enumerate(zip(sliced.coeffs, target.coeffs)):
        if got != want:
            return False, f" (first differing index {j}: solved {got}, closed form {want})"
    return True, ""


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
