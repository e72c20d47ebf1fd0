"""Linear systems over the truncated-series ring for restricted walk counts.

A walk that may touch the space origin only at admissible times decomposes
uniquely at its first return: either it escapes outright, or the piece up to
the first return is a simple loop ending at an admissible time and the rest
is again a restricted walk started there.  Between admissible times only the
residue class modulo the period matters, and a simple loop cannot violate the
restriction in its interior, so collecting returns by residue class gives,
for every admissible residue ``r``, the equation

    P_r - sum_q  multisection(E, period, shift(r, q)) * P_q  =  E_inf,

with ``E`` the simple-loop series, ``E_inf`` the escaping series and the sum
over admissible residues ``q``.  At ``t = 0`` the matrix is the identity, so
Gaussian elimination without pivot search solves it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .loops import LoopModel
from .periodic import PeriodicSet, shift_distance
from .series import TruncatedSeries


class SeriesMatrix:
    """A square matrix of TruncatedSeries entries sharing one order."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        grid = tuple(tuple(row) for row in rows)
        if not grid:
            raise ValueError("matrix needs at least one row")
        size = len(grid)
        if any(len(row) != size for row in grid):
            raise ValueError("matrix must be square")
        orders = {entry.order for row in grid for entry in row}
        if len(orders) != 1:
            raise ValueError("entries must share one truncation order")
        self.rows = grid

    @classmethod
    def identity(cls, n: int, order: int) -> "SeriesMatrix":
        one = TruncatedSeries.one(order)
        zero = TruncatedSeries.zero(order)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def order(self) -> int:
        return self.rows[0][0].order

    def entry(self, i: int, j: int) -> TruncatedSeries:
        return self.rows[i][j]

    def mul_vec(self, vec: Sequence[TruncatedSeries]) -> list[TruncatedSeries]:
        if len(vec) != self.n:
            raise ValueError("vector length does not match the matrix size")
        out = []
        for row in self.rows:
            acc = TruncatedSeries.zero(self.order)
            for entry, x in zip(row, vec):
                acc = acc + entry * x
            out.append(acc)
        return out

    def __matmul__(self, other):
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        if self.n != other.n or self.order != other.order:
            raise ValueError("matrix sizes or orders do not match")
        n = self.n
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = TruncatedSeries.zero(self.order)
                for m in range(n):
                    acc = acc + self.rows[i][m] * other.rows[m][j]
                row.append(acc)
            rows.append(row)
        return SeriesMatrix(rows)

    def __eq__(self, other):
        if isinstance(other, SeriesMatrix):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash(self.rows)


def build_system(dim: int, restriction: PeriodicSet, order: int):
    """The coefficient matrix and right-hand side of the return decomposition.

    Rows and columns follow ``restriction.residues``.  Diagonal entries have
    constant term 1 and off-diagonal entries constant term 0, which is what
    lets the solver skip pivot search.
    """
    model = LoopModel(dim, order)
    excursions = model.primitive_excursion_gf()
    escaping = model.escaping_gf()
    period = restriction.period
    one = TruncatedSeries.one(order)
    rows = []
    for r in restriction.residues:
        row = []
        for q in restriction.residues:
            piece = excursions.multisection(period, shift_distance(r, q, period))
            row.append(one - piece if r == q else -piece)
        rows.append(row)
    return SeriesMatrix(rows), [escaping] * restriction.size


def solve_linear_system(
    matrix: SeriesMatrix, rhs: Sequence[TruncatedSeries]
) -> list[TruncatedSeries]:
    """Gaussian elimination over the series ring, no pivot search.

    Every pivot must be a unit (nonzero constant term); for the systems built
    here the diagonal keeps constant term 1 throughout elimination.
    """
    n = matrix.n
    if len(rhs) != n:
        raise ValueError("right-hand side length does not match the matrix")
    rows = [list(row) for row in matrix.rows]
    vec = list(rhs)
    for i in range(n):
        pivot = rows[i][i]
        if pivot.constant_term == 0:
            raise ArithmeticError("singular system: pivot without constant term")
        inv = pivot.inverse()
        for j in range(i + 1, n):
            factor = rows[j][i] * inv
            rows[j] = [rows[j][m] - factor * rows[i][m] for m in range(n)]
            vec[j] = vec[j] - factor * vec[i]
    out: list[TruncatedSeries | None] = [None] * n
    for i in reversed(range(n)):
        acc = vec[i]
        for m in range(i + 1, n):
            acc = acc - rows[i][m] * out[m]
        out[i] = acc * rows[i][i].inverse()
    return out


@dataclass(frozen=True, eq=False)
class RestrictedPathSolution:
    """Solved walk series per admissible start residue."""

    restriction: PeriodicSet
    dim: int
    series: dict[int, TruncatedSeries]


def check_walk_series(residue: int, series: TruncatedSeries) -> None:
    """Raise ArithmeticError unless ``series`` can count walks: every
    coefficient a nonnegative ``int`` and the constant term 1."""
    for index, c in enumerate(series.coeffs):
        if type(c) is not int or c < 0 or (index == 0 and c != 1):
            raise ArithmeticError(
                f"restricted-walk series for residue {residue} has bad"
                f" coefficient {c!r} at index {index}: expected a nonnegative"
                " int, and 1 at index 0"
            )


@lru_cache(maxsize=None)
def _solution_tuple(dim: int, restriction: PeriodicSet, order: int):
    matrix, rhs = build_system(dim, restriction, order)
    solution = solve_linear_system(matrix, rhs)
    for residue, series in zip(restriction.residues, solution):
        check_walk_series(residue, series)
    return tuple(solution)


def solve_restricted(dim: int, restriction: PeriodicSet, order: int) -> RestrictedPathSolution:
    """Solve the system once per (dim, restriction, order); results are cached."""
    solved = _solution_tuple(dim, restriction, order)
    return RestrictedPathSolution(
        restriction, dim, dict(zip(restriction.residues, solved))
    )


def restricted_path_gf(
    dim: int, restriction: PeriodicSet, start_residue: int, order: int
) -> TruncatedSeries:
    """Series counting restricted walks started at twice an admissible residue.

    The coefficient at ``t**j`` counts walks of length ``2j`` that begin on
    the time axis at time ``2 * start_residue`` and touch the space origin at
    admissible times only.
    """
    reduced = start_residue % restriction.period
    if reduced not in restriction.residues:
        raise ValueError(
            f"start residue {start_residue} is not admissible for {restriction}"
        )
    return solve_restricted(dim, restriction, order).series[reduced]


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
    return matrix.mul_vec(vec) == rhs


def period_two_closed_form(dim: int, order: int) -> TruncatedSeries:
    """Even multisection of the walk series for the restriction ({0}, 2).

    With a single admissible residue the system is one equation, so the even
    part of the solution is the even part of the escaping series divided by
    one minus the even part of the simple-loop series.
    """
    model = LoopModel(dim, order)
    excursions_even = model.primitive_excursion_gf().multisection(2, 0)
    escaping_even = model.escaping_gf().multisection(2, 0)
    denom = TruncatedSeries.one(order) - excursions_even
    return escaping_even * denom.inverse()
