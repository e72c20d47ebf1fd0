"""Small independent oracles used to freeze expected values in the tests.

Everything here is computed by a different route than the library code it
checks: closed-form binomials, the binomial series for square roots, and a
step-by-step polygon walk for cyclic distances.  The matrix helpers
build identity matrices and matrix products entry by entry,
``odd_length_count`` reads one value off an oracle table, and
``payload_to_series`` reads back the exact coefficients of a CLI document.
"""

from fractions import Fraction
from math import comb

from lattice_gf.oracle import count_odd_length
from lattice_gf.periodic import PeriodicSet
from lattice_gf.series import TruncatedSeries
from lattice_gf.system import SeriesMatrix


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def central_binomial(n: int) -> int:
    return comb(2 * n, n)


def sqrt_one_minus_4t(order: int) -> list[Fraction]:
    """Coefficients of (1-4t)**(1/2) from the binomial series."""
    coeffs = [Fraction(1)]
    term = Fraction(1)
    for k in range(1, order):
        # binom(1/2, k) / binom(1/2, k-1) = (3 - 2k) / (2k), times (-4)**1
        term *= Fraction(3 - 2 * k, 2 * k) * (-4)
        coeffs.append(term)
    return coeffs


def polygon_distance(start: int, target: int, period: int) -> int:
    """Count forward arcs on the oriented period-gon, one at a time."""
    steps = 0
    vertex = start
    while vertex != target:
        vertex = (vertex + 1) % period
        steps += 1
    return steps


def identity_matrix(n: int, order: int) -> SeriesMatrix:
    one = TruncatedSeries.one(order)
    zero = TruncatedSeries.zero(order)
    return SeriesMatrix([[one if i == j else zero for j in range(n)] for i in range(n)])


def matmul(a: SeriesMatrix, b: SeriesMatrix) -> SeriesMatrix:
    """Matrix product over the series ring, by the schoolbook formula."""
    if a.n != b.n or a.order != b.order:
        raise ValueError("matrix sizes or orders do not match")
    rows = []
    for i in range(a.n):
        row = []
        for j in range(a.n):
            acc = TruncatedSeries.zero(a.order)
            for m in range(a.n):
                acc = acc + a.entry(i, m) * b.entry(m, j)
            row.append(acc)
        rows.append(row)
    return SeriesMatrix(rows)


def odd_length_count(
    dim: int, restriction: PeriodicSet, half_len: int, max_cells: int | None = None
) -> int:
    """Number of restricted walks of length ``2 * half_len + 1``."""
    return count_odd_length(dim, restriction, half_len, max_cells).counts[half_len]


def payload_to_series(payload) -> TruncatedSeries:
    """Rebuild a series from ``lattice_gf.cli.series_to_payload`` output."""
    return TruncatedSeries(
        Fraction(int(item["n"]), int(item["d"])) for item in payload
    )
