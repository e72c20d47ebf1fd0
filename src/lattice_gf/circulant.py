"""Circulant matrices of multisections and the determinant identity chain.

For an even period ``n = 2k`` the restriction system of the admissible
family ``{0..k-1} mod 2k`` is the upper-left quarter of an ``n x n``
circulant whose first row holds the multisections of the reciprocal loop
series.  A companion circulant built from multisections of the escaping
series is related entry-wise by one multiplication with ``4**d t``, and a
determinant-preserving column substitution connects the two quarters.  Via
Cramer's rule this expresses the even multisection of the restricted walk
series as a ratio of quarter determinants, and in one dimension the full
determinant collapses to ``sqrt(1 - (4t)**(2k))``.

Entry ``(i, j)`` of these circulants is the ``(n, j - i)`` multisection of a
series, so the builders declare the grading ``(n, (0, ..., n-1))`` of
``SeriesMatrix``; the upper-left quarter keeps the first half of the labels,
and ``system.series_determinant`` runs the elimination kernel on it, keeping
each entry as a series in ``t**n``.
"""

from .loops import LoopModel
from .periodic import hajnal_nagy_set
from .series import TruncatedSeries, inv_sqrt_one_minus_monomial
from .system import SeriesMatrix, restricted_path_gf, series_determinant


def _graded_circulant(series: TruncatedSeries, n: int) -> SeriesMatrix:
    """The ``n x n`` circulant whose entry ``(i, j)`` is the ``(n, j - i)``
    multisection of ``series``, graded ``(n, (0, ..., n-1))``."""
    if n < 1:
        raise ValueError("circulant size must be positive")
    row = [series.multisection(n, j) for j in range(n)]
    return SeriesMatrix([row[n - i:] + row[:n - i] for i in range(n)], (n, range(n)))


def restriction_circulant(dim: int, n: int, order: int) -> SeriesMatrix:
    """Circulant whose principal submatrices are restriction system matrices.

    The first row splits the reciprocal loop series, which is one minus the
    simple-loop series, into its ``n`` multisections.
    """
    return _graded_circulant(LoopModel(dim, order).reciprocal_loop_gf(), n)


def escaping_circulant(dim: int, n: int, order: int) -> SeriesMatrix:
    """Circulant built from the multisections of the escaping series."""
    return _graded_circulant(LoopModel(dim, order).escaping_gf(), n)


def row_relation_check(dim: int, n: int, order: int) -> bool:
    """Entry-wise relation between the two first rows.

    Subtracting the reciprocal loop series from the escaping series leaves
    ``4**d t`` times the escaping series, so each difference of row entries
    is the ``t``-shift of the cyclically previous escaping entry.
    """
    restriction_row = restriction_circulant(dim, n, order).rows[0]
    escaping_row = escaping_circulant(dim, n, order).rows[0]
    step = TruncatedSeries.monomial(4**dim, 1, order)
    return all(
        escaping_row[j] - restriction_row[j] == escaping_row[(j - 1) % n] * step
        for j in range(n)
    )


def quarter(matrix: SeriesMatrix) -> SeriesMatrix:
    """Upper-left quarter of an even-sized matrix, graded by the labels of
    its first half."""
    if matrix.n % 2 != 0:
        raise ValueError("quarter split needs an even matrix size")
    k = matrix.n // 2
    period, labels = matrix.grading
    return SeriesMatrix([row[:k] for row in matrix.rows[:k]], (period, labels[:k]))


def column_substitution_check(dim: int, k: int, order: int) -> bool:
    """Replacing the first quarter column by the escaping one preserves the
    determinant of the escaping quarter.

    Column operations using the entry-wise row relation turn the substituted
    matrix into the escaping quarter without changing the determinant.
    """
    left_restriction = quarter(restriction_circulant(dim, 2 * k, order))
    left_escaping = quarter(escaping_circulant(dim, 2 * k, order))
    substituted = SeriesMatrix(
        [
            [
                left_escaping.entry(i, 0) if j == 0 else left_restriction.entry(i, j)
                for j in range(k)
            ]
            for i in range(k)
        ],
        left_restriction.grading,
    )
    return series_determinant(substituted) == series_determinant(left_escaping)


def cramer_ratio_check(dim: int, k: int, order: int) -> bool:
    """The even multisection of the solved walk series times the restriction
    quarter determinant equals the escaping quarter determinant."""
    target = restricted_path_gf(dim, hajnal_nagy_set(k), 0, order).multisection(
        2 * k, 0
    )
    det_restriction = series_determinant(
        quarter(restriction_circulant(dim, 2 * k, order))
    )
    det_escaping = series_determinant(
        quarter(escaping_circulant(dim, 2 * k, order))
    )
    return det_escaping == target * det_restriction


def hn_determinant_check(k: int, order: int) -> bool:
    """One-dimensional determinant chain behind the Hajnal-Nagy identity.

    First, the escaping quarter determinant times the full circulant
    determinant gives back the restriction quarter determinant (the two full
    circulants are inverse to each other when ``dim == 1``).  Second, the
    full determinant is exactly ``sqrt(1 - (4t)**(2k))``.
    """
    full = restriction_circulant(1, 2 * k, order)
    det_full = series_determinant(full)
    det_restriction = series_determinant(quarter(full))
    det_escaping = series_determinant(
        quarter(escaping_circulant(1, 2 * k, order))
    )
    block_identity = det_escaping * det_full == det_restriction
    closed_form = (
        det_full * inv_sqrt_one_minus_monomial(4 ** (2 * k), 2 * k, order)
        == TruncatedSeries.one(order)
    )
    return block_identity and closed_form
