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
series.  Every circulant and quarter here comes from the builder of the
restriction system, ``system._circulant_block``: rows and columns
``0..n-1`` give the full circulant, graded ``(n, (0, ..., n-1))`` as a
``SeriesMatrix``, and rows and columns ``0..k-1`` of period ``2k`` give the
upper-left quarter directly.  ``system.series_determinant`` runs the
elimination kernel on either, keeping each entry as a series in ``t**n``.
The row relation needs no matrix: it reads the ``n`` multisections of the
two series, which are the first rows of the two circulants.
"""

from .loops import LoopModel
from .periodic import hajnal_nagy_set
from .series import TruncatedSeries, inv_sqrt_one_minus_monomial
from .system import SeriesMatrix, _circulant_block, restricted_path_gf, series_determinant


def restriction_circulant(dim: int, n: int, order: int) -> SeriesMatrix:
    """Circulant whose principal submatrices are restriction system matrices.

    The first row splits the reciprocal loop series, which is one minus the
    simple-loop series, into its ``n`` multisections.
    """
    return _circulant_block(LoopModel(dim, order).reciprocal_loop_gf(), n, range(n))


def escaping_circulant(dim: int, n: int, order: int) -> SeriesMatrix:
    """Circulant built from the multisections of the escaping series."""
    return _circulant_block(LoopModel(dim, order).escaping_gf(), n, range(n))


def _quarters(dim: int, k: int, order: int) -> tuple[SeriesMatrix, SeriesMatrix]:
    """Upper-left quarters of the ``2k x 2k`` restriction and escaping
    circulants, built without the other three quarters."""
    model = LoopModel(dim, order)
    return (
        _circulant_block(model.reciprocal_loop_gf(), 2 * k, range(k)),
        _circulant_block(model.escaping_gf(), 2 * k, range(k)),
    )


def row_relation_check(dim: int, n: int, order: int) -> bool:
    """Entry-wise relation between the first rows of the two circulants.

    The first rows are the ``n`` multisections of the reciprocal loop series
    and of the escaping series, so the check reads those multisections and
    builds no matrix.  Subtracting the reciprocal loop series from the
    escaping series leaves ``4**d t`` times the escaping series, so each
    difference of multisections is the ``t``-shift of the cyclically
    previous escaping multisection.
    """
    model = LoopModel(dim, order)
    if n < 1:
        raise ValueError("circulant size must be positive")
    reciprocal, escaping = model.reciprocal_loop_gf(), model.escaping_gf()
    sections = [escaping.multisection(n, j) for j in range(n)]
    step = TruncatedSeries.monomial(4**dim, 1, order)
    # sections[-1] is the class n - 1 that cyclically precedes class 0.
    return all(
        sections[j] - reciprocal.multisection(n, j) == sections[j - 1] * step
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
    restriction, escaping = _quarters(dim, k, order)
    substituted = SeriesMatrix(
        [(e[0], *r[1:]) for r, e in zip(restriction.rows, escaping.rows)],
        restriction.grading,
    )
    return series_determinant(substituted) == series_determinant(escaping)


def cramer_ratio_check(dim: int, k: int, order: int) -> bool:
    """The even multisection of the solved walk series times the restriction
    quarter determinant equals the escaping quarter determinant."""
    target = restricted_path_gf(dim, hajnal_nagy_set(k), 0, order).multisection(
        2 * k, 0
    )
    restriction, escaping = _quarters(dim, k, order)
    return series_determinant(escaping) == target * series_determinant(restriction)


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
        _circulant_block(LoopModel(1, order).escaping_gf(), 2 * k, range(k))
    )
    block_identity = det_escaping * det_full == det_restriction
    closed_form = (
        det_full * inv_sqrt_one_minus_monomial(4 ** (2 * k), 2 * k, order)
        == TruncatedSeries.one(order)
    )
    return block_identity and closed_form
