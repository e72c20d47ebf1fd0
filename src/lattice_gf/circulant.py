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
series.  Every circulant and quarter here is a graded block,
``system.SeriesMatrix``, built by the builder of the restriction system,
``system._circulant_block``: rows and columns ``0..n-1`` of period ``n``
give the full circulant, and rows and columns ``0..k-1`` of period ``2k``
give the upper-left quarter directly.  Each entry is kept as its
coefficients in ``u = t**n``, and ``system.series_determinant`` runs the
elimination kernel on either.
The row relation needs no matrix: the first rows of the two circulants
are the ``n`` multisections of two series, and it compares the one series
relation that all ``n`` entry-wise relations cut into classes.  Nor does the
full determinant: ``_circulant_norm`` takes it from an exact integer
recurrence on the series and its inverse, so no command eliminates a full
circulant.

The three determinant checks of one ``(dim, k, order)`` share one staircase
record, ``_staircase``: the restriction quarter, the escaping quarter and
the column-substituted quarter, whose first column is the escaping one,
all built when the record is made, and their determinants.  Each
determinant is eliminated once per record, by the first check that reads
it, so no check pays for a determinant it does not compare, and a check
costs about the same whichever check of its record ran first.  The
records sit in a ``functools.lru_cache`` bounded by
``STAIRCASE_CACHE_SIZE``, least recently used dropped first.  Its key is
typed, because ``2.0 == 2`` and ``True == 1`` hash alike: an untyped key
would answer a float or boolean argument from the entry of an ``int`` one,
where a cold call raises ``TypeError``.  A call that raises caches nothing,
and a staircase size that is not a positive ``int`` is refused before any
record is read or any system solved.
"""

import functools
from operator import mul

from .errors import check_int
from .loops import LoopModel
from .periodic import hajnal_nagy_set
from .series import TruncatedSeries
from .system import SeriesMatrix, _circulant_block, restricted_path_gf, series_determinant

# Bound of the _staircase records; one identity-chain pass asks for 9
# distinct (dim, k, order).
STAIRCASE_CACHE_SIZE = 16


def restriction_circulant(dim: int, n: int, order: int) -> SeriesMatrix:
    """Circulant whose principal submatrices are restriction system matrices.

    The first row splits the reciprocal loop series, which is one minus the
    simple-loop series, into its ``n`` multisections.
    """
    check_int("circulant size", n)
    return _circulant_block(LoopModel(dim, order).reciprocal_loop_gf(), n, range(n))


def escaping_circulant(dim: int, n: int, order: int) -> SeriesMatrix:
    """Circulant built from the multisections of the escaping series."""
    check_int("circulant size", n)
    return _circulant_block(LoopModel(dim, order).escaping_gf(), n, range(n))


class _Staircase(dict):
    """Determinants of the restriction, escaping and column-substituted
    quarters of the ``2k x 2k`` circulants of one ``(dim, k, order)``, by
    name.  The quarters are built with the record; each determinant is
    eliminated on first use."""

    def __init__(self, dim: int, k: int, order: int):
        model = LoopModel(dim, order)
        restriction = _circulant_block(model.reciprocal_loop_gf(), 2 * k, range(k))
        escaping = _circulant_block(model.escaping_gf(), 2 * k, range(k))
        rows = tuple((e[0], *r[1:]) for r, e in zip(restriction.rows, escaping.rows))
        substituted = SeriesMatrix(rows, restriction.classes, 2 * k, order)
        self.quarters = dict(restriction=restriction, escaping=escaping, substituted=substituted)

    def __missing__(self, name: str) -> TruncatedSeries:
        return self.setdefault(name, series_determinant(self.quarters[name]))


_staircase = functools.lru_cache(maxsize=STAIRCASE_CACHE_SIZE, typed=True)(_Staircase)


def row_relation_check(dim: int, n: int, order: int) -> bool:
    """Entry-wise relation between the first rows of the two circulants.

    The first rows are the ``n`` multisections of the reciprocal loop series
    ``1/L`` and of the escaping series ``E``.  Entry ``j`` says that ``E_j -
    (1/L)_j`` is ``4**d t E_{j-1}``, the ``t``-shift of the cyclically
    previous escaping multisection: class ``j`` mod ``n`` of the series
    relation ``E - 1/L = 4**d t E``.  The classes mod ``n`` split the
    coefficients, so for every ``n`` the ``n`` entry-wise relations all hold
    exactly when that one relation does, and the check compares it once,
    cutting no multisection and building no matrix.
    """
    model = LoopModel(dim, order)
    check_int("circulant size", n, 1)
    escaping = model.escaping_gf()
    step = TruncatedSeries.monomial(4**dim, 1, order)
    return escaping - model.reciprocal_loop_gf() == escaping * step


def quarter(matrix: SeriesMatrix) -> SeriesMatrix:
    """Upper-left quarter of an even-sized block: the rows, columns and
    classes of its first half, sharing the block's entries."""
    if matrix.n % 2 != 0:
        raise ValueError("quarter split needs an even matrix size")
    k = matrix.n // 2
    rows = tuple(row[:k] for row in matrix.rows[:k])
    classes = tuple(row[:k] for row in matrix.classes[:k])
    return SeriesMatrix(rows, classes, matrix.period, matrix.order)


def column_substitution_check(dim: int, k: int, order: int) -> bool:
    """Replacing the first quarter column by the escaping one preserves the
    determinant of the escaping quarter.

    Column operations using the entry-wise row relation turn the substituted
    matrix into the escaping quarter without changing the determinant.
    """
    check_int("k", k, 1)
    record = _staircase(dim, k, order)
    return record["substituted"] == record["escaping"]


def cramer_ratio_check(dim: int, k: int, order: int) -> bool:
    """The even multisection of the solved walk series times the restriction
    quarter determinant equals the escaping quarter determinant."""
    check_int("k", k, 1)
    target = restricted_path_gf(dim, hajnal_nagy_set(k), 0, order).multisection(
        2 * k, 0
    )
    record = _staircase(dim, k, order)
    return record["escaping"] == target * record["restriction"]


def _circulant_norm(f: TruncatedSeries, inverse: TruncatedSeries, n: int) -> TruncatedSeries:
    """Determinant of the ``n x n`` circulant of ``f``, with no elimination.

    The discrete Fourier transform diagonalises a circulant, so for ``f``
    with constant term 1 the determinant is ``prod_j f(zeta**j t) =
    G(t**n)``, ``zeta`` running over the ``n``-th roots of unity.  With
    ``D = t f' / f`` the averaged logarithmic derivative gives ``G_0 = 1``
    and ``k G_k = sum_{i=1..k} D_{i n} G_{k-i}``, an exact integer division
    because ``G`` is a determinant of integer series.  Only the sections
    ``D_{jn}`` are read, each the sum of ``i f_i h_{jn-i}`` over ``h =
    1/f``, which the caller passes as ``inverse``: about ``order**2 / (2n)``
    products, and no series is divided.
    """
    check_int("circulant size", n, 1)
    c = f.coeffs
    if c[0] != 1:
        raise ValueError(f"constant term {c[0]} is not 1: the circulant norm needs f(0) = 1")
    # D_j = sum_i (i f_i) h_{j-i}, and D_0 = 0.
    derivative, h = [i * ci for i, ci in enumerate(c)], inverse.coeffs
    sections = [sum(map(mul, derivative[1 : j + 1], reversed(h[:j]))) for j in range(0, f.order, n)]
    g = [1] * len(sections)
    for k in range(1, len(g)):
        total, rest = divmod(sum(sections[i] * g[k - i] for i in range(1, k + 1)), k)
        if rest:
            raise ArithmeticError(f"circulant norm coefficient {k} is not an integer")
        g[k] = total
    out = [0] * f.order
    out[::n] = g
    return TruncatedSeries(out)


def hn_determinant_check(k: int, order: int) -> bool:
    """One-dimensional determinant chain behind the Hajnal-Nagy identity.

    First, the escaping quarter determinant times the full circulant
    determinant gives back the restriction quarter determinant (the two full
    circulants are inverse to each other when ``dim == 1``).  Second, the
    full determinant is exactly ``sqrt(1 - (4t)**(2k))``.  The full
    determinant is the circulant norm of the reciprocal loop series, so no
    full circulant is built or eliminated; the quarters come from the
    staircase record.
    """
    check_int("k", k, 1)
    model = LoopModel(1, order)
    det_full = _circulant_norm(model.reciprocal_loop_gf(), model.loop_gf(), 2 * k)
    record = _staircase(1, k, order)
    block_identity = record["escaping"] * det_full == record["restriction"]
    # A square root with constant term 1 is unique modulo t**order, so the
    # square decides whether det_full is sqrt(1 - (4t)**(2k)).
    closed_form = det_full.coeffs[0] == 1 and det_full * det_full == (
        TruncatedSeries.one(order) - TruncatedSeries.monomial(4 ** (2 * k), 2 * k, order)
    )
    return block_identity and closed_form
