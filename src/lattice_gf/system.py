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
over admissible residues ``q``.  By the renewal identity ``1 - E`` is the
reciprocal loop series ``1/L``, and the constant 1 lies in class 0, so entry
``(r, q)`` of the matrix is ``multisection(1/L, period, shift(r, q))``,
the diagonal included.  At ``t = 0`` the matrix is the identity, so Gaussian
elimination without pivot search solves it exactly.

Entry ``(r, q)`` is supported on the single residue class ``shift(r, q)``
mod the period, so it is ``t**c`` times a series in ``u = t**period``.  A
``SeriesMatrix`` records such a grading as ``(period, labels)``: entry
``(i, j)`` lives on exponents congruent to ``labels[j] - labels[i]``.
Elimination keeps the grading, so the one kernel ``_eliminate``, shared by
``solve_linear_system`` and ``series_determinant``, stores each entry as its
``u``-coefficients only, about ``order / period`` of them.  A matrix
without structure has the trivial grading ``(1, (0, ..., 0))``, under which
the same kernel is plain dense elimination.

The same series also follow from the forbidden residues ``S``, through the
loop series ``L`` itself.  Over all residues write ``C(f)`` for the matrix
with entry ``(r, q)`` equal to ``multisection(f, period, shift(r, q))``.
Classes add under multiplication, so ``C(f) C(g) = C(f g)``, and
``A = C(1/L)`` and ``B = C(L)`` are inverse to each other.  The rows of
``A`` sum to ``1/L``, so ``E_inf = A 1 / (1 - 4**d t)`` with ``1`` the
all-ones vector, and with ``x = (1 - 4**d t) P`` the equations for the
admissible residues ``R`` read

    A_RR x_R = A_RR 1_R + A_RS 1_S.

Block ``(R, S)`` of ``A B = I`` is ``A_RR B_RS + A_RS B_SS = 0``, hence
``A_RR^-1 A_RS = -B_RS B_SS^-1`` (Jacobi's complementary minors), and

    P_R = (1_R - B_RS B_SS^-1 1_S) / (1 - 4**d t).

``B_SS`` is the identity at ``t = 0`` and is graded by ``(period, S)`` like
the matrix above, so the same kernel solves ``B_SS z = 1_S``, and no series
but its pivots is inverted.  ``solve_complement`` takes this route and
``_solution_tuple`` uses it whenever ``|S| < |R|``; a full set, ``S``
empty, needs no solve at all and gives ``4**(d j)``.
"""

from collections import OrderedDict
from collections.abc import Sequence

from .errors import check_int
from .loops import LoopModel, check_dim_and_order, geometric_sum
from .periodic import PeriodicSet
from .series import TruncatedSeries, product_coeffs

# Solved systems kept by _solution_tuple, least recently used dropped first.
SOLUTION_CACHE_SIZE = 32


class SeriesMatrix:
    """A square matrix of TruncatedSeries entries sharing one order.

    ``grading = (period, labels)`` declares that entry ``(i, j)`` is supported
    on exponents congruent to ``labels[j] - labels[i]`` mod ``period``.  The
    default is the trivial grading ``(1, (0,) * n)``, which every matrix has;
    a declared grading is checked once per distinct series and class.
    """

    __slots__ = ("rows", "grading")

    def __init__(self, rows, grading=None):
        grid = tuple(tuple(row) for row in rows)
        if not grid:
            raise ValueError("matrix needs at least one row")
        size = len(grid)
        if any(len(row) != size for row in grid):
            raise ValueError("matrix must be square")
        period, labels = (1, (0,) * size) if grading is None else grading
        check_int("grading period", period, 1)
        labels = tuple(labels)
        for label in labels:
            check_int("grading label", label)
        if len(labels) != size:
            raise ValueError("grading needs one label per row")
        # Builders reuse one series object across many entries, so each
        # distinct (series, class) pair is checked once.
        order = grid[0][0].order
        checked = set()
        for i, row in enumerate(grid):
            for j, entry in enumerate(row):
                cls = (labels[j] - labels[i]) % period
                key = (id(entry), cls)
                if key in checked:
                    continue
                if entry.order != order:
                    raise ValueError("entries must share one truncation order")
                if not entry.is_multisection(period, cls):
                    raise ValueError(
                        f"entry ({i}, {j}) has a coefficient outside its class"
                        f" {cls} mod {period}"
                    )
                checked.add(key)
        self.rows = grid
        self.grading = (period, labels)

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def order(self) -> int:
        return self.rows[0][0].order


def _dense_product(shift: int, f, dense: list, period: int) -> list:
    """``t**shift * f(t**period)`` times a dense coefficient list, truncated
    to its length: one slice pass per nonzero coefficient of ``f``."""
    out = [0] * len(dense)
    for k, fk in enumerate(f):
        if fk:
            e = shift + period * k
            out[e:] = [x + fk * y for x, y in zip(out[e:], dense)]
    return out


def _eliminate(matrix: SeriesMatrix, rhs: Sequence[TruncatedSeries] = ()):
    """Forward elimination over the series ring, no pivot search.

    Entry ``(a, b)`` is kept as its ``u``-coefficients, ``coeffs[c::period]``
    with ``c = (labels[b] - labels[a]) % period``; every update stays inside
    its class.  ``rhs`` is reduced alongside as dense coefficient lists.

    Returns ``(rows, inverses, vec)``: the upper triangle of the reduced
    matrix (entries below the diagonal are left stale) and the inverse of
    each pivot, as coefficient lists in ``u``, and the reduced right-hand
    side.  The pivots, and so the determinant, lie in class 0.  Every pivot
    must be a unit of ``Z[[u]]``, constant term +-1.
    """
    period, labels = matrix.grading
    n = matrix.n
    classes = [[(lb - la) % period for lb in labels] for la in labels]
    rows = [
        [entry.coeffs[c::period] for entry, c in zip(row, row_classes)]
        for row, row_classes in zip(matrix.rows, classes)
    ]
    vec = [list(series.coeffs) for series in rhs]
    inverses = []
    for i in range(n):
        pivot = rows[i][i]
        if pivot[0] != 1 and pivot[0] != -1:
            raise ArithmeticError(
                f"pivot {i} has constant term {pivot[0]}: elimination needs"
                " unit pivots, constant term +-1"
            )
        inv = TruncatedSeries(pivot).inverse().coeffs
        inverses.append(inv)
        row_i = rows[i]
        for j in range(i + 1, n):
            c = classes[j][i]
            row_j = rows[j]
            factor = product_coeffs(row_j[i], inv, len(row_j[i]))
            for m in range(i + 1, n):
                # t**c f times t**b g is t**((c + b) % period) times
                # u**carry f g, where the carry is 1 when c + b >= period.
                carry = c + classes[i][m] >= period
                product = product_coeffs(factor, row_i[m], len(row_j[m]), carry)
                row_j[m] = [x - y for x, y in zip(row_j[m], product)]
            if vec:
                product = _dense_product(c, factor, vec[i], period)
                vec[j] = [x - y for x, y in zip(vec[j], product)]
    return rows, inverses, vec


def series_determinant(matrix: SeriesMatrix) -> TruncatedSeries:
    """Exact determinant by elimination; every pivot must be a unit.

    The determinant is the product of the pivots on the diagonal of the
    triangular form.  They lie in class 0 of the matrix grading, so the
    product is taken in ``u = t**period`` and expanded back to ``t``.
    """
    rows, _, _ = _eliminate(matrix)
    det = TruncatedSeries(rows[0][0])
    for i in range(1, matrix.n):
        det = det * TruncatedSeries(rows[i][i])
    coeffs = [0] * matrix.order
    coeffs[:: matrix.grading[0]] = det.coeffs
    return TruncatedSeries(coeffs)


def _circulant_block(series: TruncatedSeries, period: int, labels) -> SeriesMatrix:
    """Rows and columns ``labels`` of the period circulant of ``series``:
    entry ``(a, b)`` is the ``shift(a, b)`` multisection, graded
    ``(period, labels)``, and each distinct class is built once."""
    check_int("circulant size", period, 1)
    shifts = [[(b - a) % period for b in labels] for a in labels]
    pieces = {c: series.multisection(period, c) for c in set().union(*shifts)}
    rows = [[pieces[c] for c in row] for row in shifts]
    return SeriesMatrix(rows, (period, labels))


def build_system(dim: int, restriction: PeriodicSet, order: int):
    """The coefficient matrix and right-hand side of the return decomposition.

    Rows and columns follow ``restriction.residues``, which also grade the
    matrix with ``restriction.period``.  Entry ``(r, q)`` is the
    ``shift(r, q)`` multisection of the reciprocal loop series.  Diagonal
    entries have constant term 1 and off-diagonal entries constant term 0,
    which is what lets the solver skip pivot search.
    """
    model = LoopModel(dim, order)
    matrix = _circulant_block(
        model.reciprocal_loop_gf(), restriction.period, restriction.residues
    )
    return matrix, [model.escaping_gf()] * restriction.size


def solve_linear_system(
    matrix: SeriesMatrix, rhs: Sequence[TruncatedSeries]
) -> list[TruncatedSeries]:
    """Gaussian elimination over the series ring, no pivot search.

    Every pivot must be a unit (constant term +-1); for the systems built
    here the diagonal keeps constant term 1 throughout elimination.
    """
    n, order = matrix.n, matrix.order
    if len(rhs) != n:
        raise ValueError("right-hand side length does not match the matrix")
    if any(series.order != order for series in rhs):
        raise ValueError("right-hand side order does not match the matrix")
    rows, inverses, vec = _eliminate(matrix, rhs)
    period, labels = matrix.grading
    out: list[list | None] = [None] * n
    for i in reversed(range(n)):
        acc = vec[i]
        for m in range(i + 1, n):
            shift = (labels[m] - labels[i]) % period
            product = _dense_product(shift, rows[i][m], out[m], period)
            acc = [x - y for x, y in zip(acc, product)]
        out[i] = _dense_product(0, inverses[i], acc, period)
    return [TruncatedSeries(coeffs) for coeffs in out]


def solve_complement(
    dim: int, restriction: PeriodicSet, order: int
) -> list[TruncatedSeries]:
    """Walk series per admissible residue, solved over the forbidden ones.

    Entry ``(s, q)`` of ``B_SS`` is the ``shift(s, q)`` multisection of the
    loop series; ``z = B_SS^-1 1_S`` is subtracted from ``1`` through the
    ``shift(r, s)`` multisections and the result divided by
    ``1 - 4**d t``.  The forbidden residues are enumerated, so the cost
    grows with the period.
    """
    check_dim_and_order(dim, order)
    period, residues, weight = restriction.period, restriction.residues, 4**dim
    admissible = set(residues)
    forbidden = [s for s in range(period) if s not in admissible]
    one = [1] + [0] * (order - 1)
    if not forbidden:
        return [geometric_sum(one, weight)] * len(residues)
    loop = LoopModel(dim, order).loop_gf()
    z = solve_linear_system(
        _circulant_block(loop, period, forbidden),
        [TruncatedSeries(one)] * len(forbidden),
    )
    out = []
    for r in residues:
        acc = one
        for s, zs in zip(forbidden, z):
            c = (s - r) % period
            product = _dense_product(c, loop.coeffs[c::period], zs.coeffs, period)
            acc = [x - y for x, y in zip(acc, product)]
        out.append(geometric_sum(acc, weight))
    return out


class RestrictedPathSolution:
    """Solved walk series per admissible start residue."""

    __slots__ = ("series",)

    def __init__(self, series: dict[int, TruncatedSeries]):
        self.series = series


def check_walk_series(residue: int, series: TruncatedSeries) -> None:
    """Raise ArithmeticError unless ``series`` can count walks: every
    coefficient nonnegative and the constant term 1."""
    for index, c in enumerate(series.coeffs):
        if c < 0 or (index == 0 and c != 1):
            raise ArithmeticError(
                f"restricted-walk series for residue {residue} has bad"
                f" coefficient {c!r} at index {index}: expected a nonnegative"
                " int, and 1 at index 0"
            )


_solutions: OrderedDict = OrderedDict()


def _solution_tuple(dim: int, restriction: PeriodicSet, order: int):
    """Solved series per admissible residue, through a bounded LRU cache.

    The cache keeps the highest order solved per ``(dim, restriction)`` and
    answers a lower order by truncation, which is exact because every series
    operation is causal.  A cold solve takes the smaller side: the forbidden
    residues when there are fewer of them than admissible ones, counted
    without enumerating them, and the admissible residues otherwise.
    """
    # Checked before the lookup: a cached prefix would accept a negative or
    # boolean order, and 2.0 or True would find the entry of 2 or 1.
    check_dim_and_order(dim, order)
    key = (dim, restriction)
    cached = _solutions.get(key)
    if cached is not None and cached[0].order >= order:
        _solutions.move_to_end(key)
        if cached[0].order == order:
            return cached
        return tuple(TruncatedSeries(s.coeffs[:order]) for s in cached)
    if restriction.period - restriction.size < restriction.size:
        solution = solve_complement(dim, restriction, order)
    else:
        solution = solve_linear_system(*build_system(dim, restriction, order))
    for residue, series in zip(restriction.residues, solution):
        check_walk_series(residue, series)
    _solutions[key] = solved = tuple(solution)
    _solutions.move_to_end(key)
    if len(_solutions) > SOLUTION_CACHE_SIZE:
        _solutions.popitem(last=False)
    return solved


def solve_restricted(dim: int, restriction: PeriodicSet, order: int) -> RestrictedPathSolution:
    """Solve the system once per (dim, restriction); lower orders are served
    from the cached prefix."""
    solved = _solution_tuple(dim, restriction, order)
    return RestrictedPathSolution(dict(zip(restriction.residues, solved)))


def restricted_path_gf(
    dim: int, restriction: PeriodicSet, start_residue: int, order: int
) -> TruncatedSeries:
    """Series counting restricted walks started at twice an admissible residue.

    The coefficient at ``t**j`` counts walks of length ``2j`` that begin on
    the time axis at time ``2 * start_residue`` and touch the space origin at
    admissible times only.
    """
    # 2.0 and True would be answered as residues 0 and 1, and '0' % period
    # is string formatting.
    check_int("start residue", start_residue)
    reduced = start_residue % restriction.period
    if reduced not in restriction.residues:
        raise ValueError(
            f"start residue {start_residue} is not admissible for {restriction}"
        )
    return solve_restricted(dim, restriction, order).series[reduced]
