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
mod the period, so it is ``t**c`` times a series in ``u = t**period``.  The
matrix is therefore a graded block, a ``SeriesMatrix``: rows and columns
labelled by residues, one class table ``classes[i][j] = (labels[j] -
labels[i]) % period``, and each entry stored as its ``u``-coefficients
only, about ``order / period`` of them.  ``_circulant_block`` builds it by
slicing the series once per class, so the grading holds by construction
and is never checked at run time.  Elimination keeps the grading, so the
one kernel ``_eliminate``, shared by ``solve_linear_system``,
``series_determinant`` and ``_Solved``, works on ``u``-coefficients
throughout.  Pivots are never inverted: each elimination
factor and each step of back substitution is one exact quotient by a
pivot, ``series.quotient_coeffs``, which costs what an inverse would.  The
kernel keeps every pivot negated on the diagonal and every factor negated
in the slot below the diagonal that it clears, so a right-hand side is
reduced afterwards by a forward pass through the kept factors, and every
update adds a product into the entry in place.

Over all residues write ``C(f)`` for the matrix with entry ``(r, q)`` equal
to ``multisection(f, period, shift(r, q))``.  Classes add under
multiplication, so ``C(f) C(g) = C(f g)``, and ``A = C(1/L)`` and ``B =
C(L)`` are inverse to each other.  The rows of ``A`` sum to ``1/L``, so
``E_inf = A 1 / (1 - 4**d t)`` with ``1`` the all-ones vector, and with ``x
= (1 - 4**d t) P`` the equations for the admissible residues ``R`` read

    A_RR x_R = A_RR 1_R + A_RS 1_S.

The reciprocal route solves ``z = A_RR^-1 A_RS 1_S`` and takes ``P_R = (1_R
+ z) / (1 - 4**d t)``.  Entry ``r`` of ``A_RS 1_S`` is ``1/L`` on the ``k =
|S|`` classes ``S - r``, and entry ``(r, q)`` of ``A_RR`` moves class ``S -
q`` onto ``S - r``, so entry ``r`` of ``z`` stays on those ``k`` classes
from start to end: ``build_system`` and ``solve_linear_system`` keep only
its coefficients there, in ``t`` order, and each product of the solve is
one slice pass ``_add_dense_product`` over about ``k order / period`` of
them.  Block ``(R, S)`` of ``A B = I`` is ``A_RR B_RS + A_RS B_SS = 0``,
hence ``A_RR^-1 A_RS = -B_RS B_SS^-1`` (Jacobi's complementary minors), and

    P_R = (1_R - B_RS B_SS^-1 1_S) / (1 - 4**d t).

The complement route is the mirror image over the forbidden residues ``S``.
It takes the transposed solve ``W = B_SS^-T B_RS^T``, so that entry ``r`` of
``B_RS B_SS^-1 1_S`` is the sum over ``s`` of ``W_sr``.  ``W_sr`` lives on
the single class ``s - r``, so the parts interleave in ``P_r`` without any
addition.  ``B_SS^T`` is rows and columns ``-S`` of the period circulant of
``L``, and column ``r`` of ``B_RS^T`` is column ``-r`` of the same
circulant on rows ``-S``: ``_circulant_block`` builds the block and the one
kernel factors it.  Each residue is its own right-hand side (the
transposition principle; Bostan, Lecerf and Schost, "Tellegen's principle
into practice", ISSAC 2003), so the cache entry ``_Solved`` keeps the
factors and solves one residue by a forward pass of its column and back
substitution in ``u``, without touching the others.  With ``n = |R|``, the
reciprocal route takes about ``n**3 / 3 + n**2 k`` entry operations and the
complement route ``k**3 / 3 + n k**2``.  Neither inverts a series or runs
a product over all ``order`` coefficients, and with one forbidden residue
each walk series is a single division.  A full set, ``S`` empty, needs no
solve at all and gives ``4**(d j)``.

``_solution_entry`` keeps one ``_Solved`` entry per solved set and chooses
the route of a cold solve by the counted cost of ``_route_costs``; its
docstring states the cache rule.
"""

from bisect import bisect_left
from collections import OrderedDict
from collections.abc import Sequence

from .errors import ResourceLimitError, check_int
from .loops import MAX_ORDER, LoopModel, check_dim_and_order, geometric_sum, has_reciprocal
from .periodic import PeriodicSet
from .series import TruncatedSeries, add_product_coeffs, quotient_coeffs

# Entries kept by _solution_entry, least recently used dropped first.
SOLUTION_CACHE_SIZE = 32

# Weights of _route_costs, in the interpreter cost of one coefficient
# product: a product call or slice pass, an element of a dense slice pass,
# and the coefficient length ``dim * order`` at which big-integer arithmetic
# doubles the cost of a product.  Fitted on timed solves of both routes.
CALL_COST = 10
ELEMENT_COST = 0.2
BIG_LENGTH = 200


class SeriesMatrix:
    """A graded square block: rows and columns carry labels mod ``period``,
    and entry ``(i, j)`` is ``t**c`` times a series in ``u = t**period``,
    ``c = classes[i][j] = (labels[j] - labels[i]) % period``, the one class
    table.  ``rows[i][j]`` is the tuple of its ``u``-coefficients below
    ``t**order``, ``coeffs[c::period]`` of the entry in ``t``.  Only
    ``_circulant_block`` builds one from a series, so every entry lies in
    its class by construction; ``circulant.quarter`` and the substituted
    quarter of a staircase record reuse its tuples.
    """

    __slots__ = ("rows", "classes", "period", "order")

    def __init__(self, rows: tuple, classes: tuple, period: int, order: int):
        self.rows, self.classes, self.period, self.order = rows, classes, period, order

    @property
    def n(self) -> int:
        return len(self.rows)


def _add_dense_product(out: list, shift: int, f, dense: list, stride: int) -> None:
    """Add ``f(u)`` times a coefficient list of the length of ``out`` to
    ``out``, where one power of ``u`` moves ``stride`` indices and the
    product starts ``shift`` indices in: one slice pass per nonzero
    coefficient of ``f``."""
    for k, fk in enumerate(f):
        if fk:
            e = shift + stride * k
            out[e:] = [x + fk * y for x, y in zip(out[e:], dense)]


def _eliminate(matrix: SeriesMatrix) -> list:
    """Forward elimination over the series ring, no pivot search, keeping
    the factors.

    Entry ``(i, j)`` lies in class ``matrix.classes[i][j]``.  Each entry is
    copied into a fresh list of its ``u``-coefficients and the matrix is
    never changed, because blocks share their tuples: a quarter with its
    circulant, and the substituted quarter of a staircase record with the
    other two.  A product of classes ``a, b < period`` lies in class
    ``c = (a + b) % period``; ``a + b`` reaches the period,
    carrying one power of ``u``, exactly when ``a > c``: the one carry rule.
    Each factor is an exact quotient by the pivot, so no pivot is inverted.
    The pivot is stored negated on the diagonal and the factor negated in
    the slot it clears, so every update here, in a later forward pass and in
    back substitution adds a product in place.

    Returns the rows of the factored matrix as coefficient lists in ``u``:
    the reduced upper triangle with the negated pivots on its diagonal, and
    below it the negated factors.  A right-hand side ``y`` is reduced by
    adding entry ``(j, i)`` times ``y_i`` to ``y_j`` for ``i`` ascending.
    The pivots, and so the determinant, lie in class 0.  Every pivot must
    be a unit of ``Z[[u]]``, constant term +-1.
    """
    classes = matrix.classes
    rows = [[list(entry) for entry in row] for row in matrix.rows]
    n = matrix.n
    for i in range(n):
        pivot = rows[i][i]
        if pivot[0] != 1 and pivot[0] != -1:
            raise ArithmeticError(
                f"pivot {i} has constant term {pivot[0]}: elimination needs"
                " unit pivots, constant term +-1"
            )
        row_i = rows[i]
        row_i[i] = negated = [-x for x in pivot]
        for j in range(i + 1, n):
            row_j, classes_j = rows[j], classes[j]
            row_j[i] = factor = quotient_coeffs(row_j[i], negated, len(row_j[i]))
            for m in range(i + 1, n):
                # Classes (j, i) and (i, m) add to class (j, m).
                add_product_coeffs(row_j[m], factor, row_i[m], classes_j[i] > classes_j[m])
    return rows


def series_determinant(matrix: SeriesMatrix) -> TruncatedSeries:
    """Exact determinant by elimination; every pivot must be a unit.

    The determinant is the product of the pivots, which ``_eliminate``
    keeps negated on the diagonal: an odd size negates that product once.
    The pivots lie in class 0, so the product is taken in ``u =
    t**period`` and expanded back to ``t``.
    """
    rows = _eliminate(matrix)
    det = TruncatedSeries(rows[0][0])
    for i in range(1, matrix.n):
        det = det * TruncatedSeries(rows[i][i])
    coeffs = [0] * matrix.order
    coeffs[:: matrix.period] = [-x for x in det.coeffs] if matrix.n % 2 else det.coeffs
    return TruncatedSeries(coeffs)


def _circulant_block(series: TruncatedSeries, period: int, labels) -> SeriesMatrix:
    """Rows and columns ``labels`` of the period circulant of ``series``:
    entry ``(a, b)`` is the ``shift(a, b)`` multisection, kept as its
    ``u``-coefficients.  Each distinct class is sliced once, so the entries
    of one class share one tuple."""
    check_int("circulant size", period, 1)
    classes = tuple(tuple((b - a) % period for b in labels) for a in labels)
    pieces = {c: series.coeffs[c::period] for c in set().union(*classes)}
    rows = tuple(tuple(pieces[c] for c in row) for row in classes)
    return SeriesMatrix(rows, classes, period, series.order)


def build_system(dim: int, restriction: PeriodicSet, order: int):
    """The reciprocal route's system ``A_RR z = A_RS 1_S``.

    Rows and columns follow ``restriction.residues``, which also grade the
    matrix with ``restriction.period``.  Entry ``(r, q)`` is the
    ``shift(r, q)`` multisection of the reciprocal loop series.  Diagonal
    entries have constant term 1 and off-diagonal entries constant term 0,
    which is what lets the solver skip pivot search.  Entry ``r`` of the
    right-hand side is ``1/L`` on the classes ``c`` with ``r + c``
    forbidden, taken below ``min(period, order)`` from the restriction, in
    the form ``solve_linear_system`` takes.
    """
    reciprocal = LoopModel(dim, order).reciprocal_loop_gf()
    period, residues = restriction.period, restriction.residues
    admissible = set(residues)
    rhs = [
        ([c for c in range(min(period, order)) if (r + c) % period not in admissible],
         [x for e, x in enumerate(reciprocal.coeffs) if (r + e) % period not in admissible])
        for r in residues
    ]
    return _circulant_block(reciprocal, period, residues), rhs


def solve_linear_system(matrix: SeriesMatrix, rhs: Sequence) -> list[list]:
    """Gaussian elimination over the series ring, no pivot search.

    Every pivot must be a unit (constant term +-1); for the systems built
    here the diagonal keeps constant term 1 throughout elimination.  Entry
    ``i`` of the right-hand side is a pair: its ``k`` sorted classes below
    ``min(period, order)``, and its coefficients on them in ``t`` order,
    that of ``t**(c_a + period m)`` at index ``a + k m``; a dense series
    has all classes.  Entry ``(j, i)`` of the matrix must move the classes
    of entry ``i`` onto those of entry ``j``, as in ``build_system``.  The
    move rotates the sorted list by the classes of entry ``j`` below the
    class of ``(j, i)``, the images that carried, so each product is one
    ``_add_dense_product`` with stride ``k``.  A forward pass through the
    kept factors reduces the negated right-hand side, and back substitution
    adds into each reduced entry and divides it once by its negated pivot,
    placed at every ``k``-th index.  Returns the solution's coefficients on
    the classes of the right-hand side.
    """
    n, order, period = matrix.n, matrix.order, matrix.period
    if len(rhs) != n:
        raise ValueError("right-hand side length does not match the matrix")
    if any(len(coeffs) != sum(len(range(c, order, period)) for c in support)
           for support, coeffs in rhs):
        raise ValueError("right-hand side order does not match the matrix")
    rows = _eliminate(matrix)
    supports = [support for support, _ in rhs]
    shifts = [[bisect_left(supports[j], c) for c in row] for j, row in enumerate(matrix.classes)]
    # The negated right-hand side, so that back substitution divides by the
    # negated pivots as they stand and every product adds.
    vec = [[-x for x in coeffs] for _, coeffs in rhs]
    for i in range(n):
        for j in range(i + 1, n):
            _add_dense_product(vec[j], shifts[j][i], rows[j][i], vec[i], len(supports[j]))
    for i in reversed(range(n)):
        # (y_i - sum_m U_im x_m) / U_ii as -y_i + sum_m U_im x_m over the
        # negated pivot, a series in u placed back at every k-th index.
        k = len(supports[i])
        for m in range(i + 1, n):
            _add_dense_product(vec[i], shifts[i][m], rows[i][m], vec[m], k)
        if vec[i]:
            pivot = [0] * (k * len(rows[i][i]))
            pivot[::k] = rows[i][i]
            vec[i] = quotient_coeffs(vec[i], pivot, len(vec[i]))
    return vec


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


def _complement_entries(n: int, k: int) -> float:
    """Entry products and quotients of the complement route with ``n``
    admissible and ``k`` forbidden residues: factoring ``B_SS^T`` takes
    ``k (k-1) / 2`` quotients and ``(k-1) k (2k-1) / 6`` products, and each
    residue ``k (k-1) / 2`` products in the forward pass of its column and
    ``k (k-1) / 2`` products and ``k`` quotients in back substitution: in
    all ``(k**3 - k) / 3 + n k**2``.  The count past the float range raises
    ``OverflowError``."""
    return (k**3 - k) / 3 + n * k * k


def _route_costs(dim: int, restriction: PeriodicSet, order: int) -> tuple:
    """Counted cost ``(reciprocal, complement)`` of the two routes of
    ``_solution_entry``; it reads no clock.

    With ``n`` admissible and ``k`` forbidden residues an entry has about
    ``m = order / period`` coefficients in ``u``, and a product of two
    entries takes ``m**2 / 2`` coefficient products.

    - The reciprocal route is charged ``(n**3 + 2 n) / 3`` entry products
      each with a pass of ``m`` elements, and ``n**2`` products with a
      right-hand side entry on ``k`` classes: ``m`` slice passes of up to
      ``k m`` elements each, and one pass of ``k m`` elements.  It makes
      ``(n**3 - n) / 3`` graded entry quotients and products, ``n`` fewer
      than charged, and ``n (n-1)`` such products and ``n`` divisions,
      each about the work of a product, for the ``n**2`` charged.  In
      dimensions 2 to 4 it first inverts the loop series, ``order**2 / 2``
      products in ``order`` passes, unless ``loops`` already holds ``1/L``
      at this order.
    - The complement route makes the ``_complement_entries`` entry products
      and quotients of all ``n`` residues, each with a pass of ``m``
      elements.  That count splits by residue, so it is also the cost of
      reading the residues one by one.  A full set, ``k = 0``, costs
      nothing, and a count past the float range is infinite.

    Big-integer arithmetic adds ``(dim * order / BIG_LENGTH)**2`` to the
    cost of each product and each element.
    """
    n, period = restriction.size, restriction.period
    k = period - n
    # k * m as one quotient of ints, which stays below the order even for a
    # k past the float range.
    m, km = order / period, k * order / period
    big = (dim * order / BIG_LENGTH) ** 2

    def cost(products, calls, elements):
        return products * (1 + big) + CALL_COST * calls + elements * (ELEMENT_COST + big)

    entries = (n**3 + 2 * n) / 3
    products, calls = entries * m * m / 2, entries + n * n * m
    if not has_reciprocal(dim, order):
        products, calls = products + order * order / 2, calls + order
    reciprocal = cost(products, calls, m * entries + n * n * km * (m / 2 + 1))
    if not k:
        return reciprocal, 0
    try:
        entries = _complement_entries(n, k)
        return reciprocal, cost(entries * m * m / 2, entries, entries * m)
    except OverflowError:
        # Past the float range: the route would enumerate every forbidden
        # residue of a period beyond any order.
        return reciprocal, float("inf")


class _Solved:
    """Entry of the solution cache: everything solved for one
    ``(dim, restriction)`` at one order.

    ``series`` holds the walk series solved so far by residue, each checked
    by ``check_walk_series`` before it is kept.  The reciprocal route
    solves every residue at once and keeps no factors.  The complement
    route keeps the loop coefficients ``loop`` and the factored block
    ``B_SS^T``, ``rows``, solves a residue when it is first asked, and
    drops both once the last residue is in.  Its forbidden residues are
    enumerated, so the cost grows with the period, and more than
    ``MAX_ORDER`` of them are refused.
    """

    __slots__ = ("order", "series", "size", "period", "weight", "forbidden", "loop", "rows")

    def __init__(self, dim: int, restriction: PeriodicSet, order: int, complement: bool):
        self.order, self.series, self.size = order, {}, restriction.size
        self.period, self.weight = restriction.period, 4**dim
        self.loop = self.rows = None
        if not complement:
            matrix, rhs = build_system(dim, restriction, order)
            solved = solve_linear_system(matrix, rhs)
            for residue, (classes, _), z in zip(restriction.residues, rhs, solved):
                k = len(classes)
                self._keep(residue, self._from_parts((c, z[a::k]) for a, c in enumerate(classes)))
            return
        period = self.period
        k = period - restriction.size
        if k > MAX_ORDER:
            raise ResourceLimitError(f"{k} forbidden residues exceed the bound {MAX_ORDER}")
        admissible = set(restriction.residues)
        self.forbidden = [s for s in range(period) if s not in admissible]
        self.loop, self.rows = (), []
        if k:
            loop = LoopModel(dim, order).loop_gf()
            self.loop = loop.coeffs
            self.rows = _eliminate(
                _circulant_block(loop, period, [-s % period for s in self.forbidden])
            )
        if 2 * restriction.size <= period:
            for residue in restriction.residues:
                self._keep(residue, self._solve(residue))

    def _keep(self, residue: int, series: TruncatedSeries) -> TruncatedSeries:
        check_walk_series(residue, series)
        self.series[residue] = series
        if len(self.series) == self.size:
            self.loop = self.rows = None
        return series

    def _from_parts(self, parts) -> TruncatedSeries:
        """``P_r = (1 + sum of parts) / (1 - 4**d t)`` from ``(class,
        u-coefficients)`` parts on distinct classes other than 0, which
        interleave without any addition."""
        acc = [1] + [0] * (self.order - 1)
        for c, part in parts:
            acc[c :: self.period] = part
        return geometric_sum(acc, self.weight)

    def _solve(self, r: int) -> TruncatedSeries:
        """``P_r``: ``1 - sum_s W_sr`` over ``1 - 4**d t``, with ``W_sr`` on
        class ``s - r``.  Column ``r`` of ``B_RS^T`` holds class ``s - r`` of
        the loop series on the row of each forbidden ``s``.  A forward pass
        through the kept factors reduces it, and back substitution adds into
        each reduced entry and divides it once by its negated pivot, carrying
        by the rule of ``_eliminate``.  A full set needs no solve."""
        period, rows, k = self.period, self.rows, len(self.forbidden)
        classes = [(s - r) % period for s in self.forbidden]
        column = [list(self.loop[c::period]) for c in classes]
        for i in range(k):
            for j in range(i + 1, k):
                # Classes q - s and s - r add to q - r.
                add_product_coeffs(column[j], rows[j][i], column[i], classes[i] > classes[j])
        for i in reversed(range(k)):
            # -W_sr: the reduced entry plus row i times the kept -W_qr, over
            # the negated pivot.
            for m in range(i + 1, k):
                add_product_coeffs(column[i], rows[i][m], column[m], classes[m] > classes[i])
            column[i] = quotient_coeffs(column[i], rows[i][i], len(column[i]))
        return self._from_parts(zip(classes, column))

    def walk_series(self, residue: int, order: int) -> TruncatedSeries:
        """The series of an admissible residue to ``order``, at most the
        entry's: kept, or solved from the factors and kept."""
        series = self.series.get(residue)
        if series is None:
            series = self._keep(residue, self._solve(residue))
        return series if series.order == order else TruncatedSeries(series.coeffs[:order])


_solutions: OrderedDict = OrderedDict()


def _solution_entry(dim: int, restriction: PeriodicSet, order: int) -> _Solved:
    """The ``_Solved`` entry of ``(dim, restriction)`` for reads to
    ``order``, from a bounded LRU cache.

    An entry keeps the highest order solved per ``(dim, restriction)`` and
    answers a lower order by truncation, which is exact because every series
    operation is causal; a higher order solves again and replaces it.  A
    cold solve takes the route that ``_route_costs`` rates cheaper for the
    whole entry, the complement route over the forbidden residues or the
    reciprocal route over the admissible ones; the estimate counts both
    sides without enumerating them, and a tie goes to the reciprocal route.
    It includes the inversion of the loop series that the reciprocal route
    pays in dimensions 2 to 4 unless ``loops`` already holds ``1/L`` at that
    order, so the route may depend on that cache; the coefficients do not.
    On the complement route a caller that reads one start residue pays for
    that residue only, and reading every residue one by one costs what one
    all-residue solve does.  A set that admits no more residues than it
    forbids is completed at construction instead: factoring the block,
    about ``k**3 / 3`` entry operations, is then at least a third of the
    ``n k**2`` that the residues add together, so the first read costs at
    most four times what its own residue would, and every later read is a
    hit.
    """
    # Checked before the lookup: a cached prefix would accept a negative or
    # boolean order, and 2.0 or True would find the entry of 2 or 1.
    check_dim_and_order(dim, order)
    key = (dim, restriction)
    entry = _solutions.get(key)
    if entry is None or entry.order < order:
        reciprocal, complement = _route_costs(dim, restriction, order)
        entry = _solutions[key] = _Solved(dim, restriction, order, complement < reciprocal)
    _solutions.move_to_end(key)
    if len(_solutions) > SOLUTION_CACHE_SIZE:
        _solutions.popitem(last=False)
    return entry


def solve_restricted(dim: int, restriction: PeriodicSet, order: int) -> RestrictedPathSolution:
    """Walk series of every admissible residue, through the cache of
    ``_solution_entry``; lower orders are served from the cached prefix."""
    entry = _solution_entry(dim, restriction, order)
    return RestrictedPathSolution({r: entry.walk_series(r, order) for r in restriction.residues})


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
    return _solution_entry(dim, restriction, order).walk_series(reduced, order)
