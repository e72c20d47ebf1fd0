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
``solve_linear_system``, ``series_determinant`` and ``solve_complement``,
stores each entry as its ``u``-coefficients only, about ``order / period``
of them.  Pivots are never inverted: each elimination factor and each step
of back substitution is an exact quotient by a pivot,
``series.quotient_coeffs``, which costs what an inverse would.  The kernel
keeps every factor, negated, in the slot below the diagonal that it clears,
so a right-hand side is reduced afterwards by a forward pass through the
kept factors, and every update adds a product into the entry in place with
``series.add_product_coeffs``.  A matrix without structure has the trivial
grading ``(1, (0, ..., 0))``, under which the same kernel is plain dense
elimination.

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

``solve_complement`` takes the transposed solve ``W = B_SS^-T B_RS^T``,
so that entry ``r`` of ``B_RS B_SS^-1 1_S`` is the sum over ``s`` of
``W_sr``.  ``W_sr`` lives on the single class ``s - r``, so the parts
interleave in ``P_r`` without any addition.  ``B_SS^T`` is rows and
columns ``-S`` of the period circulant of ``L``, and column ``r`` of
``B_RS^T`` is column ``-r`` of the same circulant on rows ``-S``:
``_circulant_block`` builds the block and the one kernel factors it.  Each
residue is its own right-hand side (the transposition principle; Bostan,
Lecerf and Schost, "Tellegen's principle into practice", ISSAC 2003), so
``_Factored`` keeps the factors and solves one residue by a forward pass of
its column and back substitution in ``u``, without touching the others.
No series is inverted, no product runs over all ``order`` coefficients, and
with one forbidden residue each walk series is a single division.  A full
set, ``S`` empty, needs no solve at all and gives ``4**(d j)``.

``_solution_tuple`` takes whichever route ``_route_costs`` rates cheaper.
That is a closed-form count, in ``dim``, ``|R|``, ``|S|``, the period and
the order, of the coefficient products, product calls and slice passes of
each route.  It includes the inversion of the loop series that the
reciprocal route pays in dimensions 2 to 4 unless ``loops`` already holds
``1/L`` at that order, so the route may depend on that cache; the
coefficients do not.  On the complement route the cache entry keeps the
factored block and solves each residue the first time it is asked, so a
caller that reads one start residue of a set with more admissible residues
than forbidden ones pays for that residue only, and reading every residue
one by one costs what one all-residue solve does.  A set with no more
admissible residues than forbidden ones, where the factorization is at
least a third of the work, is completed by its first read.
"""

from collections import OrderedDict
from collections.abc import Sequence

from .errors import ResourceLimitError, check_int
from .loops import MAX_ORDER, LoopModel, check_dim_and_order, geometric_sum, has_reciprocal
from .periodic import PeriodicSet
from .series import TruncatedSeries, add_product_coeffs, quotient_coeffs

# Entries kept by _solution_tuple, least recently used dropped first.
SOLUTION_CACHE_SIZE = 32

# Weights of _route_costs, in the interpreter cost of one coefficient
# product: a product call or slice pass, an element of a dense slice pass,
# and the coefficient length ``dim * order`` at which big-integer arithmetic
# doubles the cost of a product.  Fitted on timed solves of both routes.
CALL_COST = 10
ELEMENT_COST = 0.2
BIG_LENGTH = 200


class SeriesMatrix:
    """A square matrix of TruncatedSeries entries sharing one order.

    ``grading = (period, labels)`` labels every column, and row ``i`` like
    column ``i``: entry ``(i, j)`` is supported on exponents congruent to
    ``labels[j] - labels[i]`` mod ``period``.  The default is the trivial
    grading ``(1, (0, ..., 0))``, which every matrix has; a declared grading
    is checked once per distinct series and class.
    """

    __slots__ = ("rows", "grading")

    def __init__(self, rows, grading=None):
        grid = tuple(tuple(row) for row in rows)
        if not grid:
            raise ValueError("matrix needs at least one row")
        width = len(grid)
        if any(len(row) != width for row in grid):
            raise ValueError("matrix must be square")
        period, labels = (1, (0,) * width) if grading is None else grading
        check_int("grading period", period, 1)
        labels = tuple(labels)
        for label in labels:
            check_int("grading label", label)
        if len(labels) != width:
            raise ValueError("grading needs one label per column")
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


def _add_dense_product(out: list, shift: int, f, dense: list, period: int) -> None:
    """Add ``t**shift * f(t**period)`` times a dense coefficient list of the
    length of ``out`` to ``out``: one slice pass per nonzero coefficient of
    ``f``."""
    for k, fk in enumerate(f):
        if fk:
            e = shift + period * k
            out[e:] = [x + fk * y for x, y in zip(out[e:], dense)]


def _eliminate(matrix: SeriesMatrix) -> list:
    """Forward elimination over the series ring, no pivot search, keeping
    the factors.

    Entry ``(a, b)`` is kept as its ``u``-coefficients, ``coeffs[c::period]``
    with ``c = (labels[b] - labels[a]) % period``; every update stays inside
    its class.  Each factor is an exact quotient by the pivot, so no pivot
    is inverted.  It is stored negated in the slot it clears, below the
    diagonal, so every update here and in a later forward pass adds a
    product in place.

    Returns the rows of the factored matrix as coefficient lists in ``u``:
    the reduced upper triangle, diagonal included, and below it the negated
    factors.  A right-hand side ``y`` is reduced by adding entry ``(j, i)``
    times ``y_i`` to ``y_j`` for ``i`` ascending.  The pivots, and so the
    determinant, lie in class 0.  Every pivot must be a unit of ``Z[[u]]``,
    constant term +-1.
    """
    period, labels = matrix.grading
    classes = [[(lb - la) % period for lb in labels] for la in labels]
    rows = [
        [list(entry.coeffs[c::period]) for entry, c in zip(row, row_classes)]
        for row, row_classes in zip(matrix.rows, classes)
    ]
    n = matrix.n
    for i in range(n):
        pivot = rows[i][i]
        if pivot[0] != 1 and pivot[0] != -1:
            raise ArithmeticError(
                f"pivot {i} has constant term {pivot[0]}: elimination needs"
                " unit pivots, constant term +-1"
            )
        negated = [-x for x in pivot]
        row_i = rows[i]
        for j in range(i + 1, n):
            c = classes[j][i]
            row_j = rows[j]
            row_j[i] = factor = quotient_coeffs(row_j[i], negated, len(row_j[i]))
            for m in range(i + 1, n):
                # t**c f times t**b g is t**((c + b) % period) times
                # u**carry f g, where the carry is 1 when c + b >= period.
                add_product_coeffs(row_j[m], factor, row_i[m], c + classes[i][m] >= period)
    return rows


def series_determinant(matrix: SeriesMatrix) -> TruncatedSeries:
    """Exact determinant by elimination; every pivot must be a unit.

    The determinant is the product of the pivots on the diagonal of the
    triangular form.  They lie in class 0 of the matrix grading, so the
    product is taken in ``u = t**period`` and expanded back to ``t``.
    """
    rows = _eliminate(matrix)
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
    labels = tuple(labels)
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
    here the diagonal keeps constant term 1 throughout elimination.  The
    right-hand side is dense: a forward pass through the kept factors
    reduces it, and back substitution divides it class by class.
    """
    n, order = matrix.n, matrix.order
    if len(rhs) != n:
        raise ValueError("right-hand side length does not match the matrix")
    if any(series.order != order for series in rhs):
        raise ValueError("right-hand side order does not match the matrix")
    rows = _eliminate(matrix)
    period, labels = matrix.grading
    vec = [list(series.coeffs) for series in rhs]
    for i in range(n):
        for j in range(i + 1, n):
            _add_dense_product(vec[j], (labels[i] - labels[j]) % period, rows[j][i], vec[i], period)
    out: list[list | None] = [None] * n
    for i in reversed(range(n)):
        # (vec_i - sum_m U_im x_m) / U_ii, taken as the negated numerator
        # over the negated pivot, so that every product adds.
        acc = [-x for x in vec[i]]
        for m in range(i + 1, n):
            _add_dense_product(acc, (labels[m] - labels[i]) % period, rows[i][m], out[m], period)
        # The pivot is a series in u = t**period: divide class by class.
        # Only classes below the order occur, however large the period.
        negated = [-x for x in rows[i][i]]
        for c in range(min(period, order)):
            part = acc[c::period]
            acc[c::period] = quotient_coeffs(part, negated, len(part))
        out[i] = acc
    return [TruncatedSeries(coeffs) for coeffs in out]


class _Factored:
    """The factored block ``B_SS^T`` of the complement route of one
    ``(dim, restriction, order)``: ``solve(r)`` is the walk series of an
    admissible residue ``r``, from its own column alone.

    Column ``r`` of ``B_RS^T`` holds class ``s - r`` of the loop series on
    the row of each forbidden ``s``, so it is read off the loop series when
    asked.  A forward pass through the kept factors reduces it, and back
    substitution divides each class part by its pivot.  The forbidden
    residues are enumerated, so the cost grows with the period, and more
    than ``MAX_ORDER`` of them are refused.
    """

    __slots__ = ("period", "order", "weight", "residues", "forbidden", "loop", "rows", "negated")

    def __init__(self, dim: int, restriction: PeriodicSet, order: int):
        check_dim_and_order(dim, order)
        period, self.residues = restriction.period, restriction.residues
        k = period - restriction.size
        if k > MAX_ORDER:
            raise ResourceLimitError(f"{k} forbidden residues exceed the bound {MAX_ORDER}")
        admissible = set(self.residues)
        self.forbidden = [s for s in range(period) if s not in admissible]
        self.period, self.order, self.weight = period, order, 4**dim
        self.loop, self.rows, self.negated = (), [], []
        if k:
            loop = LoopModel(dim, order).loop_gf()
            self.loop = loop.coeffs
            self.rows = _eliminate(
                _circulant_block(loop, period, [-s % period for s in self.forbidden])
            )
            self.negated = [[-x for x in row[i]] for i, row in enumerate(self.rows)]

    def solve(self, r: int) -> TruncatedSeries:
        """``P_r``: ``1 - sum_s W_sr`` over ``1 - 4**d t``, with ``W_sr`` on
        class ``s - r``.  A full set needs no solve."""
        period, forbidden, rows = self.period, self.forbidden, self.rows
        column = [list(self.loop[(s - r) % period :: period]) for s in forbidden]
        for i, s in enumerate(forbidden):
            for j in range(i + 1, len(forbidden)):
                # Classes q - s and s - r add to q - r, one power of u
                # higher when their sum passes the period.
                carry = (forbidden[j] - s) % period + (s - r) % period >= period
                add_product_coeffs(column[j], rows[j][i], column[i], carry)
        acc = [1] + [0] * (self.order - 1)
        for i in reversed(range(len(forbidden))):
            # -W_sr: the reduced entry plus row i times the kept -W_qr, over
            # the negated pivot.
            s, part = forbidden[i], column[i]
            for m in range(i + 1, len(forbidden)):
                q = forbidden[m]
                carry = (s - q) % period + (q - r) % period >= period
                add_product_coeffs(part, rows[i][m], column[m], carry)
            column[i] = quotient_coeffs(part, self.negated[i], len(part))
            acc[(s - r) % period :: period] = column[i]
        return geometric_sum(acc, self.weight)


def solve_complement(
    dim: int, restriction: PeriodicSet, order: int
) -> list[TruncatedSeries]:
    """Walk series per admissible residue, solved over the forbidden ones.

    ``P_R = (1_R - B_RS B_SS^-1 1_S) / (1 - 4**d t)`` with ``B`` the period
    circulant of the loop series.  Entry ``r`` of ``B_RS B_SS^-1 1_S`` is
    the sum over ``s`` of ``W_sr``, with ``W = B_SS^-T B_RS^T``, and
    ``W_sr`` lives on the single class ``s - r``: the parts interleave in
    ``P_r`` and need no additions.  ``_Factored`` factors ``B_SS^T`` once
    and keeps the factors; each residue is then its own column of
    ``B_RS^T``, one forward pass and one back substitution, solved one
    after another from the same factors.  With one forbidden residue a walk
    series costs one division of length ``order / period`` and no product.
    """
    factored = _Factored(dim, restriction, order)
    return [factored.solve(r) for r in restriction.residues]


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
    ``k (k-1) / 2`` products and ``k`` quotients in back substitution.  The
    count past the float range raises ``OverflowError``."""
    entries = k * (k - 1) * (1 + n) / 2 + (k - 1) * k * (2 * k - 1) / 6
    return entries + (n * k * (k - 1) / 2 + n * k)


def _route_costs(dim: int, restriction: PeriodicSet, order: int) -> tuple:
    """Counted cost ``(reciprocal, complement)`` of the two routes of
    ``_solution_tuple``; it reads no clock.

    With ``n`` admissible and ``k`` forbidden residues an entry has about
    ``m = order / period`` coefficients in ``u``, and a product of two
    entries takes ``m**2 / 2`` coefficient products.

    - The reciprocal route eliminates ``n`` rows, ``(n**3 + 2 n) / 3`` entry
      products each with a pass of ``m`` elements, and takes ``n**2``
      products with a dense right-hand side: ``m`` slice passes of up to
      ``order`` elements each, and one pass of ``order`` elements.  In
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
    k, m = period - n, order / period
    big = (dim * order / BIG_LENGTH) ** 2

    def cost(products, calls, elements):
        return products * (1 + big) + CALL_COST * calls + elements * (ELEMENT_COST + big)

    entries = (n**3 + 2 * n) / 3
    products, calls = entries * m * m / 2, entries + n * n * m
    if not has_reciprocal(dim, order):
        products, calls = products + order * order / 2, calls + order
    reciprocal = cost(products, calls, m * entries + n * n * order * (m / 2 + 1))
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
    """Entry of the solution cache for one ``(dim, restriction)``: its
    order, its route, the walk series solved so far by residue and, while
    a residue is missing, the factored block of the complement route that
    solves it.  The reciprocal route solves every residue at once."""

    __slots__ = ("order", "route", "series", "factored")

    def __init__(self, order: int, route: str, series: dict, factored: _Factored | None = None):
        self.order, self.route, self.series, self.factored = order, route, series, factored

    def walk_series(self, residue: int) -> TruncatedSeries:
        """The series of an admissible residue: kept, or solved from the
        factors and checked by ``check_walk_series`` before it is kept.  A
        complete entry drops its factors."""
        series = self.series.get(residue)
        if series is None:
            series = self.factored.solve(residue)
            check_walk_series(residue, series)
            self.series[residue] = series
            if len(self.series) == len(self.factored.residues):
                self.factored = None
        return series


_solutions: OrderedDict = OrderedDict()


def _solution_tuple(dim: int, restriction: PeriodicSet, order: int, residues=None) -> tuple:
    """Solved series of ``residues``, by default every admissible residue,
    through a bounded LRU cache of ``_Solved`` entries.

    An entry keeps the highest order solved per ``(dim, restriction)`` and
    answers a lower order by truncation, which is exact because every series
    operation is causal; a higher order solves again and replaces it.  A
    cold solve takes the route that ``_route_costs`` rates cheaper for the
    whole entry, the complement route over the forbidden residues or the
    reciprocal route over the admissible ones; the estimate counts both
    sides without enumerating them, and a tie goes to the reciprocal route.
    The reciprocal route solves every residue at once.  The complement
    route keeps the factored block and solves a residue the first time it
    is asked, by one forward pass and one back substitution, with no new
    elimination.  A set that admits no more residues than it forbids is
    completed by its first read instead: factoring the block, about
    ``k**3 / 3`` entry operations, is then at least a third of the ``n k**2``
    that the residues add together, so the first read costs at most four
    times what its own residue would, and every later read is a hit.  Every
    series passes ``check_walk_series`` before it is kept.
    """
    # Checked before the lookup: a cached prefix would accept a negative or
    # boolean order, and 2.0 or True would find the entry of 2 or 1.
    check_dim_and_order(dim, order)
    key = (dim, restriction)
    entry = _solutions.get(key)
    if entry is None or entry.order < order:
        reciprocal, complement = _route_costs(dim, restriction, order)
        if complement < reciprocal:
            entry = _Solved(order, "complement", {}, _Factored(dim, restriction, order))
            if 2 * restriction.size <= restriction.period:
                for residue in restriction.residues:
                    entry.walk_series(residue)
        else:
            solved = solve_linear_system(*build_system(dim, restriction, order))
            for residue, series in zip(restriction.residues, solved):
                check_walk_series(residue, series)
            entry = _Solved(order, "reciprocal", dict(zip(restriction.residues, solved)))
        _solutions[key] = entry
    _solutions.move_to_end(key)
    if len(_solutions) > SOLUTION_CACHE_SIZE:
        _solutions.popitem(last=False)
    out = []
    for residue in restriction.residues if residues is None else residues:
        series = entry.walk_series(residue)
        out.append(series if series.order == order else TruncatedSeries(series.coeffs[:order]))
    return tuple(out)


def solve_restricted(dim: int, restriction: PeriodicSet, order: int) -> RestrictedPathSolution:
    """Walk series of every admissible residue, through the cache of
    ``_solution_tuple``; lower orders are served from the cached prefix."""
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
    return _solution_tuple(dim, restriction, order, (reduced,))[0]
