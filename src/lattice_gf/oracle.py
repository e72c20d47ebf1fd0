"""Brute-force dynamic-programming walk counters, the package's ground truth.

Counts are obtained by propagating exact integer occupation numbers over a
grid of lattice sites, one axis-wise shift-add per dimension and time step.
Erasing the origin cell at a forbidden even time is the same as never
generating the offending walks, which makes restriction handling a single
assignment.

The grid is folded by the reflections ``x_i -> -x_i``: per axis it stores
the orbit sums ``f(a)`` of the sites ``+a`` and ``-a``.  The step commutes
with every reflection, so folding it is exact for any occupation numbers: it
becomes ``g(0) = f(1)``, ``g(1) = 2 f(0) + f(2)``, ``g(a) = f(a - 1) + f(a + 1)``,
a reflecting walk with a double weight out of 0 (Feller, *An Introduction to
Probability Theory and Its Applications*, vol. 1, ch. III).  The origin is an
orbit of its own and the cells sum to the total mass, so every count is read
off as on the full grid.

Only one parity class is stored: after ``s`` steps every ``a`` has the
parity of ``s``, so each axis holds ``a = 2j + s % 2`` for
``j = 0 .. K + 1`` at half-length ``K``.  The last column, ``a = 2K + 2``
or ``2K + 3``, lies past any walk of at most ``2K + 1`` steps, so it stays
empty.  The folded step then splits into two kernels: even to odd,
``o[j] = e[j] + e[j + 1]`` with a second ``e[0]`` in ``o[0]``; odd to even,
``E[0] = o[0]`` and ``E[j] = o[j - 1] + o[j]``.  The grid has ``(K + 2)**d``
cells, about ``4**d`` times fewer than the ``(4K + 3)**d`` sites of the full
grid, which the cell budget still counts.

Every walk has ``2**d`` continuations, so after each step the total mass is
``2**d`` times the total before it, taken after any erasure.  The DP checks
this mass balance at every step and raises ``ArithmeticError`` if it fails.
"""

from collections.abc import Callable
from operator import add

from .errors import ResourceLimitError, check_int
from .periodic import PeriodicSet

# Budget on cells of the unfolded grid, (4K + 3)**d; covers dimension 3 to K = 13.
DEFAULT_MAX_CELLS = 200_000
MAX_ORACLE_DIM = 3


class PathCountTable:
    """Exact walk counts indexed by half-length ``k`` (path length ``2k``)."""

    __slots__ = ("dim", "restriction", "counts")

    def __init__(self, dim: int, restriction: PeriodicSet | None, counts: tuple[int, ...]):
        self.dim = dim
        self.restriction = restriction
        self.counts = counts

    def __len__(self) -> int:
        return len(self.counts)


def _check_budget(dim: int, max_half_len: int, max_cells: int | None) -> None:
    check_int("dimension", dim, 1)
    check_int("half-length", max_half_len, 0)
    if max_cells is not None:
        check_int("max_cells", max_cells, 1)
    if dim > MAX_ORACLE_DIM:
        raise ResourceLimitError(f"oracle dimension {dim} exceeds the cap {MAX_ORACLE_DIM}")
    budget = DEFAULT_MAX_CELLS if max_cells is None else max_cells
    cells = (4 * max_half_len + 3) ** dim
    if cells > budget:
        raise ResourceLimitError(
            f"grid of {cells} cells exceeds the budget of {budget}"
            " (set LATTICE_GF_MAX_CELLS or pass max_cells to raise it)"
        )


def _to_odd(arr: list[int], side: int) -> list[int]:
    """Step from an even to an odd time: ``o[j] = e[j] + e[j + 1]`` per axis,
    with a second ``e[0]`` in ``o[0]``.

    Per axis, one shift-add by the axis stride over the whole list; the
    last column, which is empty, then drops what the shift carried over
    from the next line.
    """
    size = len(arr)
    stride = 1
    while stride < size:
        line = stride * side
        nxt = list(map(add, arr, arr[stride:]))
        nxt += arr[-stride:]
        # A column as slices: one per offset in a line, or per line if fewer.
        if stride < size // line:
            runs = [(lo, size, line) for lo in range(stride)]
        else:
            runs = [(lo, lo + stride, 1) for lo in range(0, size, line)]
        for lo, hi, step in runs:
            zero = slice(lo, hi, step)
            last = slice(lo + line - stride, hi + line - stride, step)
            nxt[last] = arr[last]
            nxt[zero] = map(add, nxt[zero], arr[zero])
        arr = nxt
        stride = line
    return arr


def _to_even(arr: list[int], side: int) -> list[int]:
    """Step from an odd to an even time: ``E[0] = o[0]``, ``E[j] = o[j - 1] + o[j]``.

    Per axis, one shift-add by the axis stride.  Column 0 also gets the line
    before's last column, which is empty at odd times, so nothing needs repair.
    """
    size = len(arr)
    stride = 1
    while stride < size:
        nxt = arr[:stride]
        nxt += map(add, arr[stride:], arr)
        arr = nxt
        stride *= side
    return arr


def _origin_walk(
    dim: int,
    max_half_len: int,
    allow_touch: Callable[[int], bool],
    max_cells: int | None,
):
    """Run the DP and collect, per half-length k:

    origin_even[k]  occupation of the origin after step 2k, before erasing;
    total_even[k]   total mass after step 2k, after erasing if forbidden;
    total_odd[k]    total mass after step 2k + 1.
    """
    _check_budget(dim, max_half_len, max_cells)
    side = max_half_len + 2
    arr = [0] * side**dim
    arr[0] = 1  # the origin is cell 0
    origin_even, total_even, total_odd = [1], [1], []
    for step in range(1, 2 * max_half_len + 2):
        odd = step % 2 == 1
        arr = (_to_odd if odd else _to_even)(arr, side)
        # Mass balance: each walk in the previous total, taken after any
        # erasure, has 2**d continuations.
        total = sum(arr)
        previous = total_even[-1] if odd else total_odd[-1]
        if total != previous << dim:
            raise ArithmeticError(
                f"mass balance broken at step {step}: total {total},"
                f" expected {1 << dim} times the previous total {previous}"
            )
        if odd:
            total_odd.append(total)
        else:
            origin_even.append(arr[0])
            if not allow_touch(step // 2):
                total -= arr[0]
                arr[0] = 0
            total_even.append(total)
    return origin_even, total_even, total_odd


def count_restricted(
    dim: int,
    restriction: PeriodicSet,
    max_half_len: int,
    max_cells: int | None = None,
) -> PathCountTable:
    """Walks from the origin whose origin visits all fall at admissible times."""
    _, totals, _ = _origin_walk(
        dim, max_half_len, restriction.is_admissible_half_time, max_cells
    )
    return PathCountTable(dim, restriction, tuple(totals))


def count_loops(
    dim: int, max_half_len: int, max_cells: int | None = None
) -> PathCountTable:
    """Walks from the origin back to the origin, no restriction."""
    origins, _, _ = _origin_walk(dim, max_half_len, lambda k: True, max_cells)
    return PathCountTable(dim, None, tuple(origins))


def count_simple_loops(
    dim: int, max_half_len: int, max_cells: int | None = None
) -> PathCountTable:
    """Loops whose only intermediate origin visit is the final one."""
    origins, _, _ = _origin_walk(dim, max_half_len, lambda k: False, max_cells)
    counts = list(origins)
    counts[0] = 0  # the empty loop is not simple
    return PathCountTable(dim, None, tuple(counts))


def count_escaping(
    dim: int, max_half_len: int, max_cells: int | None = None
) -> PathCountTable:
    """Walks that never occupy the origin again after their start."""
    _, totals, _ = _origin_walk(dim, max_half_len, lambda k: False, max_cells)
    return PathCountTable(dim, None, tuple(totals))


def count_odd_length(
    dim: int,
    restriction: PeriodicSet,
    max_half_len: int,
    max_cells: int | None = None,
) -> PathCountTable:
    """Restricted walks of odd length ``2k + 1``, indexed by ``k``.

    Odd times never see the origin, so the restriction only acts on the even
    prefix; each count is ``2**d`` times its even counterpart.
    """
    _, _, odd = _origin_walk(
        dim, max_half_len, restriction.is_admissible_half_time, max_cells
    )
    return PathCountTable(dim, restriction, tuple(odd))

