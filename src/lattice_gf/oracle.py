"""Brute-force dynamic-programming walk counters, the package's ground truth.

Counts are obtained by propagating exact integer occupation numbers over a
dense hypercube of lattice sites.  The combined ``{-1,+1}**d`` step is the
tensor product of ``d`` one-dimensional steps, so one time step is ``d``
axis-wise shift-adds.  Erasing the origin cell at a forbidden even time is
the same as never generating the offending walks, which makes restriction
handling a single assignment.

The grid radius ``2K + 1`` is large enough that no walk of length ``2K + 1``
ever leaves it, so boundary truncation loses no mass.  Counts are Python
integers throughout (they overflow any fixed-width type quickly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from .errors import ResourceLimitError
from .periodic import PeriodicSet

if TYPE_CHECKING:
    import numpy as np

# Default budget on dense grid cells; covers dimension 3 up to half-length 12.
DEFAULT_MAX_CELLS = 200_000
MAX_ORACLE_DIM = 3


@dataclass(frozen=True, eq=False)
class PathCountTable:
    """Exact walk counts indexed by half-length ``k`` (path length ``2k``)."""

    dim: int
    restriction: Optional[PeriodicSet]
    counts: tuple[int, ...]

    def __getitem__(self, k: int) -> int:
        return self.counts[k]

    def __len__(self) -> int:
        return len(self.counts)


def _check_budget(dim: int, max_half_len: int, max_cells: Optional[int]) -> None:
    if dim < 1:
        raise ValueError("dimension must be positive")
    if max_half_len < 0:
        raise ValueError("half-length must be nonnegative")
    if dim > MAX_ORACLE_DIM:
        raise ResourceLimitError(
            f"oracle dimension {dim} exceeds the cap {MAX_ORACLE_DIM}"
        )
    budget = DEFAULT_MAX_CELLS if max_cells is None else max_cells
    cells = (4 * max_half_len + 3) ** dim
    if cells > budget:
        raise ResourceLimitError(
            f"grid of {cells} cells exceeds the budget of {budget}"
            " (set LATTICE_GF_MAX_CELLS or pass max_cells to raise it)"
        )


def _advance(arr: np.ndarray) -> np.ndarray:
    """Apply one ``{-1,+1}**d`` step as d axis-wise shift-adds."""
    import numpy as np

    for axis in range(arr.ndim):
        nxt = np.zeros_like(arr)
        upper = tuple(
            slice(1, None) if a == axis else slice(None) for a in range(arr.ndim)
        )
        lower = tuple(
            slice(None, -1) if a == axis else slice(None) for a in range(arr.ndim)
        )
        nxt[upper] = arr[lower]
        nxt[lower] += arr[upper]
        arr = nxt
    return arr


def _origin_walk(
    dim: int,
    max_half_len: int,
    allow_touch: Callable[[int], bool],
    max_cells: Optional[int],
):
    """Run the DP and collect, per half-length k:

    origin_even[k]  occupation of the origin after step 2k, before erasing;
    total_even[k]   total mass after step 2k, after erasing if forbidden;
    total_odd[k]    total mass after step 2k + 1.

    numpy is imported here, not at module level, so that importing the
    package and the series route never pay for it.
    """
    import numpy as np

    _check_budget(dim, max_half_len, max_cells)
    side = 4 * max_half_len + 3
    arr = np.zeros((side,) * dim, dtype=object)
    origin = (2 * max_half_len + 1,) * dim
    arr[origin] = 1

    origin_even = [1]
    total_even = [1]
    total_odd = []
    for step in range(1, 2 * max_half_len + 2):
        arr = _advance(arr)
        if step % 2 == 1:
            # Parity self-check: all coordinates are odd after an odd number
            # of steps, so the origin must be empty.
            if arr[origin] != 0:
                raise ArithmeticError(
                    f"origin occupied after odd step {step}: count {arr[origin]!r}"
                )
            total_odd.append(int(arr.sum()))
        else:
            k = step // 2
            origin_even.append(int(arr[origin]))
            if not allow_touch(k):
                arr[origin] = 0
            total_even.append(int(arr.sum()))
    return origin_even, total_even, total_odd


def count_restricted(
    dim: int,
    restriction: PeriodicSet,
    max_half_len: int,
    max_cells: Optional[int] = None,
) -> PathCountTable:
    """Walks from the origin whose origin visits all fall at admissible times."""
    _, totals, _ = _origin_walk(
        dim, max_half_len, restriction.is_admissible_half_time, max_cells
    )
    return PathCountTable(dim, restriction, tuple(totals))


def count_loops(
    dim: int, max_half_len: int, max_cells: Optional[int] = None
) -> PathCountTable:
    """Walks from the origin back to the origin, no restriction."""
    origins, _, _ = _origin_walk(dim, max_half_len, lambda k: True, max_cells)
    return PathCountTable(dim, None, tuple(origins))


def count_simple_loops(
    dim: int, max_half_len: int, max_cells: Optional[int] = None
) -> PathCountTable:
    """Loops whose only intermediate origin visit is the final one."""
    origins, _, _ = _origin_walk(dim, max_half_len, lambda k: False, max_cells)
    counts = list(origins)
    counts[0] = 0  # the empty loop is not simple
    return PathCountTable(dim, None, tuple(counts))


def count_escaping(
    dim: int, max_half_len: int, max_cells: Optional[int] = None
) -> PathCountTable:
    """Walks that never occupy the origin again after their start."""
    _, totals, _ = _origin_walk(dim, max_half_len, lambda k: False, max_cells)
    return PathCountTable(dim, None, tuple(totals))


def count_odd_length(
    dim: int,
    restriction: PeriodicSet,
    max_half_len: int,
    max_cells: Optional[int] = None,
) -> PathCountTable:
    """Restricted walks of odd length ``2k + 1``, indexed by ``k``.

    Odd times never see the origin, so the restriction only acts on the even
    prefix; each count is ``2**d`` times its even counterpart.
    """
    _, _, odd = _origin_walk(
        dim, max_half_len, restriction.is_admissible_half_time, max_cells
    )
    return PathCountTable(dim, restriction, tuple(odd))

