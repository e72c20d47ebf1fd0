"""Loop counting on the integer lattice ``Z**d`` with steps ``{-1,+1}**d``.

A loop is a walk that starts and ends at the origin; it is simple when no
nonempty proper prefix returns there.  Every coordinate of a step is +-1, so
a length-``2k`` loop is a product of ``d`` independent one-dimensional loops
and there are ``comb(2k, k)**d`` of them.

Everything else comes from one series, the reciprocal ``M = 1/loops``, which
is the only series inverted here.  Simple loops follow from the renewal
identity ``loops = loops * simple_loops + 1``, so

    simple_loops = 1 - M,

and walks that never revisit the origin after the start (escaping walks)
come from dividing the loop series out of the unrestricted walk count.
There are ``2**d`` steps, hence ``4**d`` walks per unit of ``t`` (two
lattice steps), so

    escaping = M / (1 - 4**d t),

the running sum ``escaping[k] = 4**d * escaping[k-1] + M[k]``.  For one and
two dimensions ``4**d`` coincides with ``(2d)**2``, the form in which the
factor is usually quoted.

``M`` is a per-process value: ``_reciprocals`` keeps, per dimension, ``M``
at the highest order asked so far.  Every model of that dimension is served
from it, a lower order by slicing, which is exact because inversion is
causal; a higher order computes ``M`` again and replaces the entry.

Both closed forms come from ``series.half_power_coeffs``, the one expansion
of ``(1 - 4t) ** (+-1/2)`` in the package: ``comb(2k, k)`` is the ``t**k``
coefficient of ``(1 - 4t) ** (-1/2)``, raised to the power ``d`` for the
loop series.  Dimension 1 needs no inversion at all: there
``M = (1 - 4t) ** (1/2)``, whose coefficients are ``-2 Catalan(k-1)``.

Both derived series feed the restricted-walk linear system: between two
consecutive visits of the space origin a walk is exactly a simple loop, and
after the last visit it is escaping.
"""

from .errors import ResourceLimitError, check_int
from .series import TruncatedSeries, half_power_coeffs

# Generating functions stay cheap in any dimension, but the coefficients
# comb(2k, k)**d grow fast enough that a guard keeps accidental huge inputs
# from stalling a run.
MAX_GF_DIM = 4

# The largest truncation order of a loop series.  The cheapest solve that
# builds one, dim 1 and {0} mod 2, is one division of N/2 terms, which
# system._route_costs counts as (N/2)**2 / 2 * (1 + (N/200)**2) coefficient
# products: 1e5 at N = 400, about 4 ms on a 2-vCPU host, and 3e10 at this
# bound, about 20 minutes there.
MAX_ORDER = 10_000

# The reciprocal loop series per dimension, at the highest order computed so
# far; the dimension check in LoopModel bounds it to MAX_GF_DIM entries.
_reciprocals: dict = {}


def check_dim_and_order(dim: int, order: int) -> None:
    """Refuse a dimension or truncation order the loop series cannot take."""
    # Every check runs before any cache read: the loop series are served
    # from a process-wide cache.
    check_int("dimension", dim, 1)
    check_int("truncation order", order, 1)
    if dim > MAX_GF_DIM:
        raise ResourceLimitError(f"dimension {dim} exceeds the bound {MAX_GF_DIM}")
    if order > MAX_ORDER:
        raise ResourceLimitError(f"truncation order {order} exceeds the bound {MAX_ORDER}")


def geometric_sum(coeffs, weight: int) -> TruncatedSeries:
    """``f / (1 - weight t)`` for ``f`` given by its coefficients: the running
    sum ``out[k] = weight * out[k-1] + f[k]``."""
    out = []
    acc = 0
    for c in coeffs:
        acc = acc * weight + c
        out.append(acc)
    return TruncatedSeries(out)


def has_reciprocal(dim: int, order: int) -> bool:
    """Whether ``reciprocal_loop_gf`` serves ``(dim, order)`` without
    inverting a series: always in dimension 1, and otherwise when
    ``_reciprocals`` holds ``1/L`` at this order or higher."""
    cached = _reciprocals.get(dim)
    return dim == 1 or cached is not None and cached.order >= order


class LoopModel:
    """Dimension and truncation order for the loop generating functions."""

    __slots__ = ("dim", "order")

    def __init__(self, dim: int, order: int):
        check_dim_and_order(dim, order)
        self.dim = dim
        self.order = order

    def loop_gf(self) -> TruncatedSeries:
        """Series whose coefficient at ``t**k`` counts length-``2k`` loops."""
        # comb(2k, k) is the t**k coefficient of (1 - 4t)**(-1/2).
        return TruncatedSeries(c**self.dim for c in half_power_coeffs(1, -1, self.order))

    def reciprocal_loop_gf(self) -> TruncatedSeries:
        """``1 / loop_gf``, served from the per-process cache ``_reciprocals``."""
        dim, order = self.dim, self.order
        cached = _reciprocals.get(dim)
        if cached is None or cached.order < order:
            if dim == 1:
                cached = TruncatedSeries(half_power_coeffs(1, 1, order))
            else:
                cached = self.loop_gf().inverse()
            _reciprocals[dim] = cached
        if cached.order == order:
            return cached
        return TruncatedSeries(cached.coeffs[:order])

    def primitive_excursion_gf(self) -> TruncatedSeries:
        """Series counting simple loops, ``1 - 1/loop_gf``."""
        return TruncatedSeries.one(self.order) - self.reciprocal_loop_gf()

    def escaping_gf(self) -> TruncatedSeries:
        """Series counting walks that never return to the space origin."""
        return geometric_sum(self.reciprocal_loop_gf().coeffs, 4**self.dim)
