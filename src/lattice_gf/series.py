"""Exact truncated formal power series over the integers.

A series is a dense vector of plain ``int`` coefficients ``c0, c1, ...,
c_{N-1}`` for a fixed truncation order ``N``: an element of ``Z[[t]]`` known
up to ``t**N``.  Every series of this package counts walks or is built from
such counts, so the integers are the one coefficient ring.  Other integer
types, such as ``bool``, are converted with ``operator.index``; a rational,
floating-point or decimal coefficient is refused with ``TypeError``.  The
ring stays closed: ``quotient_coeffs`` divides only by series with constant
term +-1, the inverse is the quotient of 1, and the square-root expansion
needs a base divisible by 4.  ``add_product_coeffs`` is the one product
kernel: it adds a product into the caller's list, so a ring product starts
from zeros and an elimination step updates its entry in place.
``quotient_coeffs`` is the one division kernel: every exact series division
of the package is one call per divisor, the only exception being the
two-term divisor of ``loops.geometric_sum``, a running sum.

The binomial family ``(1 - 4 b x) ** (+-1/2)`` is expanded in one place,
``half_power_coeffs``.  ``loops`` raises the coefficients of
``(1 - 4t) ** (-1/2)``, the central binomials, to the power ``d`` for the
loop series, and takes ``(1 - 4t) ** (1/2)`` as the one-dimensional
reciprocal loop series.  ``inv_sqrt_one_minus_monomial`` places the
``-1/2`` case at every ``exponent``-th index, which gives the Hajnal-Nagy
closed form ``(1 - (4t)**(2k)) ** (-1/2)``.

The order is part of the value: binary operations refuse operands of
different orders instead of silently re-truncating, which keeps long identity
chains honest about how far they are exact.

Everywhere in this package one unit of the formal parameter ``t`` accounts
for two lattice steps, so the coefficient at index ``j`` counts objects of
path length ``2j``.
"""

from collections.abc import Iterable
from itertools import chain, repeat
from operator import add, index, neg, sub

from .errors import check_int

_INT = frozenset((int,))


def add_product_coeffs(out: list, f, g, shift: int = 0) -> None:
    """Add the coefficients of ``x**shift * f(x) * g(x)`` below
    ``x**len(out)`` to ``out``, in place.

    The one product kernel: a product is accumulated into a list of zeros,
    and an elimination step into the entry it updates, with no second pass.
    Multisections are sparse, so the loop walks only the nonzero terms of
    ``g``.
    """
    size = len(out)
    support = [(j, gj) for j, gj in enumerate(g) if gj]
    for i, fi in enumerate(f, shift):
        if not fi:
            continue
        limit = size - i
        for j, gj in support:
            if j >= limit:
                break
            out[i + j] += fi * gj


def quotient_coeffs(f, g, size: int) -> list:
    """Coefficients of ``f(x) / g(x)`` below ``x**size``, for ``g`` with
    constant term +-1, in one pass of

        q_j = g_0 (f_j - sum_{i>=1} g_i q_{j-i}).

    ``g_0`` is its own inverse, so every ``q_j`` is an integer; the caller
    checks it.  A quotient costs what an inverse does, half of an inverse
    followed by a product.  The loop walks only the nonzero terms of ``g``.
    """
    g0 = g[0]
    support = [(i, gi) for i, gi in enumerate(g[1:size], 1) if gi]
    out = [0] * size
    for j, acc in zip(range(size), chain(f, repeat(0))):
        for i, gi in support:
            if i > j:
                break
            acc -= gi * out[j - i]
        out[j] = acc if g0 == 1 else -acc
    return out


class TruncatedSeries:
    """A power series known exactly up to, but not including, ``t**order``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = tuple(coeffs)
        if not _INT.issuperset(map(type, cs)):
            cs = tuple(map(index, cs))
        if not cs:
            raise ValueError("a series needs a positive truncation order")
        self.coeffs = cs

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.monomial(1, 0, order)

    @classmethod
    def monomial(cls, coeff: int, exponent: int, order: int) -> "TruncatedSeries":
        """The series ``coeff * t**exponent`` (zero if the exponent is cut off)."""
        check_int("truncation order", order, 1)
        check_int("exponent", exponent, 0)
        row = [0] * order
        coeff = index(coeff)
        if exponent < order:
            row[exponent] = coeff
        return cls(row)

    # -- basic queries -----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def _require_same_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._require_same_order(other)
        return TruncatedSeries(map(add, self.coeffs, other.coeffs))

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._require_same_order(other)
        return TruncatedSeries(map(sub, self.coeffs, other.coeffs))

    def __neg__(self):
        return TruncatedSeries(map(neg, self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._require_same_order(other)
        out = [0] * self.order
        add_product_coeffs(out, self.coeffs, other.coeffs)
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse in the truncated ring.

        The series must be a unit of ``Z[[t]]``: its constant term is +-1,
        which is its own inverse.  The inverse is the quotient of 1.
        """
        a = self.coeffs
        a0 = a[0]
        if a0 == 0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        if a0 != 1 and a0 != -1:
            raise ArithmeticError(
                f"constant term {a0} is not +-1: the inverse leaves Z[[t]]"
            )
        return TruncatedSeries(quotient_coeffs((1,), a, self.order))

    # -- multisection -------------------------------------------------------

    def multisection(self, q: int, r: int) -> "TruncatedSeries":
        """Keep the coefficients at indices congruent to r mod q, zero the rest.

        The result stays full length, so sums of the q multisections rebuild
        the original series coefficient for coefficient.
        """
        check_int("multisection modulus", q, 1)
        check_int("multisection residue", r)
        if not 0 <= r < q:
            raise ValueError(f"multisection residue {r} outside [0, {q})")
        out = [0] * self.order
        out[r::q] = self.coeffs[r::q]
        return TruncatedSeries(out)

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __repr__(self):
        return f"TruncatedSeries({self.coeffs!r})"


def half_power_coeffs(base: int, sign: int, count: int) -> list:
    """The first ``count`` coefficients of ``(1 - 4 base x) ** (sign / 2)``,
    ``sign`` +-1, in one pass of the exact ratio recurrence

        c_j = c_{j-1} * 2 (2j - 2 - sign) * base / j.

    For ``sign = -1`` this is ``comb(2j, j) * base**j``, for ``sign = +1``
    and ``j >= 1`` it is ``-2 Catalan(j - 1) * base**j``: integers, so the
    floor division is exact.
    """
    coeffs = [1] * count
    c = 1
    for j in range(1, count):
        # The small factor first: one big-integer product per term.
        c = c * (2 * (2 * j - 2 - sign) * base) // j
        coeffs[j] = c
    return coeffs


def inv_sqrt_one_minus_monomial(coeff: int, exponent: int, order: int) -> TruncatedSeries:
    """Expansion of ``(1 - coeff * t**exponent) ** (-1/2)``.

    The coefficient at ``t**(j*exponent)`` is ``comb(2j, j) * (coeff/4)**j``
    and every other coefficient vanishes.  These are integers exactly when 4
    divides ``coeff``, as in the Hajnal-Nagy case ``4**(2k)``; any other
    ``coeff`` is refused.
    """
    check_int("truncation order", order, 1)
    check_int("exponent", exponent, 1)
    check_int("coefficient", coeff)
    if coeff % 4:
        raise ValueError(
            f"coefficient {coeff} is not a multiple of 4: the expansion leaves Z[[t]]"
        )
    out = [0] * order
    out[::exponent] = half_power_coeffs(coeff // 4, -1, (order - 1) // exponent + 1)
    return TruncatedSeries(out)
