"""Periodic sets of admissible time points.

Walks live on the half-time axis: the space origin can only be occupied at
even times ``2a``, and a restriction names the residues of ``a`` modulo a
fixed period at which touching the origin is allowed.  Residue 0 is always
admissible because every walk starts on the axis.
"""

from .errors import check_int


class PeriodicSet:
    """Admissible residues on the half-time axis, repeating with ``period``.

    Immutable, and equal and hashable by value: it keys the solution cache.
    """

    __slots__ = ("residues", "period")

    def __init__(self, residues, period: int):
        # bool is an int subclass, but True would print where 1 is meant.
        check_int("period", period, 1)
        res = tuple(residues)
        if not res:
            raise ValueError("at least one admissible residue is required")
        for a in res:
            check_int("residue", a)
        if len(set(res)) != len(res):
            raise ValueError(f"duplicate residues in {res!r}")
        if any(a < 0 or a >= period for a in res):
            raise ValueError(f"residues must lie in [0, {period})")
        res = tuple(sorted(res))
        if res[0] != 0:
            raise ValueError("residue 0 must be admissible")
        object.__setattr__(self, "residues", res)
        object.__setattr__(self, "period", period)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return PeriodicSet, (self.residues, self.period)

    def __eq__(self, other):
        if not isinstance(other, PeriodicSet):
            return NotImplemented
        return self.residues == other.residues and self.period == other.period

    def __hash__(self):
        return hash((self.residues, self.period))

    def __repr__(self):
        return f"PeriodicSet(residues={self.residues!r}, period={self.period!r})"

    @property
    def size(self) -> int:
        return len(self.residues)

    def is_admissible_half_time(self, half_time: int) -> bool:
        """Whether the origin may be occupied at time ``2 * half_time``."""
        check_int("half-time", half_time, 0)
        return half_time % self.period in self.residues


def hajnal_nagy_set(k: int) -> PeriodicSet:
    """The period-``2k`` set admitting exactly the residues ``0..k-1``.

    This is the family whose even multisection of the origin-started
    restricted-walk generating function has the closed form
    ``(1 - (4t)**(2k)) ** (-1/2)`` in one dimension.
    """
    check_int("k", k, 1)
    return PeriodicSet(tuple(range(k)), 2 * k)
