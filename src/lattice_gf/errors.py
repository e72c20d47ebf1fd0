"""Exception types and the one integer-argument rule of the package.

``check_int`` is the one place that words the refusal of a non-``int``
argument and of an argument below its minimum of 0 or 1.
"""

_BOUNDS = {0: "nonnegative", 1: "positive"}


class ResourceLimitError(Exception):
    """Raised when a computation would exceed a configured size budget."""


def check_int(name: str, value, minimum: int | None = None) -> None:
    """Refuse anything but an ``int`` with ``TypeError``, and with
    ``minimum`` 0 or 1 anything below it with ``ValueError``.

    ``bool`` is an ``int`` subclass, and ``2.0`` and ``True`` hash like ``2``
    and ``1``, so either would be answered from the cache entry of an int.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be {_BOUNDS[minimum]}")
