"""Exception types and the argument type check shared across the package."""


class ResourceLimitError(Exception):
    """Raised when a computation would exceed a configured size budget."""


def check_int(name: str, value) -> None:
    """Refuse anything but an ``int`` with ``TypeError``.

    ``bool`` is an ``int`` subclass, and ``2.0`` and ``True`` hash like ``2``
    and ``1``, so either would be answered from the cache entry of an int.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")
