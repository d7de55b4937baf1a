"""Exception types shared across the package, and the parameter checks
that raise them.

numpy is imported only by the array checks, ``check_ints`` (for every
input, a scalar included) and ``check_floats``, so ``check_float``,
``check_p`` and ``check_int`` run without it.
``GRID_N_MAX`` is the bound of every grid size n and of a d-max given
without n; it lives here, beside the checks that use it, so that the
point-set generators and the CLI read it without running the exact law.
"""

from __future__ import annotations

from contextlib import contextmanager

# The largest grid size n: float64 holds every grid index and n + 1 exactly.
GRID_N_MAX = 2**53 - 2


class DomainError(ValueError):
    """A parameter lies outside its documented domain."""


class EnumerationLimitError(DomainError):
    """A brute-force enumeration was requested beyond the supported size."""


class EmptySampleError(DomainError):
    """An operation needs more observations than were supplied."""


def check_float(value, name: str) -> float:
    """``value`` as a float; values ``float`` refuses or overflows on raise DomainError."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name}={value!r} is not a float") from exc


def check_p(p) -> float:
    """The survival probability p as a float in (0, 1]."""
    value = check_float(p, "survival probability p")
    if not 0.0 < value <= 1.0:
        raise DomainError(f"survival probability p={value} must be in (0, 1]")
    return value


def check_int(value, name: str, lo: int, hi: int | None = None) -> int:
    """``value`` as an int in lo..hi (no upper bound when hi is None).

    Non-integral and non-finite values raise DomainError, like values out
    of range.
    """
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        as_int = None
    if as_int is None or as_int != value:
        raise DomainError(f"{name}={value!r} must be an integer")
    if as_int < lo:
        raise DomainError(f"{name}={as_int} must be >= {lo}")
    if hi is not None and as_int > hi:
        raise DomainError(f"{name}={as_int} must be <= {hi}")
    return as_int


def check_ints(values, name: str, lo: int, hi: int | None = None):
    """An int, or an integer array, of values in lo..hi (no upper bound when hi is None).

    An array is checked whole, by dtype, min and max, and returned as numpy
    made it; floats, text and integers beyond 64 bits raise DomainError.  A
    scalar, which numpy makes a 0-d array, goes to ``check_int`` and comes
    back an int.
    """
    import numpy as np

    try:
        array = np.asarray(values)
    except ValueError as exc:
        raise DomainError(f"{name} is not an integer array") from exc
    if array.ndim == 0:
        return check_int(values, name, lo, hi)
    if array.size and (array.dtype.kind not in "iu" or array.min() < lo
                       or (hi is not None and array.max() > hi)):
        bound = "" if hi is None else f" and <= {hi}"
        raise DomainError(f"{name} needs integer values >= {lo}{bound}, "
                          f"got a {array.dtype} array")
    return array


def check_instance(value, cls: type, name: str):
    """``value`` if it is a ``cls``, else DomainError naming the type it has."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise DomainError(f"{name} must be {article} {cls.__name__}, not {type(value).__name__}")
    return value


def check_floats(values, name: str):
    """``values`` as a float64 array of finite values, or DomainError."""
    import numpy as np

    try:
        array = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} is not an array of floats") from exc
    if not np.isfinite(array).all():
        raise DomainError(f"{name} must be finite")
    return array


@contextmanager
def checked_allocation():
    """Turn a failed allocation inside the block into DomainError, with numpy's message.

    For arrays whose size a caller chose within its bounds but this host
    cannot hold, such as ``grid(2**50)``'s 8 PiB.
    """
    try:
        yield
    except MemoryError as exc:
        raise DomainError(str(exc) or "out of memory") from exc
