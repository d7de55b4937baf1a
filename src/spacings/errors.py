"""Exception types shared across the package, and the parameter checks
that raise them."""

from __future__ import annotations


class DomainError(ValueError):
    """A parameter lies outside its documented domain."""


class EnumerationLimitError(DomainError):
    """A brute-force enumeration was requested beyond the supported size."""


class EmptySampleError(DomainError):
    """An operation needs more observations than were supplied."""


def check_p(p) -> float:
    """The survival probability p as a float in (0, 1]."""
    try:
        value = float(p)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"survival probability p={p!r} is not a number") from exc
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
