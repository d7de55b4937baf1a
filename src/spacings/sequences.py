"""Generators for the point sets being thinned.

Besides the uniform grid, two classical sequences in [0, 1] are provided
as sampling targets: Farey fractions of a given order and the orbit of an
irrational rotation.  Farey fractions are generated as integer pairs so
neighbor identities can be checked exactly; they are converted to floats
only when a point set is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import GRID_N_MAX
from .errors import DomainError, check_float, check_floats, check_int

# farey_pairs builds about 0.3 Q**2 Python tuples: 1,275,587 points at 2**11
FAREY_ORDER_MAX = 2**11


@dataclass(frozen=True)
class PointSet:
    """A strictly increasing finite set of points in [0, 1]."""

    points: np.ndarray
    descriptor: str

    def __post_init__(self) -> None:
        pts = np.ascontiguousarray(check_floats(self.points, "points"))
        if pts.ndim != 1 or pts.size < 1:
            raise DomainError("a point set needs a 1-D array of at least one point")
        if not np.all((pts >= 0.0) & (pts <= 1.0)):
            raise DomainError("points must lie in [0, 1]")
        if np.any(np.diff(pts) <= 0.0):
            raise DomainError("points must be strictly increasing")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return int(self.points.size)


def grid(n) -> PointSet:
    """The n+1 equally spaced points {0, 1/n, ..., 1}, for 1 <= n <= GRID_N_MAX."""
    n = check_int(n, "n", 1, GRID_N_MAX)
    return PointSet(np.arange(n + 1) / n, f"grid({n})")


def farey_pairs(order) -> list[tuple[int, int]]:
    """All reduced fractions in [0, 1] with denominator <= order, ascending.

    Uses the standard next-term recurrence: from neighbors a/b < c/d the
    successor is (kc - a)/(kd - b) with k = (order + b) // d.  The order is
    at most FAREY_ORDER_MAX.
    """
    q = check_int(order, "Q", 1, FAREY_ORDER_MAX)
    out = [(0, 1)]
    a, b, c, d = 0, 1, 1, q
    while c <= q:
        k = (q + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        out.append((a, b))
    return out


def farey(order) -> PointSet:
    """Farey fractions of the given order, as a point set."""
    pairs = farey_pairs(order)
    pts = np.array([num / den for num, den in pairs])
    return PointSet(pts, f"farey({int(order)})")


def rotation(alpha, count) -> PointSet:
    """The sorted orbit {k * alpha mod 1 : k = 1..count}.

    Irrational alpha never repeats; for rational alpha duplicates are
    dropped, and an exact hit on 0 is kept as a point.  count * alpha must
    be finite in float64, and count at most 2**53 so that every index k is
    exact in float64.
    """
    count = check_int(count, "count", 1, 2**53)
    alpha = check_float(alpha, "alpha")
    if not math.isfinite(count * alpha):  # the orbit's last point, before mod 1
        raise DomainError(f"count * alpha = {count} * {alpha!r} must be finite")
    vals = np.mod(np.arange(1, count + 1) * alpha, 1.0)
    # sort and keep each value unlike its predecessor: np.unique would import numpy.ma
    vals.sort()
    fresh = np.ones(vals.size, dtype=bool)
    np.not_equal(vals[1:], vals[:-1], out=fresh[1:])
    return PointSet(vals[fresh], f"rotation({alpha!r},{count})")
