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

from .errors import DomainError, check_int


@dataclass(frozen=True)
class PointSet:
    """A strictly increasing finite set of points in [0, 1]."""

    points: np.ndarray
    descriptor: str

    def __post_init__(self) -> None:
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        if pts.ndim != 1 or pts.size < 1:
            raise DomainError("a point set needs a 1-D array of at least one point")
        if np.any(pts < 0.0) or np.any(pts > 1.0):
            raise DomainError("points must lie in [0, 1]")
        if np.any(np.diff(pts) <= 0.0):
            raise DomainError("points must be strictly increasing")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return int(self.points.size)


def grid(n) -> PointSet:
    """The n+1 equally spaced points {0, 1/n, ..., 1}."""
    n = check_int(n, "n", 1)
    return PointSet(np.arange(n + 1) / n, f"grid({n})")


def farey_pairs(order) -> list[tuple[int, int]]:
    """All reduced fractions in [0, 1] with denominator <= order, ascending.

    Uses the standard next-term recurrence: from neighbors a/b < c/d the
    successor is (kc - a)/(kd - b) with k = (order + b) // d.
    """
    q = check_int(order, "Q", 1)
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
    dropped, and an exact hit on 0 is kept as a point.
    """
    count = check_int(count, "count", 1)
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise DomainError(f"alpha={alpha} must be finite")
    vals = np.mod(np.arange(1, count + 1) * alpha, 1.0)
    return PointSet(np.unique(vals), f"rotation({alpha!r},{count})")
