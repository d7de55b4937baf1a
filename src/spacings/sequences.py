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

from .errors import (GRID_N_MAX, DomainError, check_float, check_floats, check_int,
                     checked_allocation)

# about 0.3 Q**2 fractions, kept by a gcd over the Q (Q + 3) / 2 pairs 0 <= a <= b <= Q;
# at 2**11, 1,275,587 points: farey takes about 0.25 s and 55 MiB on a 2-vCPU host
FAREY_ORDER_MAX = 2**11


@dataclass(frozen=True)
class PointSet:
    """A strictly increasing finite set of points in [0, 1]."""

    points: np.ndarray

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
    with checked_allocation():
        points = np.arange(n + 1) / n
    return PointSet(points)


def _farey_arrays(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Numerators and denominators of the Farey fractions of order q, ascending.

    Each denominator b <= q contributes the a in 0..b with gcd(a, b) = 1.
    Distinct fractions of order q differ by at least 1/q**2, far more than
    the rounding of a/b, so sorting the float quotients orders them exactly.
    """
    den, num = np.nonzero(np.tri(q, q + 1, 1, dtype=bool))  # row b - 1, column a <= b
    den += 1
    keep = np.gcd(num, den) == 1
    num, den = num[keep], den[keep]
    order = np.argsort(num / den)
    return num[order], den[order]


def farey(order) -> PointSet:
    """Farey fractions of the given order, as a point set."""
    q = check_int(order, "Q", 1, FAREY_ORDER_MAX)
    num, den = _farey_arrays(q)
    return PointSet(num / den)


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
    with checked_allocation():
        vals = np.mod(np.arange(1, count + 1) * alpha, 1.0)
    # sort and keep each value unlike its predecessor: np.unique would import numpy.ma
    vals.sort()
    fresh = np.ones(vals.size, dtype=bool)
    np.not_equal(vals[1:], vals[:-1], out=fresh[1:])
    return PointSet(vals[fresh])
