"""Brute-force verification of the spacing law by exhaustive enumeration.

Every survival pattern of the n+1 grid points is weighted with exact
rational arithmetic, so the conditional spacing distribution is computed
straight from its definition with no closed form involved.  The same table
evaluated through the closed-form expression (also in exact rationals) must
then agree term by term.

The patterns are counted, not listed: one left-to-right pass over the
points carries the number of prefixes in each state of the i-th gap (fewer
than i survivors; i survivors and r dead points since the i-th; gap d
recorded and k survivors), so the 2**(n+1) patterns cost O(n**3) plain
integer additions.  The counts are p-free and exact, and the weights exact
fractions.  At n = 16, the cap, the pass takes under a millisecond in well
under 1 MiB (tested).  The cap is the domain the tests check pattern by
pattern, not a bound on cost.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError, EnumerationLimitError, check_int

# Exact probabilities are plain stdlib fractions (always in lowest terms).
Rational = Fraction

MAX_ENUMERATION_N = 16


def _as_rational(p) -> Fraction:
    if isinstance(p, float):
        raise DomainError(
            "p must be an exact rational (Fraction, int, or 'a/b' string), not a float"
        )
    try:
        p = Fraction(p)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise DomainError(f"p={p!r} is not a rational number") from exc
    if not 0 < p <= 1:
        raise DomainError(f"p={p} must be in (0, 1]")
    return p


def _check_args(n, i) -> tuple[int, int]:
    n = check_int(n, "n", 1)
    if n > MAX_ENUMERATION_N:
        raise EnumerationLimitError(
            f"n={n} exceeds the enumeration cap of {MAX_ENUMERATION_N}"
        )
    return n, check_int(i, "i", 1, n)


class ExactTable(NamedTuple):
    """Conditional spacing pmf with exact rational masses over d = 1..n.

    A named tuple of (n, p, i, masses): immutable, so it is also iterable
    and compares equal to a plain tuple of the same four values.  A named
    tuple, not a dataclass, because ``dataclasses`` imports ``inspect``,
    which an oracle request, running without numpy, would load for this
    class alone.
    """

    n: int
    p: Fraction
    i: int
    masses: dict[int, Fraction]

    def mass(self, d: int) -> Fraction:
        return self.masses[d]

    @property
    def total(self) -> Fraction:
        return sum(self.masses.values(), Fraction(0))

    def as_floats(self) -> dict[int, float]:
        return {d: float(m) for d, m in self.masses.items()}


@lru_cache(maxsize=None)
def _gap_counts(n: int, i: int) -> tuple[tuple[int, int, int], ...]:
    """(survivor count k, i-th gap d, number of patterns) over all patterns with k > i.

    Each grid point, from left to right, survives or dies in every prefix.
    ``below[s]`` counts the prefixes with s < i survivors, ``waiting[r]``
    those with i survivors and r dead points since the i-th, and
    ``gaps[d][m]`` those whose i-th gap was d, with i + 1 + m survivors.
    """
    below = [1] + [0] * (i - 1)
    waiting = []
    gaps = {}
    for _ in range(n + 1):
        for d, row in gaps.items():  # survives: m + 1, dies: m
            gaps[d] = [a + b for a, b in zip(row + [0], [0] + row)]
        for d, count in enumerate(waiting, 1):  # survives as the (i+1)-th: gap d = r + 1
            if count:
                gaps.setdefault(d, [0])[0] += count
        waiting = [below[-1], *waiting]  # survives as the i-th (r = 0), or dies: r + 1
        below = [below[0], *(a + b for a, b in zip(below[1:], below))]
    return tuple(sorted((i + 1 + m, d, count) for d, row in gaps.items()
                        for m, count in enumerate(row) if count))


def enumerate_conditional_pmf(n, p, i) -> ExactTable:
    """Spacing pmf computed from the definition, over every survival pattern.

    Each pattern with more than i survivors contributes p**ones * (1-p)**zeros
    to the mass of its observed i-th gap; the masses are then normalized by
    their own total (the probability of the conditioning event).  The result
    sums to exactly 1.
    """
    n, i = _check_args(n, i)
    p = _as_rational(p)
    q = 1 - p
    weight = [p**o * q ** (n + 1 - o) for o in range(n + 2)]
    masses = {d: Fraction(0) for d in range(1, n + 1)}
    for ones, d, count in _gap_counts(n, i):
        masses[d] += count * weight[ones]
    total = sum(masses.values(), Fraction(0))
    return ExactTable(n, p, i, {d: m / total for d, m in masses.items()})


def exact_closed_form_pmf(n, p, i) -> ExactTable:
    """The closed-form spacing pmf evaluated in exact rational arithmetic.

    With p = a/b in lowest terms and c = b - a, every term of the formula is
    an integer over a power of b, and the powers cancel:

        f(d) = a**(i+1) c**(d-1) s(n-d) / D,

    where s(m) = b s(m-1) + C(m, i-1) c**(m-i+1) is S(m) b**(m-i+1) and
    D = b**(n+1) - sum_{k<=i} C(n+1, k) a**k c**(n+1-k) is T b**(n+1).  So
    the table costs O(n) integer operations and one reduction per mass.
    """
    n, i = _check_args(n, i)
    p = _as_rational(p)
    a, b = p.numerator, p.denominator
    c = b - a
    denom = b ** (n + 1) - sum(math.comb(n + 1, k) * a**k * c ** (n + 1 - k) for k in range(i + 1))
    s = [0] * n  # s(m) = 0 for m < i-1: an empty sum
    acc = 0
    for m in range(i - 1, n):
        acc = b * acc + math.comb(m, i - 1) * c ** (m - i + 1)
        s[m] = acc
    masses = {}
    scale = a ** (i + 1)  # a**(i+1) c**(d-1)
    for d in range(1, n + 1):
        masses[d] = Fraction(scale * s[n - d], denom)
        scale *= c
    return ExactTable(n, p, i, masses)
