"""Brute-force verification of the spacing law by exhaustive enumeration.

Every survival pattern of the n+1 grid points is weighted with exact
integer arithmetic, so the conditional spacing distribution is computed
straight from its definition with no closed form involved.  The same table
evaluated through the closed-form expression (also in exact rationals) must
then agree term by term.

The patterns are summed, not listed.  With p = a/b and c = b - a, a
pattern with k survivors has probability a**k c**(n+1-k) / b**(n+1), so
one left-to-right pass over the points carries the integer weight of every
prefix state of the i-th gap (fewer than i survivors; i survivors and r
dead points since the i-th; gap d recorded, each later point summed out by
a factor b).  The 2**(n+1) patterns cost O(n(i + n)) big-integer updates,
and the masses are the gap weights over their sum.  At n = 16, the cap,
the pass takes well under a millisecond in under 1 MiB (tested).  The cap
is the domain the tests check pattern by pattern, not a bound on cost.
"""

from __future__ import annotations

import math
from fractions import Fraction
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


class _ExactFields(NamedTuple):
    n: int
    p: Fraction
    masses: dict[int, Fraction]


class ExactTable(_ExactFields):
    """Conditional spacing pmf with exact rational masses over d = 1..n.

    A named tuple of (n, p, masses): immutable, so it is also iterable and
    compares equal to a plain tuple of the same three values.  ``mass(d)``
    reads one mass; sums and float conversions are left to the caller.  A named
    tuple, not a dataclass, because ``dataclasses`` imports ``inspect``,
    which an oracle request, running without numpy, would load for this
    class alone.  A named tuple cannot check its own arguments, so this
    subclass of one does: n must be an integer >= 1, p an exact rational in
    (0, 1], and masses a dict of every d = 1..n to a ``Fraction`` in [0, 1],
    or DomainError is raised, in O(n); ``_make`` and ``_replace`` check too.
    """

    __slots__ = ()

    def __new__(cls, n, p, masses):
        n, p = check_int(n, "n", 1), _as_rational(p)
        if not (isinstance(masses, dict) and len(masses) == n
                and masses.keys() == set(range(1, n + 1))
                and all(isinstance(m, Fraction) and 0 <= m <= 1 for m in masses.values())):
            raise DomainError(f"masses must be a dict of every d = 1..{n} to a Fraction in [0, 1]")
        return super().__new__(cls, n, p, masses)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make, so both are checked
        return cls(*iterable)

    def mass(self, d: int) -> Fraction:
        return self.masses[d]


def _walk(n: int, p: Fraction, i: int) -> ExactTable:
    """The enumerated table for checked n, p and i, at any n.

    Each grid point, from left to right, survives (factor a) or dies
    (factor c) in every prefix.  ``below[s]`` weighs the prefixes with
    s < i survivors, ``waiting[r]`` those with i survivors and r dead points
    since the i-th, and ``gaps[d]`` those whose i-th gap was d, each later
    point summed out by a + c = b.  The prefixes of one state share their
    survivors' factor a**s, so the weights carry only the factors c: the
    a**(i+1) common to every gap cancels in the masses.
    """
    b = p.denominator
    c = b - p.numerator
    below = [1] + [0] * (i - 1)
    waiting = []
    gaps = [0] * (n + 1)
    for _ in range(n + 1):
        gaps = [b * w for w in gaps]  # a point after the gap: survives or dies, a + c
        for d, w in enumerate(waiting, 1):  # survives as the (i+1)-th: gap d = r + 1
            gaps[d] += w
        waiting = [below[-1], *(c * w for w in waiting)]  # the i-th (r = 0), or r + 1
        below = [c * below[0], *(c * x + y for x, y in zip(below[1:], below))]
    total = sum(gaps)
    return ExactTable(n, p, {d: Fraction(gaps[d], total) for d in range(1, n + 1)})


def enumerate_conditional_pmf(n, p, i) -> ExactTable:
    """Spacing pmf computed from the definition, over every survival pattern.

    Each pattern with more than i survivors contributes p**ones * (1-p)**zeros
    to the mass of its observed i-th gap; the masses are then normalized by
    their own total (the probability of the conditioning event).  One pass
    in integer weights sums the patterns in O(n(i + n)) updates.  The result
    sums to exactly 1.
    """
    n, i = _check_args(n, i)
    return _walk(n, _as_rational(p), i)


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
    return ExactTable(n, p, masses)
