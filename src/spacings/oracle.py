"""Brute-force verification of the spacing law by exhaustive enumeration.

Every survival pattern of the n+1 grid points is visited and weighted with
exact rational arithmetic, so the conditional spacing distribution is
computed straight from its definition with no closed form involved.  The
same table evaluated through the closed-form expression (also in exact
rationals) must then agree term by term.

The enumeration walks 2**(n+1) patterns and is capped at n = 16; beyond
that it adds cost but no verification value.  The walk still visits every
pattern, with no combinatorial shortcut, but in numpy batches of 2**13
uint32 masks: at n = 16 it takes a few milliseconds, and its working
memory is a 2**(n+1)-entry uint8 popcount table plus one batch, under
0.5 MiB (tested below 1 MiB).  The counts it produces are exact integers
and the weights exact fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError, EnumerationLimitError, check_int

# Exact probabilities are plain stdlib fractions (always in lowest terms).
Rational = Fraction

MAX_ENUMERATION_N = 16
_MASK_CHUNK = 1 << 13  # patterns per numpy batch


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


@dataclass(frozen=True)
class ExactTable:
    """Conditional spacing pmf with exact rational masses over d = 1..n."""

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
    """(survivor count, i-th gap, multiplicity) over all qualifying patterns.

    Bit j of a mask is the survival of grid point j.  The masks are walked
    in numpy chunks of 2**13: popcounts come from a table built by
    doubling, ``rest &= rest - 1`` drops the survivors before the i-th, and
    with l < h the values of the lowest two remaining bits, the gap is the
    popcount of h - l.  Every pattern is still visited; only the counting
    is batched.
    """
    bits = n + 1
    popcount = np.zeros(1, dtype=np.uint8)
    while popcount.size < 1 << bits:
        popcount = np.concatenate([popcount, popcount + 1])
    counts = np.zeros((bits + 1) * bits, dtype=np.int64)  # index ones * bits + gap
    step = min(_MASK_CHUNK, 1 << bits)
    for start in range(0, 1 << bits, step):
        rest = np.arange(start, start + step, dtype=np.uint32)
        ones = popcount[rest].astype(np.int64)
        keep = ones > i
        rest, ones = rest[keep], ones[keep]
        for _ in range(i - 1):
            rest &= rest - 1  # drop survivors before the i-th
        lo = rest & ~(rest - 1)
        rest &= rest - 1
        hi = rest & ~(rest - 1)
        counts += np.bincount(ones * bits + popcount[hi - lo], minlength=counts.size)
    return tuple((key // bits, key % bits, c)
                 for key, c in enumerate(counts.tolist()) if c)


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
