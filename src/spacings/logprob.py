"""Log-domain probabilities and binomial log terms.

Probabilities at large grid sizes underflow double precision (for example
0.9**50001 is about 1e-2288), so sums in this package are carried out on
natural logarithms, with ``-inf`` as the exact representation of
probability zero.

Binomial probabilities come from the saddle-point form of C. Loader,
*Fast and Accurate Computation of Binomial Probabilities* (2000), the
algorithm behind R's ``dbinom``:

    log P(Bin(m, p) = k) = stirlerr(m) - stirlerr(k) - stirlerr(m-k)
                           - bd0(k, mp) - bd0(m-k, mq)
                           + 1/2 log(m / (2 pi k (m-k))),

where stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n/e)**n) is a table for
n <= 15 and its asymptotic series above, and bd0(x, mu) = x log(x/mu) + mu - x
is summed as a series in v = (x - mu)/(x + mu) near the mode.  Every term
is small or carried relative to its own size: no lgamma values of size
m log m are subtracted, so the log stays accurate at m = 10**12.  k = 0 and
k = m are the exact m log q and m log p, and -inf lies outside 0..m; no
mask is built when every entry lies strictly inside.  ``log_binom_pmf`` is
the package's one binomial log term: the exact law's tails, anchors and
block additions all take it, and its cost per element does not grow with
k.  ``LogProb``
stores a checked float and does no arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_float

_NEG_INF = float("-inf")

# Rounding slack: log-sum-exp over masses that sum to 1 can land a few ulp
# above 0; anything larger than this is a genuine contract violation.
_LOG_SLACK = 1e-9

_HALF_LOG_2PI = 0.918938533204672741780329736406
# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n/e)**n) for n = 0..15 (n = 0 unused)
_STIRLERR = np.array([
    0.0,
    0.08106146679532725821967026, 0.04134069595540929409382208,
    0.02767792568499833914878929, 0.02079067210376509311152277,
    0.01664469118982119216319487, 0.01387612882307074799874573,
    0.01189670994589177009505572, 0.01041126526197209649747857,
    0.009255462182712732917728637, 0.008330563433362871256469319,
    0.007573675487951840794972024, 0.006942840107209529865664153,
    0.006408994188004207068439631, 0.005951370112758847735624416,
    0.00555473355196280137103869,
])
# Coefficients of stirlerr(n) ~ 1/(12n) - 1/(360n^3) + 1/(1260n^5) - 1/(1680n^7)
# + 1/(1188n^9); past n = 15 the next term is below 1e-16.
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant


@dataclass(frozen=True)
class LogProb:
    """A probability stored as its natural logarithm.

    ``log`` is a float <= 0; ``-inf`` encodes exact probability zero.  It is
    stored as a Python float whatever number it was given, and a value
    ``float`` refuses raises DomainError.
    """

    log: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "log", check_float(self.log, "log-probability"))
        if math.isnan(self.log):
            raise DomainError("log-probability is NaN")
        if self.log > _LOG_SLACK:
            raise DomainError(f"log-probability {self.log} is above log(1)")
        if self.log > 0.0:
            object.__setattr__(self, "log", 0.0)


def log_pow(log_base: float, k) -> np.ndarray:
    """log(b**k) given log(b), with the 0**0 = 1 convention.

    k = 0 yields 0.0 even when log_base is -inf (b = 0), matching the
    convention that a vacuous power contributes a factor of one.  The result
    is an array of k's shape, 0-d for a scalar k.
    """
    k = np.asarray(k, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        return np.where(k == 0, 0.0, k * log_base)


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """stirlerr(n) for integer-valued n >= 1: the table to 15, the series above."""
    big = np.maximum(n, 16.0)
    with np.errstate(over="ignore"):  # past n = 1.3e154 r is 0 and the series S0/n
        r = 1.0 / (big * big)
    series = (_S0 - (_S1 - (_S2 - (_S3 - _S4 * r) * r) * r) * r) / big
    return np.where(n <= 15, _STIRLERR[np.minimum(n, 15).astype(np.intp)], series)


def _bd0(x: np.ndarray, mu: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """x log(x/mu) + mu - x for x, mu > 0, given diff = x - mu to full accuracy.

    Near the mode (|diff| < (x + mu) / 10) it is summed as
    diff v + 2x (v**3/3 + v**5/5 + ...) with v = diff / (x + mu), |v| < 1/10,
    which keeps relative accuracy where the direct form cancels.
    """
    near = np.abs(diff) < 0.1 * (x + mu)
    v = np.where(near, diff / (x + mu), 0.0)
    out = diff * v
    term = 2.0 * x * v
    v2 = v * v
    for j in range(1, 40):  # each term is below 1/100 of the one before
        term = term * v2
        nxt = out + term / (2 * j + 1)
        if np.array_equal(nxt, out):
            break
        out = nxt
    with np.errstate(over="ignore"):
        log_ratio = np.log1p(diff / mu)
    # x / mu beyond the largest double (mu subnormal): take the logs apart
    log_ratio = np.where(np.isfinite(log_ratio), log_ratio, np.log(x) - np.log(mu))
    return np.where(near, out, x * log_ratio - diff)


def _split(a):
    """a = hi + lo with hi holding the top 26 bits (Veltkamp)."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b):
    """(hi, lo) with hi = fl(a * b) and hi + lo = a * b exactly (Dekker)."""
    hi = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _as_result(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def _log_pmf_inner(k: np.ndarray, m: np.ndarray, p: float) -> np.ndarray:
    """log P(Bin(m, p) = k) for 0 < k < m, either argument broadcast against the other."""
    hi, lo = _two_product(m, p)  # mp = hi + lo
    diff = (k - hi) - lo  # k - mp, and mp - k = (m-k) - mq
    return (_stirlerr(m) - _stirlerr(k) - _stirlerr(m - k)
            + 0.5 * np.log(m / (k * (m - k))) - _HALF_LOG_2PI
            - _bd0(k, hi, diff) - _bd0(m - k, (m - hi) - lo, -diff))


def log_binom_pmf(k, m, p: float) -> float | np.ndarray:
    """log P(Binomial(m, p) = k) for integers k, m and p in (0, 1].

    Loader's saddle-point form (see the module docstring); -inf where k < 0
    or k > m.  mp is carried as an exact two-double product, so k - mp is
    exact near the mode and the log keeps its accuracy at m = 10**12.  When
    every entry has 0 < k < m no mask is built and the arguments are not
    broadcast, so a scalar k (the exact law's i-1) or m is evaluated once.
    """
    m, k = np.asarray(m, dtype=np.float64), np.asarray(k, dtype=np.float64)
    if p == 1.0:  # all mass sits at k = m; the edge value's log1p(-p) would raise
        return _as_result(np.where(k == m, 0.0, _NEG_INF))
    is_inner = (k > 0) & (k < m)
    if is_inner.size and is_inner.all():  # an empty block is not inner: k may be 0
        return _as_result(_log_pmf_inner(k, m, p))
    m, k = np.broadcast_arrays(m, k)
    out = np.where(k == 0, m * math.log1p(-p), np.where(k == m, m * math.log(p), _NEG_INF))
    if is_inner.any():
        out[is_inner] = _log_pmf_inner(k[is_inner], m[is_inner], p)
    return _as_result(out)
