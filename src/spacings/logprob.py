"""Log-domain probability arithmetic.

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
k = m are the exact m log q and m log p.  The coefficient ``log_binomial``
uses the same Stirling-error terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def logaddexp(a: float, b: float) -> float:
    """log(exp(a) + exp(b)) without overflow; tolerates -inf inputs."""
    if a == _NEG_INF:
        return b
    if b == _NEG_INF:
        return a
    m = a if a >= b else b
    return m + math.log1p(math.exp(-abs(a - b)))


@dataclass(frozen=True, order=True)
class LogProb:
    """A probability stored as its natural logarithm.

    ``log`` is a float <= 0; ``-inf`` encodes exact probability zero.
    Addition uses log-sum-exp and cannot overflow for inputs that are
    genuine probabilities; multiplication is addition of logs.
    """

    log: float

    def __post_init__(self) -> None:
        from .errors import DomainError

        if math.isnan(self.log):
            raise DomainError("log-probability is NaN")
        if self.log > _LOG_SLACK:
            raise DomainError(f"log-probability {self.log} is above log(1)")
        if self.log > 0.0:
            object.__setattr__(self, "log", 0.0)

    @classmethod
    def zero(cls) -> "LogProb":
        return cls(_NEG_INF)

    @classmethod
    def one(cls) -> "LogProb":
        return cls(0.0)

    @classmethod
    def from_prob(cls, value: float) -> "LogProb":
        from .errors import DomainError

        if not 0.0 <= value <= 1.0 + _LOG_SLACK:
            raise DomainError(f"probability {value} outside [0, 1]")
        if value == 0.0:
            return cls.zero()
        return cls(min(math.log(value), 0.0))

    @property
    def prob(self) -> float:
        return math.exp(self.log)

    @property
    def is_zero(self) -> bool:
        return self.log == _NEG_INF

    def __add__(self, other: "LogProb") -> "LogProb":
        return LogProb(logaddexp(self.log, other.log))

    def __mul__(self, other: "LogProb") -> "LogProb":
        return LogProb(self.log + other.log)


def log_pow(log_base: float, k) -> float | np.ndarray:
    """log(b**k) given log(b), with the 0**0 = 1 convention.

    k = 0 yields 0.0 even when log_base is -inf (b = 0), matching the
    convention that a vacuous power contributes a factor of one.
    """
    if np.isscalar(k):
        return 0.0 if k == 0 else k * log_base
    k = np.asarray(k, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        return np.where(k == 0, 0.0, k * log_base)


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """stirlerr(n) for integer-valued n >= 1: the table to 15, the series above."""
    big = np.maximum(n, 16.0)
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


def _stirling_core(k: np.ndarray, m: np.ndarray) -> np.ndarray:
    """stirlerr(m) - stirlerr(k) - stirlerr(m-k) + 1/2 log(m / (2 pi k (m-k))), 0 < k < m."""
    return (_stirlerr(m) - _stirlerr(k) - _stirlerr(m - k)
            + 0.5 * np.log(m / (k * (m - k))) - _HALF_LOG_2PI)


def _as_result(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def log_binomial(m, k) -> float | np.ndarray:
    """log of binomial(m, k) for integers m, k; -inf where k < 0 or k > m.

    Stirling form: k log1p((m-k)/k) + (m-k) log1p(k/(m-k)) plus the small
    Stirling-error terms, accurate to a few ulp of the result at any m.
    """
    m, k = np.broadcast_arrays(np.asarray(m, dtype=np.float64),
                               np.asarray(k, dtype=np.float64))
    out = np.where((k == 0) | (k == m), 0.0, _NEG_INF)
    inner = (k > 0) & (k < m)
    if inner.any():
        kk, mm = k[inner], m[inner]
        rest = mm - kk
        out[inner] = (_stirling_core(kk, mm) + kk * np.log1p(rest / kk)
                      + rest * np.log1p(kk / rest))
    return _as_result(out)


def log_binom_pmf(k, m, p: float) -> float | np.ndarray:
    """log P(Binomial(m, p) = k) for integers k, m and p in (0, 1].

    Loader's saddle-point form (see the module docstring); -inf where k < 0
    or k > m.  mp is carried as an exact two-double product, so k - mp is
    exact near the mode and the log keeps its accuracy at m = 10**12.
    """
    m, k = np.broadcast_arrays(np.asarray(m, dtype=np.float64),
                               np.asarray(k, dtype=np.float64))
    if p == 1.0:
        return _as_result(np.where(k == m, 0.0, _NEG_INF))
    edge = np.where(k == 0, m * math.log1p(-p), m * math.log(p))
    out = np.where((k == 0) | (k == m), edge, _NEG_INF)
    inner = (k > 0) & (k < m)
    if inner.any():
        kk, mm = k[inner], m[inner]
        hi, lo = _two_product(mm, p)  # mp = hi + lo
        diff = (kk - hi) - lo  # k - mp, and mp - k = (m-k) - mq
        out[inner] = (_stirling_core(kk, mm) - _bd0(kk, hi, diff)
                      - _bd0(mm - kk, (mm - hi) - lo, -diff))
    return _as_result(out)


def log_binomial_fixed_k(j, k: int) -> float | np.ndarray:
    """log of binomial(j, k) for a fixed small k, as an exact product.

    Writing C(j, k) = prod_{t=1..k} (j - k + t) / t keeps the absolute error
    of the log near k ulp; the exact law builds its survivor-weight terms
    from it.  Falls back to the Stirling form of :func:`log_binomial` for
    k > 64, where the product form stops being cheap.
    """
    if k > 64:
        return log_binomial(j, k)
    scalar = np.isscalar(j)
    j = np.asarray(j, dtype=np.float64)
    out = np.zeros(j.shape, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        for t in range(1, k + 1):
            out += np.log(j - k + t)
    out -= math.lgamma(k + 1)
    out = np.where(j >= k, out, _NEG_INF)
    if scalar:
        return float(out)
    return out
