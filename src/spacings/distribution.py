"""Exact distribution of spacings in a Bernoulli-thinned uniform grid.

The model: the n+1 equally spaced points {0, 1/n, ..., 1} are thinned by
keeping each point independently with probability p.  Conditioned on more
than i points surviving, the gap between the i-th and (i+1)-th survivors,
measured in grid steps d = 1..n, has the probability mass function

    f(d) = p**(i+1) * (1-p)**(d-1) * S(n-d)  /  T,   T = P(more than i survivors)

where S(m) = sum_{j=i-1..m} C(j, i-1) q**(j-i+1), q = 1-p, accumulates the
possible positions j of the i-th survivor.  As n grows this law converges
to the geometric distribution with parameter p.

The survivor weights converge: p**i C(j, i-1) q**(j-i+1) is the chance that
the i-th survivor sits at j (a negative-binomial law), so

    S(inf) = p**(-i)   and   1 - S(J) / S(inf) = P(Binomial(J+1, p) <= i-1),

the chance that fewer than i of the first J+1 points survive.  The table
kernel stops at the first J whose dropped relative tail is below 2**-55.
Every later term is part of that tail, so it is below 2**-55 S(inf), which
is below 2**-54 times the computed S(J) and hence below half an ulp of it
(a double x has ulp(x) > 2**-53 x).  Adding such a term leaves the running
sum unchanged, and by induction S(m) = S(J) to the last bit for every
m >= J.  The factor-2 margin covers the rounding of the computed terms and
of the binomial tail used to find J; the tests also compare the truncated
prefix with the full O(n) one, mass for mass.  J is found by bisection on
the binomial tail and cached per (p, i); it is about 38/p at i = 1, 6i/p at
i = 10 and 1.3i/p at i = 1000, and the kernel reads at most n-1 of it,
since S(n-d) is only read for n-d <= n-1.

Cost: the kernel caches log S(j) for j = i-1..J and log T, an O(J) state.
With it, the masses or cdf values of d = 1..k cost O(k), whatever n is
(``DistributionTable.head``, ``cdf_scaled``, ``pmf_scaled``); only the
full ``mass``/``cdf`` arrays are O(n).

Accuracy: masses agree with the closed form in exact rationals to 5e-13
relative wherever they are normal doubles (tested at n = 150..400, i <= 150,
including i - 1 > 64 where log C(j, i-1) takes the Stirling form).  log T
comes from binomial terms of :func:`spacings.logprob.log_binom_pmf`, each
within 4e-15 (1 + |log term|) of exact, so it is accurate at n up to 10**12:
within 1e-12 of an exact-coefficient reference at (10**12, 1e-11, 10),
(10**9, 1e-8, 10) and (10**6, 1e-5, 10) (tested).  The smaller binomial tail
is summed from i outward with a 60-nat cut-off, O(min(i, sd)) terms.
Everything is evaluated in log domain (see :mod:`spacings.logprob`) so that
large grids neither underflow nor lose normalization.  Each kernel build
logs J, the dropped tail and log T at DEBUG level to the ``spacings``
logger, which is silent unless configured.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, check_int, check_p
from .logprob import (
    LogProb,
    log_binom_pmf,
    log_binomial_fixed_k,
    log_pow,
)

_NEG_INF = float("-inf")
_LOG = logging.getLogger("spacings")

# Terms this many nats below the running maximum of a unimodal sum are
# collectively negligible (n * exp(-60) < 1e-19 even at n = 1e6).
_CUTOFF_NATS = 60.0
_CHUNK = 4096
# A relative series tail below 2**-55 leaves every later term under half an
# ulp of the sum, with a factor 2 to spare for rounding.
_LOG_TAIL_BOUND = -55 * math.log(2.0)


@dataclass(frozen=True)
class ModelParams:
    """Grid size n, survival probability p, spacing index i.

    The grid has n+1 points; the i-th spacing needs at least i+1 survivors,
    so 1 <= i <= n is required.
    """

    n: int
    p: float
    i: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_int(self.n, "n", 1))
        object.__setattr__(self, "p", check_p(self.p))
        object.__setattr__(self, "i", check_int(self.i, "i", 1, self.n))


def _logsumexp_unimodal(logterm, lo: int, hi: int, descending: bool = False) -> float:
    """Log-sum-exp of a unimodal log-term sequence over lo..hi (inclusive).

    Scans in chunks of _CHUNK indices, upward from lo (downward from hi when
    ``descending``), and stops once a chunk sits more than _CUTOFF_NATS below
    the running maximum.  In a unimodal sequence such a chunk is past the
    peak, so every later term is smaller still and the dropped tail is
    negligible relative to the total.
    """
    if lo > hi:
        return _NEG_INF
    chunks = []
    gmax = _NEG_INF
    while lo <= hi:
        if descending:
            a, b = max(lo, hi + 1 - _CHUNK), hi + 1
            hi = a - 1
        else:
            a, b = lo, min(lo + _CHUNK, hi + 1)
            lo = b
        lt = logterm(np.arange(a, b))
        chunks.append(lt)
        m = float(lt.max())
        if m > gmax:
            gmax = m
        if m < gmax - _CUTOFF_NATS:
            break
    if gmax == _NEG_INF:
        return _NEG_INF
    acc = 0.0
    for lt in chunks:
        acc += float(np.exp(lt - gmax).sum())
    return gmax + math.log(acc)


def _binom_lower_logsum(n: int, p: float, i: int) -> float:
    """log P(Binomial(n+1, p) <= i), summed from k = i downward."""
    return _logsumexp_unimodal(lambda k: log_binom_pmf(k, n + 1, p), 0, i, descending=True)


def _binom_tails(n: int, p: float, i: int) -> tuple[float, float]:
    """(log P(Binomial(n+1, p) <= i), log P(Binomial(n+1, p) > i)) for p < 1.

    The smaller side is summed directly in log domain, from i outward, and
    the other is recovered through log1p; summing the small side avoids the
    catastrophic cancellation of 1 - (other side) when it is itself tiny.
    The 60-nat cut-off bounds the cost by O(min(i, sd)) terms, not O(n).
    """
    mode = int((n + 2) * p)
    if i < mode:
        # lower tail is the small side (at most ~0.7); complement is safe
        low = _binom_lower_logsum(n, p, i)
        return low, math.log1p(-math.exp(low))
    # upper tail is the small side: sum k = i+1 .. n+1 directly
    up = _logsumexp_unimodal(lambda k: log_binom_pmf(k, n + 1, p), i + 1, n + 1)
    return math.log1p(-math.exp(up)), up


@lru_cache(maxsize=256)
def _series_stop(p: float, i: int) -> int:
    """First J >= i-1 with P(Binomial(J+1, p) <= i-1) < 2**-55.

    That probability is the relative tail of S dropped after j = J (see the
    module docstring); it decreases in J, so a doubling search followed by
    bisection finds J in O(log J) tail evaluations of at most O(i) each.
    J does not depend on n, so every grid size at one (p, i) shares the search.
    """
    if p == 1.0:
        return i - 1  # only the j = i-1 term is nonzero

    def converged(J: int) -> bool:
        return _binom_lower_logsum(J, p, i - 1) < _LOG_TAIL_BOUND

    # the tail at J = i-1 is 1 - p**i >= 1 - p >= 2**-53, so lo never converges
    lo, step = i - 1, math.ceil(i / p)
    while not converged(lo + step):
        lo, step = lo + step, 2 * step
    hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if converged(mid) else (mid, hi)
    return hi


@lru_cache(maxsize=32)
def _table_masses(params: ModelParams) -> tuple[np.ndarray, float]:
    """(log S(j) for j = i-1..J, log T): the O(J) state behind every mass."""
    n, p, i = params.n, params.p, params.i
    # J >= i (the tail at i-1 is 1 - p**i), so when the grid ends by j = i the
    # whole prefix is read whatever J is, and the O(i)-per-probe search is moot
    stop = n - 1 if n - 1 <= i else min(_series_stop(p, i), n - 1)
    if p == 1.0:
        log_s = np.zeros(1)  # only j = i-1 carries weight, C(i-1, i-1) = 1
    else:
        log_q = math.log1p(-p)
        j = np.arange(i - 1, stop + 1)
        lt = log_binomial_fixed_k(j, i - 1) + (j - (i - 1)) * log_q
        m = float(lt.max())
        with np.errstate(divide="ignore"):
            log_s = np.log(np.cumsum(np.exp(lt - m))) + m
    log_s.flags.writeable = False
    log_t = size_tail(n, p, i).log
    if _LOG.isEnabledFor(logging.DEBUG):
        converged = stop < n - 1 and p < 1.0
        dropped = _binom_lower_logsum(stop, p, i - 1) if converged else _NEG_INF
        _LOG.debug("survivor-weight prefix n=%d p=%r i=%d: J=%d, log dropped tail=%.6g, "
                   "log T=%.17g", n, p, i, stop, dropped, log_t)
    return log_s, log_t


def _log_numerators(params: ModelParams, log_s: np.ndarray, d: np.ndarray) -> np.ndarray:
    """log p**(i+1) q**(d-1) S(n-d) for steps d in 1..n-i+1, S read from the prefix."""
    n, p, i = params.n, params.p, params.i
    log_q = math.log1p(-p) if p < 1.0 else _NEG_INF
    k = np.minimum(n - d - (i - 1), log_s.size - 1)
    return (i + 1) * math.log(p) + log_pow(log_q, d - 1) + log_s[k]


def _masses(params: ModelParams, d: np.ndarray) -> np.ndarray:
    """Conditional masses at an int array of steps d in 1..n; zero past n-i+1."""
    log_s, log_t = _table_masses(params)
    out = np.zeros(d.shape)
    live = d <= params.n - params.i + 1
    out[live] = np.exp(_log_numerators(params, log_s, d[live]) - log_t)
    return out


def unconditional_spacing_prob(params: ModelParams, d) -> LogProb:
    """P(the i-th spacing equals d grid steps), before conditioning.

    Sums, over every admissible position j of the i-th survivor, the chance
    of i-1 survivors among the first j points, survival at j, a run of d-1
    eliminations, and survival at j+d.  Empty sums (no room for i earlier
    survivors, d > n-i+1) give exact probability zero.
    """
    d = check_int(d, "d", 1, params.n)
    if d > params.n - params.i + 1:
        return LogProb.zero()
    log_s, _ = _table_masses(params)
    return LogProb(float(_log_numerators(params, log_s, np.array([d]))[0]))


def size_tail(n, p, i) -> LogProb:
    """P(Binomial(n+1, p) > i): the chance of more than i survivors.

    The smaller binomial tail is summed from i outward in log domain (see
    ``_binom_tails``), so the cost is O(min(i, sd)) whatever n is.
    """
    n = check_int(n, "n", 1)
    p = check_p(p)
    i = check_int(i, "i", 0, n)
    if p == 1.0:
        return LogProb.one()  # all n+1 points survive and i <= n
    return LogProb(_binom_tails(n, p, i)[1])


def pmf_scaled(params: ModelParams, d) -> float:
    """Conditional mass of a spacing of d grid steps, given > i survivors.

    Bit-equal to ``spacing_distribution(params).mass[d - 1]``: both read the
    same cached survivor-weight prefix.
    """
    d = check_int(d, "d", 1, params.n)
    return float(_masses(params, np.array([d]))[0])


def pmf_delta(params: ModelParams, delta) -> float:
    """Same mass addressed by the unscaled gap length delta = d/n.

    Rejects delta whose product with n is not an integer: the two supports
    are in bijection through d = n * delta.
    """
    d_real = float(delta) * params.n
    if not math.isfinite(d_real) or abs(d_real - round(d_real)) > 1e-9:
        raise DomainError(f"delta={delta} is not a multiple of 1/n")
    return pmf_scaled(params, round(d_real))


@dataclass(frozen=True)
class DistributionTable:
    """Conditional pmf over d = 1..n for one parameter triple.

    Masses come from the cached O(J) survivor-weight prefix.  ``head(k)``
    returns the first k masses and cdf values in O(k + J); the full ``mass``
    and ``cdf`` arrays (read-only) are built on first access only.
    """

    params: ModelParams

    @property
    def d(self) -> np.ndarray:
        return np.arange(1, self.params.n + 1)

    def head(self, k) -> tuple[np.ndarray, np.ndarray]:
        """Masses and cdf values for d = 1..k."""
        k = check_int(k, "k", 0, self.params.n)
        mass = _masses(self.params, np.arange(1, k + 1))
        return mass, np.cumsum(mass)

    @cached_property
    def mass(self) -> np.ndarray:
        out = _masses(self.params, self.d)
        out.flags.writeable = False
        return out

    @cached_property
    def cdf(self) -> np.ndarray:
        out = np.cumsum(self.mass)
        out.flags.writeable = False
        return out

    @property
    def total(self) -> float:
        return float(self.mass.sum())

    def __iter__(self):
        return zip(self.d.tolist(), self.mass.tolist())

    def validate(self, tol: float = 1e-10) -> None:
        n, i = self.params.n, self.params.i
        if abs(self.total - 1.0) > tol:
            raise DomainError(f"masses sum to {self.total}, not 1")
        if np.any(self.mass < 0.0):
            raise DomainError("negative mass")
        if np.any(self.mass[n - i + 1 :] != 0.0):
            raise DomainError("nonzero mass beyond the support cutoff n-i+1")


def spacing_distribution(params: ModelParams) -> DistributionTable:
    """The conditional pmf for every d = 1..n, as a lazy table.

    Builds (or takes from the cache) the survivor-weight prefix shared by
    every d; no n-length array is allocated until ``mass`` or ``cdf`` is read.
    """
    _table_masses(params)
    return DistributionTable(params)


def cdf_scaled(params: ModelParams, d) -> float:
    """P(spacing <= d grid steps | more than i survivors), in O(d + J)."""
    d = check_int(d, "d", 1, params.n)
    return float(spacing_distribution(params).head(d)[1][-1])


def cdf_scaled_closed_i1(n, p, d) -> float:
    """Closed form of :func:`cdf_scaled` for i = 1.

    For the first spacing the survivor-weight sum is a geometric series and
    the whole cdf collapses to

        [1 - q**d - d p q**n] / [1 - q**(n+1) - (n+1) p q**n],  q = 1-p.

    Evaluated through log1p/expm1 so that n ~ 1e6 underflows the q**n
    corrections gracefully instead of producing 0/0.
    """
    n = check_int(n, "n", 1)
    p = check_p(p)
    d = check_int(d, "d", 1, n)
    if p == 1.0:
        return 1.0  # numerator and denominator both reduce to 1
    log_q = math.log1p(-p)
    qn = math.exp(n * log_q)
    num = -math.expm1(d * log_q) - d * p * qn
    den = -math.expm1((n + 1) * log_q) - (n + 1) * p * qn
    return num / den


def _limit_steps(d) -> np.ndarray:
    """d, an int or an integer array of values >= 1, as float64."""
    if np.ndim(d) == 0:
        return np.float64(check_int(d, "d", 1))
    d = np.asarray(d)
    if d.size and (d.dtype.kind not in "iu" or d.min() < 1):
        raise DomainError(f"d needs integer values >= 1, got a {d.dtype} array")
    return d.astype(np.float64)


def limit_pmf(p, d):
    """Geometric(p) mass p (1-p)**(d-1): the n -> infinity law of spacings.

    ``d`` is an int or integer array; the result is a float, or an array of
    d's shape.
    """
    p, x = check_p(p), _limit_steps(d)
    if p == 1.0:
        out = (x == 1.0).astype(np.float64)
    else:
        out = p * np.exp((x - 1.0) * math.log1p(-p))
    return float(out) if np.ndim(d) == 0 else out


def limit_cdf(p, d):
    """Geometric(p) cdf 1 - (1-p)**d, for an int or integer array ``d``.

    The result is a float, or an array of d's shape.
    """
    p, x = check_p(p), _limit_steps(d)
    out = np.ones_like(x) if p == 1.0 else -np.expm1(x * math.log1p(-p))
    return float(out) if np.ndim(d) == 0 else out


def survivor_index_pmf(n, p, i, j) -> LogProb:
    """P(the i-th survivor sits at grid index j).

    Requires i-1 survivors among the first j points and survival at j:
    C(j, i-1) p**i (1-p)**(j-i+1) for j >= i-1, zero below.  Summed over
    j = 0..n together with P(fewer than i survivors) this exhausts all
    outcomes.
    """
    params = ModelParams(n, p, i)
    n, p, i = params.n, params.p, params.i
    j = check_int(j, "j", 0, n)
    if j < i - 1:
        return LogProb.zero()
    log_q = math.log1p(-p) if p < 1.0 else _NEG_INF
    lb = log_binomial_fixed_k(j, i - 1)
    return LogProb(lb + i * math.log(p) + log_pow(log_q, j - i + 1))


def binomial_sum_stop_index(p, i) -> int:
    """Truncation point past which the survivor-weight series has converged.

    The larger of i + ceil(60 / -log(1-p)) and the table kernel's J, the
    first index whose dropped relative tail P(Binomial(J+1, p) <= i-1) is
    below 2**-55.  The 60-nat rule alone ignores the negative-binomial mean
    i/p and truncates inside the bulk once i is large; the kernel's J bounds
    the tail for any i.
    """
    p = check_p(p)
    i = check_int(i, "i", 1)
    if p == 1.0:
        return i
    return max(i + int(math.ceil(60.0 / -math.log1p(-p))), _series_stop(p, i))


def binomial_sum_partial(p, i, J) -> tuple[float, float]:
    """Partial and closed values of sum_j C(j, i-1) (1-p)**j.

    Returns (partial, closed) with partial = sum_{j=0..J} C(j, i-1) (1-p)**j
    and closed = (1-p)**(i-1) / p**i, the full-series value.  The partial sum
    is nondecreasing in J, bounded by closed, and converges geometrically.

    Terms use exact integer binomials accumulated with math.fsum, so the
    partial carries only per-term rounding (~1e-15 relative) and truncation.
    A partial beyond the largest double is inf, as closed is.
    """
    p = check_p(p)
    i = check_int(i, "i", 1)
    J = check_int(J, "J", 0)
    q = 1.0 - p
    log_q = math.log1p(-p) if p < 1.0 else _NEG_INF

    def term(j: int) -> float:
        c = math.comb(j, i - 1)
        if c.bit_length() <= 1020:
            return c * q**j
        # binomial too large for a float on its own; pair it with the decay
        return math.exp(log_binomial_fixed_k(j, i - 1) + j * log_q)

    try:
        partial = math.fsum(term(j) for j in range(i - 1, J + 1))
    except OverflowError:  # a term, or the running sum, beyond the largest double
        partial = math.inf
    if p == 1.0:
        closed = 1.0 if i == 1 else 0.0
    else:
        log_closed = (i - 1) * log_q - i * math.log(p)
        closed = math.exp(log_closed) if log_closed < 709.0 else math.inf
    return partial, closed


def binomial_cdf_tail_check(n, p, i) -> LogProb:
    """log P(Binomial(n+1, p) <= i): the conditioning defect at size n.

    This lower tail is what the pmf denominator subtracts from 1; it decays
    to zero as n grows at fixed i and p, which is what makes the conditional
    law approach the geometric limit.
    """
    n = check_int(n, "n", 1)
    p = check_p(p)
    i = check_int(i, "i", 0, n)
    if p == 1.0:
        return LogProb.zero()
    return LogProb(min(_binom_tails(n, p, i)[0], 0.0))
