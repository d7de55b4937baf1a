"""Exact distribution of spacings in a Bernoulli-thinned uniform grid.

The model: the n+1 equally spaced points {0, 1/n, ..., 1} are thinned by
keeping each point independently with probability p.  Conditioned on more
than i points surviving, the gap between the i-th and (i+1)-th survivors,
measured in grid steps d = 1..n, has the probability mass function

    f(d) = p**(i+1) * (1-p)**(d-1) * S(n-d)  /  P(more than i survivors)

where S(m) = sum_{j=i-1..m} C(j, i-1) (1-p)**(j-i+1) accumulates the
possible positions of the i-th survivor and the denominator is a binomial
survival probability.  As n grows this law converges to the geometric
distribution with parameter p.

Everything here is evaluated in log domain (see :mod:`spacings.logprob`)
so that grid sizes up to 1e6 neither underflow nor lose normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, check_int, check_p
from .logprob import (
    LogProb,
    log_binomial,
    log_binomial_fixed_k,
    log_pow,
)

_NEG_INF = float("-inf")

# Terms this many nats below the running maximum of a unimodal sum are
# collectively negligible (n * exp(-60) < 1e-19 even at n = 1e6).
_CUTOFF_NATS = 60.0
_CHUNK = 4096


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


def _logsumexp_unimodal(logterm, lo: int, hi: int, peak: int) -> float:
    """Log-sum-exp of a unimodal log-term sequence over lo..hi (inclusive).

    Scans in chunks and stops once the index is past ``peak`` and the latest
    chunk sits more than _CUTOFF_NATS below the running maximum; the dropped
    tail is negligible relative to the total.
    """
    if lo > hi:
        return _NEG_INF
    chunks = []
    gmax = _NEG_INF
    a = lo
    while a <= hi:
        b = min(a + _CHUNK, hi + 1)
        lt = logterm(np.arange(a, b))
        chunks.append(lt)
        m = float(lt.max())
        if m > gmax:
            gmax = m
        if a > peak and m < gmax - _CUTOFF_NATS:
            break
        a = b
    if gmax == _NEG_INF:
        return _NEG_INF
    acc = 0.0
    for lt in chunks:
        acc += float(np.exp(lt - gmax).sum())
    return gmax + math.log(acc)


def _survivor_weight_logsum(i: int, log_q: float, lo: int, hi: int) -> float:
    """log sum_{j=lo..hi} C(j, i-1) (1-p)**(j-i+1), the i-th-survivor weights."""
    if lo > hi:
        return _NEG_INF
    if log_q == _NEG_INF:
        # p = 1: only the j = i-1 term survives, with weight C(i-1, i-1) = 1
        return 0.0 if lo <= i - 1 <= hi else _NEG_INF
    p = -math.expm1(log_q)
    # term ratio crosses 1 at j ~ (i - 2 + q) / p
    peak = int(math.ceil((i - 2 + (1.0 - p)) / p)) + 1

    def logterm(j: np.ndarray) -> np.ndarray:
        return log_binomial_fixed_k(j, i - 1) + (j - (i - 1)) * log_q

    return _logsumexp_unimodal(logterm, lo, hi, peak)


def _binom_lower_logsum(n: int, p: float, i: int) -> float:
    """log P(Binomial(n+1, p) <= i)."""
    log_q = math.log1p(-p)
    k = np.arange(0, i + 1)
    lt = log_binomial(n + 1, k) + k * math.log(p) + (n + 1 - k) * log_q
    m = float(lt.max())
    return m + math.log(float(np.exp(lt - m).sum()))


def unconditional_spacing_prob(params: ModelParams, d) -> LogProb:
    """P(the i-th spacing equals d grid steps), before conditioning.

    Sums, over every admissible position j of the i-th survivor, the chance
    of i-1 survivors among the first j points, survival at j, a run of d-1
    eliminations, and survival at j+d.  Empty sums (no room for i earlier
    survivors, d > n-i+1) give exact probability zero.
    """
    d = check_int(d, "d", 1, params.n)
    n, p, i = params.n, params.p, params.i
    if i - 1 > n - d:
        return LogProb.zero()
    log_q = math.log1p(-p) if p < 1.0 else _NEG_INF
    ls = _survivor_weight_logsum(i, log_q, i - 1, n - d)
    return LogProb((i + 1) * math.log(p) + log_pow(log_q, d - 1) + ls)


def size_tail(n, p, i) -> LogProb:
    """P(Binomial(n+1, p) > i): the chance of more than i survivors.

    The smaller of the two binomial tails is summed directly in log domain;
    the other side is recovered through log1p.  Summing the small side
    avoids the catastrophic cancellation of 1 - (lower tail) when the
    survival probability is itself tiny.
    """
    n = check_int(n, "n", 1)
    p = check_p(p)
    i = check_int(i, "i", 0, n)
    if p == 1.0:
        return LogProb.one()  # all n+1 points survive and i <= n
    mode = int((n + 2) * p)
    if i < mode:
        # lower tail is the small side (at most ~0.7); complement is safe
        ll = _binom_lower_logsum(n, p, i)
        return LogProb(math.log1p(-math.exp(ll)))
    # upper tail is the small side: sum k = i+1 .. n+1 directly
    log_q = math.log1p(-p)
    lp = math.log(p)

    def logterm(k: np.ndarray) -> np.ndarray:
        return log_binomial(n + 1, k) + k * lp + (n + 1 - k) * log_q

    return LogProb(_logsumexp_unimodal(logterm, i + 1, n + 1, mode))


def pmf_scaled(params: ModelParams, d) -> float:
    """Conditional mass of a spacing of d grid steps, given > i survivors."""
    num = unconditional_spacing_prob(params, d)
    if num.is_zero:
        return 0.0
    den = size_tail(params.n, params.p, params.i)
    return math.exp(num.log - den.log)


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
    """Full conditional pmf over d = 1..n for one parameter triple."""

    params: ModelParams
    mass: np.ndarray

    @property
    def d(self) -> np.ndarray:
        return np.arange(1, self.params.n + 1)

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


@lru_cache(maxsize=32)
def _table_masses(params: ModelParams) -> np.ndarray:
    n, p, i = params.n, params.p, params.i
    mass = np.zeros(n)
    if p == 1.0:
        mass[0] = 1.0
    else:
        log_q = math.log1p(-p)
        # prefix log-sums of the survivor weights, shared by every d
        j = np.arange(i - 1, n)
        lt = log_binomial_fixed_k(j, i - 1) + (j - (i - 1)) * log_q
        m = float(lt.max())
        prefix = np.cumsum(np.exp(lt - m))
        with np.errstate(divide="ignore"):
            log_s = np.log(prefix) + m
        d = np.arange(1, n - i + 2)
        log_num = (i + 1) * math.log(p) + (d - 1) * log_q + log_s[(n - d) - (i - 1)]
        mass[: n - i + 1] = np.exp(log_num - size_tail(n, p, i).log)
    mass.flags.writeable = False
    return mass


def spacing_distribution(params: ModelParams) -> DistributionTable:
    """Tabulate the conditional pmf for every d = 1..n in one O(n) pass.

    Equivalent to calling :func:`pmf_scaled` for each d, but the survivor
    weight sums are shared through a single prefix accumulation.  Results
    are cached per parameter triple.
    """
    return DistributionTable(params, _table_masses(params))


def cdf_scaled(params: ModelParams, d) -> float:
    """P(spacing <= d grid steps | more than i survivors)."""
    d = check_int(d, "d", 1, params.n)
    return float(spacing_distribution(params).cdf[d - 1])


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

    The tail beyond J = i + ceil(60 / -log(1-p)) is below 1e-12 of the
    closed-form total for any i: the extra 60 nats of geometric decay
    dominate the polynomial binomial factor.
    """
    p = check_p(p)
    i = check_int(i, "i", 1)
    if p == 1.0:
        return i
    return i + int(math.ceil(60.0 / -math.log1p(-p)))


def binomial_sum_partial(p, i, J) -> tuple[float, float]:
    """Partial and closed values of sum_j C(j, i-1) (1-p)**j.

    Returns (partial, closed) with partial = sum_{j=0..J} C(j, i-1) (1-p)**j
    and closed = (1-p)**(i-1) / p**i, the full-series value.  The partial sum
    is nondecreasing in J, bounded by closed, and converges geometrically.

    Terms use exact integer binomials accumulated with math.fsum, so the
    partial carries only per-term rounding (~1e-15 relative) and truncation.
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

    partial = math.fsum(term(j) for j in range(i - 1, J + 1))
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
    return LogProb(min(_binom_lower_logsum(n, p, i), 0.0))
