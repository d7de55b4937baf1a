"""Exact distribution of spacings in a Bernoulli-thinned uniform grid.

The model: the n+1 equally spaced points {0, 1/n, ..., 1} are thinned by
keeping each point independently with probability p.  Conditioned on more
than i points surviving, the gap between the i-th and (i+1)-th survivors,
measured in grid steps d = 1..n, has the probability mass function

    f(d) = p**(i+1) * (1-p)**(d-1) * S(n-d)  /  T,   T = P(more than i survivors)

where S(m) = sum_{j=i-1..m} C(j, i-1) q**(j-i+1), q = 1-p, accumulates the
possible positions j of the i-th survivor.  As n grows this law converges
to the geometric distribution with parameter p.

The survivor weights form a negative-binomial law (p**i C(j, i-1)
q**(j-i+1) is the chance that the i-th survivor sits at j), so
p**i S(m) = U(m+1) with U(M) = P(Binomial(M, p) >= i), and

    f(d) = p q**(d-1) U(n-d+1) / T.

The kernel evaluates it in blocks of 4096 steps d: one anchor tail U at the
block's largest d, from the binomial-tail sum behind T (``_binom_tails``),
then positive additions only toward smaller d,
U(M+1) = U(M) + p P(Binomial(M, p) = i-1).  Nothing cancels, and a mass
depends on (n, p, i, d) alone, whichever call asks for it.

Cost: log T is cached per parameter triple and the masses per (triple,
block), at most 128 blocks.  The masses or cdf values of d = 1..k cost
O(k + min(i, sd)) per block touched, sd the binomial standard deviation,
whatever n and p are (``DistributionTable.head``, ``cdf_scaled``,
``pmf_scaled``); only the full ``mass``/``cdf`` arrays are O(n).  A prefix
d = 1..k is read by one reader (``_masses``), which allocates its output
once and copies each block's log numerators into it, so it holds the output
plus one 4096-step block; a k whose output this host cannot hold raises
DomainError, with numpy's message, before any block is computed.

Accuracy: masses agree with the closed form in exact rationals to 5e-13
relative wherever they are normal doubles (tested at n = 150..400, i <= 150;
8e-14 at i = 63..65).  A mass is exp of a difference of logs as large as
L = (i+1)|log p| + n|log q| nats, and a double near L resolves only about
1e-16 L, so past L = 250 the bound is 2e-15 L (tested over any float p,
n <= 400).  At tiny p the largest mass errors against exact rationals are
2.0e-13 at (n, p, i) = (400, 1e-5, 50), 4.7e-12 at (300, 1e-30, 150) and
7.1e-12 at (1000, 1e-20, 500): 0.17, 0.23 and 0.15 of that bound.  Every
binomial term, of log T, of each block's anchor and of its additions, is
:func:`spacings.logprob.log_binom_pmf`, within 4e-15 (1 + |log term|) of
exact, so the law stays accurate at n up to 10**12: log T is within 1e-12 of
an exact-coefficient reference at (10**12, 1e-11, 10), (10**9, 1e-8, 10) and
(10**6, 1e-5, 10), each addition near the mode within 4e-15 nats of a
70-digit Stirling reference at M = 10**6, 10**9 and 10**12, and U carried by
the additions across a block seam within 3e-15 relative of the next anchor
(tested, within 1e-14 and 1e-13).  The smaller binomial tail is summed from
i outward with a 60-nat cut-off, O(min(i, sd)) terms.
Everything is evaluated in log domain (see :mod:`spacings.logprob`) so that
large grids neither underflow nor lose normalization.  Each parameter
triple logs its log T at DEBUG level to the ``spacings`` logger, which is
silent unless configured.  The line is written only once ``logging`` has
been imported: until then no handler or level exists that could show it,
so the module does not import ``logging`` itself.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import GRID_N_MAX, DomainError, check_int, check_ints, check_p, checked_allocation
from .logprob import LogProb, log_binom_pmf, log_pow

_NEG_INF = float("-inf")

# Terms this many nats below the running maximum of a unimodal sum are
# collectively negligible (n * exp(-60) < 1e-19 even at n = 1e6).
_CUTOFF_NATS = 60.0
# Indices per numpy call: one chunk of a tail sum, one block of masses.
_CHUNK = 4096
# A relative series tail below 2**-55 leaves every later term under half an
# ulp of the sum, with a factor 2 to spare for rounding.
_LOG_TAIL_BOUND = -55 * math.log(2.0)
# The i = 1 closed form is refused below this (n+1)p, where its error passes 1e-12.
_CLOSED_FORM_MIN_NP = 1.25e-3
# The largest J of binomial_sum_partial, and so of binomial_sum_stop_index.
_PARTIAL_J_MAX = 2**20


@dataclass(frozen=True)
class ModelParams:
    """Grid size n, survival probability p, spacing index i.

    The grid has n+1 points, 1 <= n <= GRID_N_MAX; the i-th spacing needs at
    least i+1 survivors, so 1 <= i <= n is required.
    """

    n: int
    p: float
    i: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_int(self.n, "n", 1, GRID_N_MAX))
        object.__setattr__(self, "p", check_p(self.p))
        object.__setattr__(self, "i", check_int(self.i, "i", 1, self.n))


def _checked_params(params) -> ModelParams:
    """``params`` if it is a ModelParams, else DomainError, before any cache hashes it."""
    if not isinstance(params, ModelParams):
        raise DomainError(f"params must be a ModelParams, not {type(params).__name__}")
    return params


def _logsumexp_unimodal(logterm, lo: int, hi: int, descending: bool = False) -> float:
    """Log-sum-exp of a unimodal log-term sequence over lo..hi (inclusive).

    Scans in chunks of _CHUNK indices, upward from lo (downward from hi when
    ``descending``), and stops once a chunk sits more than _CUTOFF_NATS below
    the running maximum.  In a unimodal sequence such a chunk is past the
    peak, so every later term is smaller still and the dropped tail is
    negligible relative to the total.  The sum runs relative to the running
    maximum and is rescaled when a chunk raises it, so memory is O(_CHUNK).
    """
    acc, gmax = 0.0, _NEG_INF
    while lo <= hi:
        if descending:
            a, b = max(lo, hi + 1 - _CHUNK), hi + 1
            hi = a - 1
        else:
            a, b = lo, min(lo + _CHUNK, hi + 1)
            lo = b
        lt = logterm(np.arange(a, b))
        m = float(lt.max())
        if m > gmax:
            acc, gmax = acc * math.exp(gmax - m), m
        if m > _NEG_INF:
            acc += float(np.exp(lt - gmax).sum())
        if m < gmax - _CUTOFF_NATS:
            break
    return gmax + math.log(acc) if gmax > _NEG_INF else _NEG_INF


def _log_q(p: float) -> float:
    """log(1 - p), -inf at p = 1: there every later power of q is exactly zero."""
    return math.log1p(-p) if p < 1.0 else _NEG_INF


def _binom_tails(n: int, p: float, i: int) -> tuple[float, float]:
    """(log P(Binomial(n+1, p) <= i), log P(Binomial(n+1, p) > i)) for i <= n.

    The smaller side is summed directly in log domain, from i outward, and
    the other is recovered through log1p; summing the small side avoids the
    catastrophic cancellation of 1 - (other side) when it is itself tiny.
    The 60-nat cut-off bounds the cost by O(min(i, sd)) terms, not O(n).
    At p = 1 all n+1 trials succeed, so the tails are (0, 1) with no sum.
    """
    if p == 1.0:  # every term below k = n+1 is -inf: a scan would never stop early
        return _NEG_INF, 0.0

    def logterm(k):
        return log_binom_pmf(k, n + 1, p)

    mode = int((n + 2) * p)
    if i < mode:
        # lower tail is the small side (at most ~0.7); complement is safe
        low = _logsumexp_unimodal(logterm, 0, i, descending=True)
        return low, math.log1p(-math.exp(low))
    # upper tail is the small side: sum k = i+1 .. n+1 directly
    up = _logsumexp_unimodal(logterm, i + 1, n + 1)
    return math.log1p(-math.exp(up)), up


def _series_stop(p: float, i: int) -> int:
    """First J >= i with P(Binomial(J+1, p) <= i-1) < 2**-55.

    That probability is the relative tail of the survivor-weight series
    dropped after j = J; it decreases in J, so a doubling search followed by
    bisection finds J in O(log J) tail evaluations of at most O(i) each.
    At p = 1 every tail is zero and the search returns J = i.
    """
    def converged(J: int) -> bool:
        return _binom_tails(J, p, i - 1)[0] < _LOG_TAIL_BOUND

    # the search starts above J = i-1, whose tail 1 - p**i is >= 2**-53 for p < 1
    lo, step = i - 1, math.ceil(i / p)
    while not converged(lo + step):
        lo, step = lo + step, 2 * step
    hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if converged(mid) else (mid, hi)
    return hi


def _log_survivor_weight(j, p: float, i: int) -> float | np.ndarray:
    """log p**i C(j, i-1) q**(j-i+1), for j >= i-1: the i-th survivor sits at index j.

    That is log p + log P(Binomial(j, p) = i-1), in the one Loader form.
    Measured against a coefficient times explicit powers: 2.2x the time per
    term (0.63 against 0.29 ms per 4096-term block at (25000, 0.1, 10), on a
    2-vCPU Xeon) and up to 1.7x the mass error at tiny p far above the mode
    (7.1e-12 against 4.2e-12 at (1000, 1e-20, 500)); but near the mode at
    j = 10**12 those powers are logs of about j nats that cancel, and were
    off by up to 1.1e-4 nats, where this form is within 4e-15.
    """
    return math.log(p) + log_binom_pmf(i - 1, j, p)


@lru_cache(maxsize=32)
def _table_masses(params: ModelParams) -> float:
    """log T, the per-triple state shared by every block of masses."""
    log_t = size_tail(params.n, params.p, params.i).log
    logging = sys.modules.get("logging")  # not imported: nothing could show the line
    if logging is not None:
        logging.getLogger("spacings").debug("exact law n=%d p=%r i=%d: log T=%.17g",
                                            params.n, params.p, params.i, log_t)
    return log_t


@lru_cache(maxsize=128)
def _block_log_numerators(params: ModelParams, block: int) -> np.ndarray:
    """log p q**(d-1) U(n-d+1) for the steps d of one block; -inf past n-i+1.

    Block b holds d = b*_CHUNK+1 .. (b+1)*_CHUNK, cut at n.  U at its last
    nonzero d is one binomial tail; every smaller d adds the terms
    p P(Binomial(M, p) = i-1) = C(M, i-1) p**i q**(M-i+1) to it, the survivor
    weights at j = M.
    """
    n, p, i = params.n, params.p, params.i
    first = block * _CHUNK + 1
    out = np.full(min(_CHUNK, n - first + 1), _NEG_INF)
    last = min(first + out.size - 1, n - i + 1)
    if last >= first:
        m0 = n - last + 1  # U(m0) is the anchor, at d = last
        m = np.arange(m0, n - first + 1)
        anchor = _binom_tails(m0 - 1, p, i - 1)[1]
        lt = np.concatenate(([anchor], _log_survivor_weight(m, p, i)))
        top = float(lt.max())
        with np.errstate(divide="ignore"):  # sums that underflow to 0 give -inf
            log_u = np.log(np.cumsum(np.exp(lt - top))) + top  # U(m0) .. U(n-first+1)
        d = np.arange(first, last + 1)
        out[: d.size] = math.log(p) + log_pow(_log_q(p), d - 1) + log_u[::-1]
    out.flags.writeable = False
    return out


def _masses(params: ModelParams, k: int) -> np.ndarray:
    """Conditional masses of the steps d = 1..k; zero past n-i+1.

    The output is allocated once, before any block is computed, and a size
    this host cannot hold raises DomainError; each cached block's log
    numerators are copied into it, and log T is subtracted and the
    exponential taken in place.
    """
    with checked_allocation():
        out = np.empty(k)
    for start in range(0, k, _CHUNK):
        out[start : start + _CHUNK] = _block_log_numerators(params, start // _CHUNK)[: k - start]
    return np.exp(np.subtract(out, _table_masses(params), out=out), out=out)


def _checked_tails(n, p, i) -> tuple[float, float]:
    """``_binom_tails(n, p, i)`` after checking 1 <= n <= GRID_N_MAX, p and 0 <= i <= n."""
    n = check_int(n, "n", 1, GRID_N_MAX)
    p = check_p(p)
    i = check_int(i, "i", 0, n)
    return _binom_tails(n, p, i)


def size_tail(n, p, i) -> LogProb:
    """P(Binomial(n+1, p) > i): the chance of more than i survivors.

    The smaller binomial tail is summed from i outward in log domain (see
    ``_binom_tails``), so the cost is O(min(i, sd)) whatever n is.
    """
    return LogProb(_checked_tails(n, p, i)[1])


def pmf_scaled(params: ModelParams, d) -> float:
    """Conditional mass of a spacing of d grid steps, given > i survivors.

    Bit-equal to ``spacing_distribution(params).mass[d - 1]``: both read the
    same cached block.
    """
    d = check_int(d, "d", 1, _checked_params(params).n)
    # exp of a one-entry slice runs numpy's array kernel, as _masses does: the same bits
    b, j = divmod(d - 1, _CHUNK)
    return float(np.exp(_block_log_numerators(params, b)[j : j + 1] - _table_masses(params))[0])


@dataclass(frozen=True)
class DistributionTable:
    """Conditional pmf over d = 1..n for one parameter triple.

    Masses come from cached blocks of 4096 steps.  ``head(k)`` returns the
    first k masses and cdf values in O(k + min(i, sd)) per block touched; the
    full ``mass`` and ``cdf`` arrays (read-only) are built on first access only.
    Each read of d = 1..k allocates its output once and holds the output plus
    one block; a size this host cannot hold raises DomainError before any
    block is computed, and so does ``d`` for an n it cannot hold.
    """

    params: ModelParams

    def __post_init__(self) -> None:
        _checked_params(self.params)

    @property
    def d(self) -> np.ndarray:
        with checked_allocation():
            return np.arange(1, self.params.n + 1)

    def head(self, k) -> tuple[np.ndarray, np.ndarray]:
        """Masses and cdf values for d = 1..k."""
        k = check_int(k, "k", 0, self.params.n)
        mass = _masses(self.params, k)
        return mass, np.cumsum(mass)

    @cached_property
    def mass(self) -> np.ndarray:
        out = _masses(self.params, self.params.n)
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


def spacing_distribution(params: ModelParams) -> DistributionTable:
    """The conditional pmf for every d = 1..n, as a lazy table.

    Builds (or takes from the cache) the normalizer log T shared by every d;
    no n-length array is allocated until ``mass`` or ``cdf`` is read.
    """
    table = DistributionTable(params)
    _table_masses(params)
    return table


def cdf_scaled(params: ModelParams, d) -> float:
    """P(spacing <= d grid steps | more than i survivors).

    The running sum of the first d masses, in O(d + min(i, sd)) per block of
    4096 steps.
    """
    d = check_int(d, "d", 1, _checked_params(params).n)
    return float(spacing_distribution(params).head(d)[1][-1])


@lru_cache(maxsize=64)
def _closed_i1_terms(n: int, p: float) -> tuple[float, float, float]:
    """log q, q**n and the denominator of the i = 1 closed form, for a checked (n, p)."""
    if (n + 1) * p < _CLOSED_FORM_MIN_NP:
        raise DomainError(f"the i=1 closed form needs (n+1)p >= {_CLOSED_FORM_MIN_NP}, "
                          f"got {(n + 1) * p!r} at n={n}, p={p!r}")
    log_q = _log_q(p)  # -inf at p = 1, where both brackets are 1
    qn = math.exp(n * log_q)
    return log_q, qn, -math.expm1((n + 1) * log_q) - (n + 1) * p * qn


def cdf_scaled_closed_i1(n, p, d):
    """Closed form of :func:`cdf_scaled` for i = 1.

    For the first spacing the survivor-weight sum is a geometric series and
    the whole cdf collapses to

        [1 - q**d - d p q**n] / [1 - q**(n+1) - (n+1) p q**n],  q = 1-p.

    Evaluated through log1p/expm1 so that n ~ 1e6 underflows the q**n
    corrections gracefully instead of producing 0/0.

    Accuracy: within 1e-12 relative.  When (n+1)p is small both brackets
    cancel, the denominator to about ((n+1)p)**2 / 2 from terms near (n+1)p,
    so the relative error grows as about 1e-15 / ((n+1)p).  Against 80-digit
    references (every d for n < 300, 40 values of d at 331 sizes n up to
    10**12) it is at most 8.5e-13 at (n+1)p = 1.25e-3 (1.04e-12 at 1e-3),
    4.4e-13 at 2e-3, and a few ulp once (n+1)p >= 1.  Below
    (n+1)p = _CLOSED_FORM_MIN_NP = 1.25e-3, DomainError is raised; the summed
    :func:`cdf_scaled` has no such limit.

    ``d`` is an int or an integer array of values in 1..n; the result is a
    float, or an array of d's shape.  The arguments are checked on every
    call; log q, q**n and the denominator are computed once per checked
    (n, p) (``_closed_i1_terms``).  Each d then takes the same scalar
    ``math`` expressions, so an array entry equals the scalar call bit for
    bit.  Arrays are filled _CHUNK entries at a time.
    """
    n = check_int(n, "n", 1, GRID_N_MAX)
    p = check_p(p)
    # a plain int goes straight to check_int: scalar calls come by the million
    d = check_int(d, "d", 1, n) if type(d) is int else check_ints(d, "d", 1, n)
    log_q, qn, den = _closed_i1_terms(n, p)
    # the expression is spelled out twice, and the array's loop is a plain one: a
    # nested function or a comprehension would make these locals closure cells,
    # which cost every scalar call about 0.1 us
    if type(d) is int:
        return (-math.expm1(d * log_q) - d * p * qn) / den
    flat = d.ravel()
    out = np.empty(flat.size)
    for start in range(0, flat.size, _CHUNK):
        values = []
        for k in flat[start : start + _CHUNK].tolist():
            values.append((-math.expm1(k * log_q) - k * p * qn) / den)
        out[start : start + _CHUNK] = values
    return out.reshape(d.shape)


def limit_pmf(p, d):
    """Geometric(p) mass p (1-p)**(d-1): the n -> infinity law of spacings.

    ``d`` is an int or integer array in 1..GRID_N_MAX; the result is a float,
    or an array of d's shape.
    """
    p, x = check_p(p), np.asarray(check_ints(d, "d", 1, GRID_N_MAX), dtype=np.float64)
    out = p * np.exp(log_pow(_log_q(p), x - 1.0))
    return float(out) if np.ndim(d) == 0 else out


def limit_cdf(p, d):
    """Geometric(p) cdf 1 - (1-p)**d, for an int or integer array ``d`` in 1..GRID_N_MAX.

    The result is a float, or an array of d's shape.
    """
    p, x = check_p(p), np.asarray(check_ints(d, "d", 1, GRID_N_MAX), dtype=np.float64)
    out = -np.expm1(x * _log_q(p))
    return float(out) if np.ndim(d) == 0 else out


def binomial_sum_stop_index(p, i) -> int:
    """Truncation point past which the survivor-weight series has converged.

    The larger of i + ceil(60 / -log(1-p)) and the first index J whose
    dropped relative tail P(Binomial(J+1, p) <= i-1) is below 2**-55, found
    by a search of O(log J) binomial tails.  The 60-nat rule alone ignores
    the negative-binomial mean i/p and truncates inside the bulk once i is
    large; J bounds the tail for any i.  The exact law does not use it.

    An index past 2**20, the largest J :func:`binomial_sum_partial` takes,
    raises DomainError.  i + 60 / -log(1-p) is compared with that bound as a
    float, before it is rounded up (at p = 5e-324 it is inf); only then does
    the search run, at p > 5.7e-5 and i <= 2**20, where each of its tails
    sums O(sqrt(i / p)) terms.
    """
    p = check_p(p)
    i = check_int(i, "i", 1, GRID_N_MAX)
    nats = 60.0 / -_log_q(p)
    stop = (math.inf if i + nats > _PARTIAL_J_MAX
            else max(i + math.ceil(nats), _series_stop(p, i)))
    if stop > _PARTIAL_J_MAX:
        raise DomainError(f"the series at p={p!r}, i={i} converges past "
                          f"J={_PARTIAL_J_MAX}, the bound of binomial_sum_partial")
    return stop


def binomial_sum_partial(p, i, J) -> tuple[float, float]:
    """Partial and closed values of sum_j C(j, i-1) (1-p)**j.

    Returns (partial, closed) with partial = sum_{j=0..J} C(j, i-1) (1-p)**j
    and closed = (1-p)**(i-1) / p**i, the full-series value.  The partial sum
    is nondecreasing in J, bounded by closed, and converges geometrically.

    Terms use exact integer binomials accumulated with math.fsum, so the
    partial carries only per-term rounding (~1e-15 relative) and truncation.
    A partial beyond the largest double is inf, as closed is.  i is at most
    GRID_N_MAX, and J at most 2**20: the sum is a Python loop of J - i + 2
    terms, each binomial taken from the one before by an exact multiply and
    divide, 0.29 s at that bound and i = 1 on a 2-vCPU host.  Each binomial
    has about (i-1) log2 J bits, so larger i costs more per term: at
    J = 2**20 and p = 0.9, 0.85 s at i = 100, 3.7 s at i = 1000 and 20 s at
    i = 10**4.
    """
    p = check_p(p)
    i = check_int(i, "i", 1, GRID_N_MAX)
    J = check_int(J, "J", 0, _PARTIAL_J_MAX)
    q, log_q = 1.0 - p, _log_q(p)

    def terms():
        c = 1  # C(j, i-1) from j = i-1, by C(j+1, i-1) = C(j, i-1) (j+1) / (j+2-i)
        for j in range(i - 1, J + 1):
            # a binomial too large for a float on its own is paired with the decay
            yield c * q**j if c.bit_length() <= 1020 else math.exp(math.log(c) + j * log_q)
            c = c * (j + 1) // (j + 2 - i)

    try:
        partial = math.fsum(terms())
    except OverflowError:  # a term, or the running sum, beyond the largest double
        partial = math.inf
    log_closed = log_pow(log_q, i - 1) - i * math.log(p)
    closed = math.exp(log_closed) if log_closed < 709.0 else math.inf
    return partial, closed


def binomial_cdf_tail_check(n, p, i) -> LogProb:
    """log P(Binomial(n+1, p) <= i): the conditioning defect at size n.

    This lower tail is what the pmf denominator subtracts from 1; it decays
    to zero as n grows at fixed i and p, which is what makes the conditional
    law approach the geometric limit.
    """
    return LogProb(min(_checked_tails(n, p, i)[0], 0.0))
