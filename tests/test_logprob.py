"""The binomial kernels of spacings.logprob against exact integers.

Contract checked here, for P = P(Binomial(m, p) = k) with 1 <= m <= 10**12,
0 <= k <= m and p any double in (0, 1):

    |log_binom_pmf(k, m, p) - log P| <= 4e-15 * (1 + |log P|).

The absolute error of the log is the relative error of P, so P itself is
within 3e-12 relative whenever P > 1e-300, and within 2e-13 whenever
P > 1e-16.  The reference takes p as the exact rational it is (every double
is a dyadic rational) and works in 50-digit decimal arithmetic.
"""

import math
import time
from decimal import Decimal, localcontext

import numpy as np
import pytest

from spacings.logprob import log_binom_pmf

P_EDGE = (1e-12, 1 - 1e-12, 0.5, 0.3, 0.1, 2.0**-20, 0.999)
M_GRID = (1, 2, 3, 5, 15, 16, 17, 31, 100, 1000, 10**4, 10**5, 10**6, 10**7, 10**9, 10**12)
# exact binomial coefficients stay cheap while min(k, m - k) is this small
MAX_EXACT_SIDE = 20_000


def _ln_int(x: int) -> Decimal:
    """ln of a positive integer of any size, to about 60 digits."""
    shift = max(x.bit_length() - 200, 0)
    return Decimal(x >> shift).ln() + shift * Decimal(2).ln()


def _exact_log_pmf(k: int, m: int, p: float) -> float:
    with localcontext() as ctx:
        ctx.prec = 50
        lp, lq = Decimal(p).ln(), (1 - Decimal(p)).ln()
        return float(_ln_int(math.comb(m, k)) + k * lp + (m - k) * lq)


def _ks(m: int, p: float) -> list[int]:
    """Both ends, the mode, and points near and far from m p in both tails."""
    mp, sd = m * p, math.sqrt(m * p * (1 - p))
    ks = {0, 1, 2, m - 2, m - 1, m, int(mp), int(mp) + 1, round(0.5 * mp), round(1.5 * mp),
          round(0.85 * mp), round(1.2 * mp)}
    ks |= {round(mp + s * sd) for s in (-30, -5, -1, 1, 5, 30)}
    return sorted(k for k in ks if 0 <= k <= m and min(k, m - k) <= MAX_EXACT_SIDE)


@pytest.mark.parametrize("m", M_GRID)
def test_log_pmf_against_exact_integers(m):
    for p in P_EDGE:
        ks = _ks(m, p)
        got = log_binom_pmf(np.array(ks), m, p)
        for k, value in zip(ks, got):
            want = _exact_log_pmf(k, m, p)
            assert math.isfinite(value), (k, m, p)
            assert abs(value - want) <= 4e-15 * (1 + abs(want)), (k, m, p, value, want)


@pytest.mark.parametrize("m", range(1, 21))
def test_every_k_of_small_m(m):
    # exercises every entry of the Stirling-error table and the switch to its series
    for p in (0.5, 1 / 3, 0.9):
        for k, value in enumerate(log_binom_pmf(np.arange(m + 1), m, p)):
            want = _exact_log_pmf(k, m, p)
            assert abs(value - want) <= 4e-15 * (1 + abs(want)), (k, m, p)


def test_ends_are_exact_powers():
    m = 10**12
    assert log_binom_pmf(0, m, 0.25) == m * math.log1p(-0.25)
    assert log_binom_pmf(m, m, 0.25) == m * math.log(0.25)


@pytest.mark.parametrize("p", [1e-300, 5e-324])
def test_tiny_p_stays_finite(p):
    for m, k in ((10, 1), (10, 5), (10**12, 3), (10, 10)):
        want = _exact_log_pmf(k, m, p)
        assert abs(log_binom_pmf(k, m, p) - want) <= 4e-15 * (1 + abs(want))


def test_p_one_and_out_of_range():
    assert log_binom_pmf(7, 7, 1.0) == 0.0
    assert log_binom_pmf(6, 7, 1.0) == -math.inf
    out = log_binom_pmf(np.array([-1, 0, 8]), 7, 0.4)
    assert out[0] == -math.inf and out[2] == -math.inf and math.isfinite(out[1])
    assert isinstance(log_binom_pmf(3, 7, 0.4), float)


def test_broadcasts_k_against_m():
    m = np.array([10, 20, 30])
    got = log_binom_pmf(np.array([[1], [5]]), m, 0.3)
    assert got.shape == (2, 3)
    assert got[1, 2] == log_binom_pmf(5, 30, 0.3)


def test_bounded_time_at_m_1e12():
    k = np.arange(0, 10**5) * 10**7
    for p in (1e-12, 0.5, 1 - 1e-12):
        start = time.perf_counter()
        out = log_binom_pmf(k, 10**12, p)
        assert time.perf_counter() - start < 2.0
        assert np.all(np.isfinite(out))


@pytest.mark.parametrize("k", [1, 2, 9, 15, 16, 63, 64, 1000])
@pytest.mark.parametrize("p", [1e-300, 0.3])
def test_log_binom_pmf_scalar_k_equals_the_masked_path(k, p):
    # the exact law's block additions: one k = i - 1 against a block of m.
    # The reference is the per-element path: a k == m entry forces the mask.
    m = np.concatenate((np.arange(k + 1, k + 4097), 10.0 ** np.arange(4, 13)))
    masked = log_binom_pmf(np.full(m.size + 1, k), np.append(m, k), p)
    assert masked[-1] == k * math.log(p)
    assert np.array_equal(log_binom_pmf(k, m, p), masked[:-1])
    assert np.array_equal(log_binom_pmf(np.full(m.size, k), m, p), masked[:-1])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_empty_block_evaluates_no_term():
    # an empty m is not "every entry inner": no term may run on k = 0, outside (0, m)
    for p in (5e-324, 1e-300, 0.3, 1.0):
        out = log_binom_pmf(0, np.empty(0), p)
        assert isinstance(out, np.ndarray) and out.shape == (0,)


@pytest.mark.parametrize("p", [1e-300, 1e-5, 0.3, 1 - 1e-12])
def test_log_binom_pmf_all_inner_equals_the_masked_path(p):
    # a k == 0 entry forces the mask; without it every entry is inner and none is built
    m = np.concatenate((np.arange(2, 4098), 10.0 ** np.arange(4, 13)))
    k = np.maximum(m // 3, 1)
    masked = log_binom_pmf(np.append(k, 0), np.append(m, 5), p)
    assert masked[-1] == 5 * math.log1p(-p)
    assert np.array_equal(log_binom_pmf(k, m, p), masked[:-1])
    for j in (0, 1, 4095, m.size - 1):
        assert log_binom_pmf(k[j], m[j], p) == masked[j]
