import logging
import math
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spacings as sp
from spacings import oracle
from spacings.cli import run
from spacings.distribution import (
    _block_log_numerators,
    _logsumexp_unimodal,
    _series_stop,
    _table_masses,
)
from spacings.errors import DomainError
from spacings.logprob import LogProb

P_GRID = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)


class TestModelParams:
    def test_valid(self):
        params = sp.ModelParams(10, 0.5, 3)
        assert (params.n, params.p, params.i) == (10, 0.5, 3)

    @pytest.mark.parametrize(
        "n,p,i",
        [(0, 0.5, 1), (5, 0.0, 1), (5, -0.1, 1), (5, 1.5, 1), (5, 0.5, 0), (5, 0.5, 6)],
    )
    def test_invalid(self, n, p, i):
        with pytest.raises(DomainError):
            sp.ModelParams(n, p, i)


class TestLogProb:
    def test_roundtrip(self):
        assert LogProb.from_prob(0.25).prob == pytest.approx(0.25, rel=1e-15)
        assert LogProb.from_prob(0.0).is_zero
        assert LogProb.one().prob == 1.0

    def test_addition_is_logsumexp(self):
        total = LogProb.from_prob(0.125) + LogProb.from_prob(0.5)
        assert total.prob == pytest.approx(0.625, rel=1e-14)

    def test_addition_never_overflows_for_tiny_terms(self):
        tiny = LogProb(-1e300)
        assert math.isfinite((tiny + tiny).log)

    def test_zero_is_additive_identity_and_absorbing(self):
        half = LogProb.from_prob(0.5)
        assert (half + LogProb.zero()).log == half.log
        assert (half * LogProb.zero()).is_zero

    def test_rejects_values_above_one(self):
        with pytest.raises(DomainError):
            LogProb(0.5)
        with pytest.raises(DomainError):
            LogProb.from_prob(0.9) + LogProb.from_prob(0.9)


class TestUnconditionalSpacingProb:
    def test_small_grid_value(self):
        # exact by enumerating the 8 patterns of 3 points: {0,.5}, {0,.5,1},
        # {.5,1} are the ones whose first spacing is one step -> 3/8
        got = sp.unconditional_spacing_prob(sp.ModelParams(2, 0.5, 1), 1)
        assert got.prob == pytest.approx(3 / 8, rel=1e-14)

    def test_empty_sum_is_exact_zero(self):
        assert sp.unconditional_spacing_prob(sp.ModelParams(2, 0.5, 2), 2).is_zero

    def test_p_one_keeps_every_point(self):
        assert sp.unconditional_spacing_prob(sp.ModelParams(2, 1.0, 1), 1).prob == 1.0
        assert sp.unconditional_spacing_prob(sp.ModelParams(2, 1.0, 1), 2).is_zero

    @pytest.mark.parametrize("d", [0, 3, -1])
    def test_d_out_of_range(self, d):
        with pytest.raises(DomainError):
            sp.unconditional_spacing_prob(sp.ModelParams(2, 0.5, 1), d)

    @pytest.mark.parametrize("n,p,i", [(30, 0.3, 1), (40, 0.15, 3), (25, 0.8, 5)])
    def test_decomposition_over_survivor_positions(self, n, p, i):
        # conditioning on the position of the i-th survivor re-derives the
        # unconditional law: sum_j P(i-th at j) * p * q**(d-1) over j <= n-d
        q = 1.0 - p
        for d in range(1, n - i + 2):
            direct = sp.unconditional_spacing_prob(sp.ModelParams(n, p, i), d).prob
            assembled = sum(
                sp.survivor_index_pmf(n, p, i, j).prob * p * q ** (d - 1)
                for j in range(0, n - d + 1)
            )
            assert direct == pytest.approx(assembled, rel=1e-12, abs=1e-300)


class TestSizeTail:
    @pytest.mark.parametrize(
        "n,p,i,expected",
        [(2, 0.5, 1, 0.5), (2, 0.5, 2, 0.125), (5, 1.0, 3, 1.0), (2, 0.5, 0, 7 / 8)],
    )
    def test_values(self, n, p, i, expected):
        assert sp.size_tail(n, p, i).prob == pytest.approx(expected, rel=1e-13)

    def test_huge_n_is_certain(self):
        assert sp.size_tail(10**6, 0.1, 10).prob == 1.0

    def test_tiny_tail_stays_in_log_range(self):
        # all but the last few points must survive: far below double range
        got = sp.size_tail(2000, 0.001, 1990)
        assert not got.is_zero
        assert got.log < -5000

    @pytest.mark.parametrize("n,p,i", [(0, 0.5, 0), (5, 0.5, 6), (5, 0.5, -1), (5, 0.0, 1)])
    def test_invalid(self, n, p, i):
        with pytest.raises(DomainError):
            sp.size_tail(n, p, i)


class TestPmfScaled:
    @pytest.mark.parametrize(
        "n,p,i,d,expected",
        [
            (2, 0.5, 1, 1, 0.75),
            (2, 0.5, 1, 2, 0.25),
            (2, 0.5, 2, 1, 1.0),
            (2, 1.0, 1, 1, 1.0),
        ],
    )
    def test_values(self, n, p, i, d, expected):
        assert sp.pmf_scaled(sp.ModelParams(n, p, i), d) == pytest.approx(
            expected, rel=1e-13
        )

    @pytest.mark.parametrize("n,i", [(12, 1), (12, 4), (30, 7)])
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_support_cutoff_is_exact(self, n, i, p):
        params = sp.ModelParams(n, p, i)
        for d in range(1, n + 1):
            mass = sp.pmf_scaled(params, d)
            if d > n - i + 1:
                assert mass == 0.0
            else:
                assert mass > 0.0

    @pytest.mark.parametrize("n,p,i", [(1, 0.5, 1), (7, 0.3, 2), (100, 0.01, 3), (512, 0.9, 5)])
    def test_normalization_scalar_path(self, n, p, i):
        params = sp.ModelParams(n, p, i)
        total = math.fsum(sp.pmf_scaled(params, d) for d in range(1, n + 1))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_matches_table_path(self):
        params = sp.ModelParams(137, 0.37, 3)
        table = sp.spacing_distribution(params)
        for d in range(1, 138):
            assert sp.pmf_scaled(params, d) == pytest.approx(
                float(table.mass[d - 1]), rel=1e-12, abs=1e-300
            )

    def test_delta_addressing(self):
        params = sp.ModelParams(2, 0.5, 1)
        assert sp.pmf_delta(params, 0.5) == pytest.approx(0.75, rel=1e-13)
        assert sp.pmf_delta(params, 1.0) == pytest.approx(0.25, rel=1e-13)
        with pytest.raises(DomainError):
            sp.pmf_delta(params, 0.3)

    def test_delta_addressing_at_n_1e12(self):
        # n * (d / n) is off from d by more than 1e-9 for some d at this n
        n = 10**12
        params = sp.ModelParams(n, 1e-11, 3)
        rng = np.random.default_rng(7)
        for d in rng.integers(1, n + 1, 200).tolist():
            assert sp.pmf_delta(params, d / n) == sp.pmf_scaled(params, d)
        with pytest.raises(DomainError):
            sp.pmf_delta(params, 1234567.5 / n)


class TestDistributionTable:
    @pytest.mark.parametrize("n,p,i", [(5, 0.5, 1), (50, 0.2, 2), (1000, 0.05, 4)])
    def test_invariants(self, n, p, i):
        table = sp.spacing_distribution(sp.ModelParams(n, p, i))
        table.validate()
        assert table.cdf[-1] == pytest.approx(1.0, abs=1e-10)

    def test_iteration_yields_pairs(self):
        table = sp.spacing_distribution(sp.ModelParams(3, 0.5, 1))
        pairs = list(table)
        assert [d for d, _ in pairs] == [1, 2, 3]
        assert sum(m for _, m in pairs) == pytest.approx(1.0, abs=1e-12)

    def test_mass_array_is_read_only(self):
        table = sp.spacing_distribution(sp.ModelParams(10, 0.4, 1))
        with pytest.raises(ValueError):
            table.mass[0] = 2.0


class TestCdf:
    def test_full_support_reaches_one(self):
        for n, p, i in [(2, 0.5, 1), (10, 1.0, 1), (300, 0.07, 4)]:
            assert sp.cdf_scaled(sp.ModelParams(n, p, i), n) == pytest.approx(
                1.0, abs=1e-10
            )

    def test_single_term_equals_pmf(self):
        params = sp.ModelParams(2, 0.5, 1)
        assert sp.cdf_scaled(params, 1) == pytest.approx(0.75, rel=1e-13)

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 37, 100])
    def test_closed_form_matches_summed_cdf(self, n, p):
        table = sp.spacing_distribution(sp.ModelParams(n, p, 1))
        for d in range(1, n + 1):
            closed = sp.cdf_scaled_closed_i1(n, p, d)
            assert abs(closed - float(table.cdf[d - 1])) < 1e-12

    def test_closed_form_p_one(self):
        assert sp.cdf_scaled_closed_i1(10, 1.0, 1) == 1.0
        assert sp.cdf_scaled_closed_i1(10, 1.0, 7) == 1.0

    def test_closed_form_huge_n_hits_the_limit(self):
        assert abs(sp.cdf_scaled_closed_i1(50000, 0.1, 1) - 0.1) < 1e-12
        for d in (1, 5, 40):
            assert abs(
                sp.cdf_scaled_closed_i1(10**6, 0.001, d) - sp.limit_cdf(0.001, d)
            ) < 1e-12


class TestLimitLaw:
    @pytest.mark.parametrize(
        "p,d,expected",
        [(0.5, 1, 0.5), (0.1, 10, 1 - 0.9**10), (1.0, 3, 1.0)],
    )
    def test_cdf(self, p, d, expected):
        assert sp.limit_cdf(p, d) == pytest.approx(expected, rel=1e-14)

    def test_pmf(self):
        assert sp.limit_pmf(0.25, 3) == pytest.approx(0.25 * 0.75**2, rel=1e-14)
        assert sp.limit_pmf(1.0, 1) == 1.0
        assert sp.limit_pmf(1.0, 4) == 0.0

    def test_invalid(self):
        with pytest.raises(DomainError):
            sp.limit_cdf(0.0, 1)
        with pytest.raises(DomainError):
            sp.limit_cdf(0.5, 0)

    @pytest.mark.parametrize("p", [1e-4, 0.1, 0.37, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("fn", [sp.limit_pmf, sp.limit_cdf])
    def test_array_equals_scalar_calls(self, fn, p):
        d = np.arange(1, 20_001)
        values = fn(p, d)
        assert isinstance(values, np.ndarray) and values.shape == d.shape
        scalars = [fn(p, k) for k in d.tolist()]
        assert all(isinstance(v, float) for v in scalars[:3])
        assert values.tolist() == scalars  # bit for bit, element by element
        assert fn(p, d.reshape(100, 200)).tolist() == values.reshape(100, 200).tolist()

    @pytest.mark.parametrize("fn", [sp.limit_pmf, sp.limit_cdf])
    def test_array_edges(self, fn):
        for p in (0.3, 1.0):
            assert fn(p, np.arange(1, 1)).shape == (0,)
        with pytest.raises(DomainError):
            fn(0.5, np.array([3, 0, 2]))
        with pytest.raises(DomainError):
            fn(0.5, np.array([1.0, 2.5]))


class TestSurvivorIndexPmf:
    @pytest.mark.parametrize(
        "n,p,i,j,expected",
        [(5, 0.5, 1, 0, 0.5), (5, 0.5, 1, 2, 0.125), (5, 0.5, 2, 0, 0.0)],
    )
    def test_values(self, n, p, i, j, expected):
        assert sp.survivor_index_pmf(n, p, i, j).prob == pytest.approx(
            expected, rel=1e-13, abs=0.0
        )

    @pytest.mark.parametrize("n,p,i", [(20, 0.3, 1), (40, 0.6, 4), (15, 0.05, 2)])
    def test_total_mass_accounts_for_failures(self, n, p, i):
        # positions of the i-th survivor plus the no-i-th-survivor event
        # exhaust the sample space
        positions = math.fsum(
            sp.survivor_index_pmf(n, p, i, j).prob for j in range(0, n + 1)
        )
        too_few = sp.binomial_cdf_tail_check(n, p, i - 1).prob
        assert positions + too_few == pytest.approx(1.0, abs=1e-10)

    def test_invalid_j(self):
        with pytest.raises(DomainError):
            sp.survivor_index_pmf(5, 0.5, 1, 6)
        with pytest.raises(DomainError):
            sp.survivor_index_pmf(5, 0.5, 1, -1)


class TestBinomialSum:
    def test_geometric_case(self):
        partial, closed = sp.binomial_sum_partial(0.5, 1, sp.binomial_sum_stop_index(0.5, 1))
        assert closed == 2.0
        assert partial == pytest.approx(2.0, rel=1e-13)

    def test_direct_substitution(self):
        _, closed = sp.binomial_sum_partial(0.5, 2, 10)
        assert closed == pytest.approx(2.0, rel=1e-15)

    def test_p_one_degenerate(self):
        partial, closed = sp.binomial_sum_partial(1.0, 3, 5)
        assert (partial, closed) == (0.0, 0.0)
        partial, closed = sp.binomial_sum_partial(1.0, 1, 0)
        assert (partial, closed) == (1.0, 1.0)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("i", [1, 2, 5])
    def test_partial_monotone_and_bounded(self, p, i):
        closed = sp.binomial_sum_partial(p, i, 0)[1]
        previous = -1.0
        for J in range(0, sp.binomial_sum_stop_index(p, i) + 5):
            partial, _ = sp.binomial_sum_partial(p, i, J)
            assert partial >= previous
            assert partial <= closed * (1 + 1e-12)
            previous = partial

    def test_stop_index_rule(self):
        assert sp.binomial_sum_stop_index(1.0, 4) == 4
        expected = 3 + math.ceil(60 / -math.log1p(-0.2))
        assert sp.binomial_sum_stop_index(0.2, 3) == expected


class TestBinomialCdfTailCheck:
    def test_small_grid_value(self):
        assert sp.binomial_cdf_tail_check(2, 0.5, 2).log == pytest.approx(
            math.log(7 / 8), rel=1e-14
        )

    def test_p_one_lower_tail_is_zero(self):
        assert sp.binomial_cdf_tail_check(5, 1.0, 3).is_zero

    def test_large_n_deep_tail(self):
        assert sp.binomial_cdf_tail_check(10**4, 0.1, 5).log < -200

    def test_decreasing_in_n_past_the_mean(self):
        logs = [sp.binomial_cdf_tail_check(n, 0.1, 5).log for n in (100, 300, 1000, 3000)]
        assert all(a > b for a, b in zip(logs, logs[1:]))


@pytest.mark.parametrize("i", [1, 2, 5])
def test_monotone_convergence_witness(i):
    # sup_d |cdf - geometric limit| shrinks every time n doubles
    sups = []
    for n in (50, 100, 200, 400):
        table = sp.spacing_distribution(sp.ModelParams(n, 0.1, i))
        d = np.arange(1, min(n, 100) + 1)
        limit = -np.expm1(d * math.log1p(-0.1))
        sups.append(float(np.abs(table.cdf[: d.size] - limit).max()))
    assert all(a > b for a, b in zip(sups, sups[1:]))


def _tail_below(J, p, i, bits):
    """Whether P(Binomial(J+1, p) <= i-1) < 2**-bits, exactly, for the float p."""
    a, b = p.as_integer_ratio()  # b is a power of two
    N = J + 1
    num = sum(math.comb(N, k) * a**k * (b - a) ** (N - k) for k in range(i))
    return num << bits < b**N


class TestSurvivorWeightPrefix:
    @pytest.mark.parametrize("p,i", [(0.5, 100), (0.1, 200), (0.1, 10), (0.2, 3), (0.9, 1)])
    def test_stop_index_bounds_the_dropped_tail(self, p, i):
        J = sp.binomial_sum_stop_index(p, i)
        assert _tail_below(J, p, i, 55)
        partial, closed = sp.binomial_sum_partial(p, i, J)
        assert abs(partial - closed) <= 1e-12 * closed

    @pytest.mark.parametrize("p,i", [(0.5, 100), (0.1, 200), (0.1, 10), (0.3, 7)])
    def test_kernel_stops_at_the_first_converged_index(self, p, i):
        J = _series_stop(p, i)
        assert _tail_below(J, p, i, 55)
        assert not _tail_below(J - 1, p, i, 56)

    def test_partial_sum_overflow_is_inf_like_closed(self):
        stop = sp.binomial_sum_stop_index(0.1, 1000)
        assert sp.binomial_sum_partial(0.1, 1000, stop) == (math.inf, math.inf)

    def test_head_matches_full_arrays(self):
        table = sp.spacing_distribution(sp.ModelParams(5_000, 0.2, 4))
        mass, cdf = table.head(300)
        assert mass.tobytes() == table.mass[:300].tobytes()
        assert cdf.tobytes() == table.cdf[:300].tobytes()
        assert table.head(0)[0].size == 0
        with pytest.raises(DomainError):
            table.head(5_001)

    def test_cdf_scaled_reads_the_running_sum(self):
        params = sp.ModelParams(2_000, 0.3, 6)
        cdf = sp.spacing_distribution(params).cdf
        for d in (1, 17, 1_000, 1_995, 2_000):
            assert sp.cdf_scaled(params, d) == cdf[d - 1]

    def test_masses_are_bit_stable_and_exact_across_block_seams(self):
        # blocks of 4096 steps each take their own anchor tail
        n, p, i = 10_000, Fraction(1, 1024), 2
        params = sp.ModelParams(n, float(p), i)
        table = sp.spacing_distribution(params)
        mass, cdf = table.head(8_193)
        assert mass.tobytes() == table.mass[:8_193].tobytes()
        assert cdf.tobytes() == table.cdf[:8_193].tobytes()
        q = 1 - p
        T = 1 - q ** (n + 1) - (n + 1) * p * q**n - (n + 1) * n // 2 * p**2 * q ** (n - 1)
        for d in (1, 4_095, 4_096, 4_097, 8_192, 8_193, 9_999):
            M = n - d + 1  # f(d) = p q**(d-1) P(Bin(M, p) >= 2) / T
            want = float(p * q ** (d - 1) * (1 - q**M - M * p * q ** (M - 1)) / T)
            got = sp.pmf_scaled(params, d)
            assert got == table.mass[d - 1]
            assert abs(got - want) <= 5e-13 * want, (d, got, want)


class TestRelativeAccuracy:
    """Masses against the closed form in exact rationals, n = 150..400.

    Dyadic p are exact doubles, so both sides see the same p.
    """

    @pytest.mark.parametrize("n,p,i", [
        (150, Fraction(5, 16), 5), (200, Fraction(1, 8), 40),
        (300, Fraction(1, 2), 12), (400, Fraction(7, 8), 20),
    ])
    def test_masses_within_5e_13_relative(self, monkeypatch, n, p, i):
        # the closed form sums, it does not enumerate: lift the enumeration cap
        monkeypatch.setattr(oracle, "MAX_ENUMERATION_N", n)
        pf = float(p)
        exact = oracle.exact_closed_form_pmf(n, p, i)
        params = sp.ModelParams(n, pf, i)
        table = sp.spacing_distribution(params)
        checked = 0
        for d in range(1, n + 1):
            got = sp.pmf_scaled(params, d)
            assert got == table.mass[d - 1]  # one kernel, bit for bit
            want = float(exact.mass(d))
            if want >= np.finfo(float).tiny:
                assert abs(got - want) <= 5e-13 * want, d
                checked += 1
            else:
                assert got < 2 * np.finfo(float).tiny
        assert checked >= 100

    @pytest.mark.parametrize("n,p,i", [
        (400, Fraction(1, 2), 100), (400, Fraction(7, 8), 150), (300, Fraction(1, 4), 70),
    ])
    def test_stirling_fallback_within_5e_13_relative(self, monkeypatch, n, p, i):
        # i - 1 > 64: the survivor weights take log C(j, i-1) from the Stirling form
        self.test_masses_within_5e_13_relative(monkeypatch, n, p, i)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(ni=st.integers(1, 400).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
       p=st.floats(0.0, 1.0, exclude_min=True))
def test_law_matches_exact_rationals_for_any_float_p(ni, p):
    n, i = ni
    exact_p = Fraction(p)
    # the exact table costs O(n) reductions of (n * log2(denominator))-bit integers
    if n * exact_p.denominator.bit_length() > 40_000:
        n = max(1, 40_000 // exact_p.denominator.bit_length())
        i = min(i, n)
    saved, oracle.MAX_ENUMERATION_N = oracle.MAX_ENUMERATION_N, n
    try:
        exact = oracle.exact_closed_form_pmf(n, exact_p, i)
    finally:
        oracle.MAX_ENUMERATION_N = saved
    mass, cdf = sp.spacing_distribution(sp.ModelParams(n, p, i)).head(n)
    # The law is exp of a difference of logs as large as L nats, and a double
    # near L is only good to about 1e-16 L: 5e-13 relative holds to L = 250.
    size = (i + 1) * -math.log(p) - (n * math.log1p(-p) if p < 1.0 else 0.0)
    tol = max(5e-13, 2e-15 * size)
    tiny = np.finfo(float).tiny
    running = Fraction(0)
    for d in range(1, n + 1):
        running += exact.mass(d)
        for got, want in ((mass[d - 1], float(exact.mass(d))), (cdf[d - 1], float(running))):
            if want >= tiny:
                assert abs(got - want) <= tol * want, (d, got, want)


class TestLogTAtLargeN:
    """log T against a reference built from exact binomial coefficients."""

    @staticmethod
    def _reference(n, p, i):
        lower = math.fsum(math.exp(math.log(math.comb(n + 1, k)) + k * math.log(p)
                                   + (n + 1 - k) * math.log1p(-p)) for k in range(i + 1))
        return math.log1p(-lower)

    @pytest.mark.parametrize("n,p,i", [(10**12, 1e-11, 10), (10**9, 1e-8, 10),
                                       (10**6, 1e-5, 10)])
    def test_size_tail_within_1e_12(self, n, p, i):
        assert abs(sp.size_tail(n, p, i).log - self._reference(n, p, i)) <= 1e-12

    def test_n_1e12_value(self):
        assert abs(sp.size_tail(10**12, 1e-11, 10).log - -0.874764385927778) <= 1e-12


class TestTailEdges:
    """size_tail and binomial_cdf_tail_check at n = 1, i = n and p = 1, in bounded time."""

    @pytest.mark.parametrize("n,p,i", [
        (1, 0.3, 1), (1, 0.3, 0), (1, 1.0, 1), (7, 0.4, 7), (10**6, 1 - 1e-7, 10**6),
        (10**12, 0.5, 10**12), (10**12, 1 - 1e-12, 10**12), (10**12, 1e-12, 10**12),
        (10**12, 1.0, 10**12), (10**12, 1e-12, 1),
    ])
    def test_finite_consistent_and_fast(self, n, p, i):
        start = time.perf_counter()
        upper, lower = sp.size_tail(n, p, i).log, sp.binomial_cdf_tail_check(n, p, i).log
        assert time.perf_counter() - start < 2.0
        assert not math.isnan(upper) and not math.isnan(lower)
        assert upper <= 0.0 and lower <= 0.0
        assert math.exp(upper) + math.exp(lower) == pytest.approx(1.0, rel=1e-12)
        if i == n and p < 1.0:  # only "all n+1 survive" is above i
            want = (n + 1) * math.log(p)
            assert upper == pytest.approx(want, rel=1e-12)
            assert lower == pytest.approx(math.log1p(-math.exp(want)), rel=1e-12, abs=1e-300)

    def test_n_1_values(self):
        assert sp.size_tail(1, 0.3, 1).prob == pytest.approx(0.09, rel=1e-14)
        assert sp.binomial_cdf_tail_check(1, 0.3, 1).prob == pytest.approx(0.91, rel=1e-14)
        assert sp.size_tail(1, 0.3, 0).prob == pytest.approx(0.51, rel=1e-14)
        assert sp.binomial_cdf_tail_check(1, 0.3, 0).prob == pytest.approx(0.49, rel=1e-14)

    def test_p_one(self):
        assert sp.size_tail(1, 1.0, 1).log == 0.0
        assert sp.binomial_cdf_tail_check(1, 1.0, 1).is_zero

    @pytest.mark.parametrize("descending", [False, True])
    def test_running_sum_rescales_when_a_later_chunk_raises_the_maximum(self, descending):
        # the peak sits chunks away from where the scan starts, in either direction
        def logterm(k):
            return -0.5 * ((k - 12_345) / 700.0) ** 2

        lt = logterm(np.arange(20_001))
        want = float(lt.max() + np.log(np.exp(lt - lt.max()).sum()))
        assert _logsumexp_unimodal(logterm, 0, 20_000, descending) == pytest.approx(want, rel=1e-14)

    def test_running_sum_skips_chunks_of_impossible_terms(self):
        def logterm(k):
            return np.where(k < 5_000, -np.inf, -1e-3 * k)

        lt = -1e-3 * np.arange(5_000, 10_000)
        want = float(lt.max() + np.log(np.exp(lt - lt.max()).sum()))
        assert _logsumexp_unimodal(logterm, 0, 9_999) == pytest.approx(want, rel=1e-14)
        assert _logsumexp_unimodal(lambda k: np.full(k.size, -np.inf), 0, 9) == -math.inf

    def test_lower_tail_near_the_mode_is_summed_from_i_down(self):
        # i just below the mode at n = 10**12: O(sd) terms, not O(i)
        n, p = 10**12, 1e-6
        i = int((n + 2) * p) - 1000
        start = time.perf_counter()
        upper = sp.size_tail(n, p, i).log
        lower = sp.binomial_cdf_tail_check(n, p, i).log
        assert time.perf_counter() - start < 2.0
        assert math.exp(upper) + math.exp(lower) == pytest.approx(1.0, rel=1e-12)
        assert 0.1 < math.exp(lower) < 0.5


class TestBoundedCost:
    """Calls that return a handful of numbers cost neither O(n) nor O(1/p)."""

    @staticmethod
    def _measure(fn):
        _table_masses.cache_clear()
        _block_log_numerators.cache_clear()
        tracemalloc.start()
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        assert elapsed < 5.0 and peak < 4 * 2**20, (elapsed, peak)
        return result

    def test_cli_pmf_at_n_1e12(self, capsys):
        code = self._measure(lambda: run(["pmf", "--n", str(10**12), "--p", "0.1",
                                          "--i", "10", "--d-max", "5"]))
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        pmf = [float(r.split(",")[1]) for r in rows]
        assert pmf == pytest.approx(sp.limit_pmf(0.1, np.arange(1, 6)).tolist(), rel=1e-13)

    def test_convergence_sweep_up_to_1e12(self):
        result = self._measure(lambda: sp.convergence_sweep(0.1, 5, [50, 10**9, 10**12], 50))
        assert [n for n, _ in result] == [50, 10**9, 10**12]
        assert result[-1][1] < 1e-12

    @pytest.mark.parametrize("n,p,i", [(10**12, 1.0, 7), (10**12, 0.5, 10**12), (1, 0.3, 1),
                                       (10**9, 1.0, 10**9)])
    def test_domain_edges(self, n, p, i):
        params = sp.ModelParams(n, p, i)
        mass, cdf = self._measure(lambda: sp.spacing_distribution(params).head(min(n, 3)))
        assert mass[0] == 1.0 and cdf[-1] == 1.0
        assert sp.pmf_scaled(params, 1) == 1.0
        assert sp.cdf_scaled(params, min(n, 3)) == 1.0

    @pytest.mark.parametrize("n,p,i", [(10**12, 1e-7, 1), (10**12, 1e-12, 3), (10**9, 1e-5, 1),
                                       (10**6, 1 - 1e-12, 1)])
    def test_p_to_the_edges(self, n, p, i):
        params = sp.ModelParams(n, p, i)
        mass, cdf = self._measure(lambda: sp.spacing_distribution(params).head(5))
        assert np.all(mass > 0.0) and np.all(np.diff(cdf) >= 0.0) and cdf[-1] <= 1.0
        for d in (1, 2, 5, 4_096, 4_097):
            got = self._measure(lambda: sp.cdf_scaled(params, d))
            if i == 1:
                want = sp.cdf_scaled_closed_i1(n, p, d)
                assert abs(got - want) <= 1e-13 * want, (d, got, want)

    def test_near_mode_tail_memory(self):
        # at i = mode the smaller tail spans many chunks of terms
        n, p = 10**10, 0.5
        i = int((n + 2) * p)
        tracemalloc.start()
        try:
            upper, lower = sp.size_tail(n, p, i).log, sp.binomial_cdf_tail_check(n, p, i).log
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        assert math.exp(upper) + math.exp(lower) == pytest.approx(1.0, rel=1e-12)


def test_debug_log_reports_log_t_and_leaves_stdout_alone(capsys, caplog):
    argv = ["pmf", "--n", "40000", "--p", "0.15", "--i", "6", "--d-max", "40"]
    _table_masses.cache_clear()
    assert run(argv) == 0
    quiet = capsys.readouterr()
    _table_masses.cache_clear()
    with caplog.at_level(logging.DEBUG, logger="spacings"):
        assert run(argv) == 0
    loud = capsys.readouterr()
    assert loud.out == quiet.out and loud.err == quiet.err
    (record,) = [r for r in caplog.records if r.name == "spacings"]
    fields = dict(re.findall(r"(n|i|log T)=([-+.e\d]+)", record.getMessage()))
    assert (int(fields["n"]), int(fields["i"])) == (40000, 6)
    assert float(fields["log T"]) == sp.size_tail(40000, 0.15, 6).log
