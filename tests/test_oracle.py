import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

import spacings as sp
from spacings.errors import DomainError, EnumerationLimitError
from spacings.oracle import _gap_counts


def test_hand_enumerated_example():
    table = sp.enumerate_conditional_pmf(2, Fraction(1, 2), 1)
    assert table.masses == {1: Fraction(3, 4), 2: Fraction(1, 4)}


def test_degenerate_second_spacing():
    # only the all-survive pattern has more than 2 of 3 points
    table = sp.enumerate_conditional_pmf(2, Fraction(1, 2), 2)
    assert table.masses == {1: Fraction(1), 2: Fraction(0)}


def test_single_interval_grid():
    table = sp.enumerate_conditional_pmf(1, Fraction(1, 2), 1)
    assert table.masses == {1: Fraction(1)}


def test_closed_form_matches_hand_example():
    table = sp.exact_closed_form_pmf(2, Fraction(1, 2), 1)
    assert table.masses == {1: Fraction(3, 4), 2: Fraction(1, 4)}


@pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(1, 10), Fraction(9, 10)])
@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_equals_closed_form(n, p):
    for i in range(1, min(n, 4) + 1):
        enum = sp.enumerate_conditional_pmf(n, p, i)
        closed = sp.exact_closed_form_pmf(n, p, i)
        assert enum.masses == closed.masses


@pytest.mark.parametrize("builder", [sp.enumerate_conditional_pmf, sp.exact_closed_form_pmf])
def test_exact_normalization(builder):
    for n, p, i in [(3, Fraction(2, 3), 1), (6, Fraction(1, 7), 2), (8, Fraction(3, 4), 3)]:
        table = builder(n, p, i)
        assert sum(table.masses.values()) == 1
        assert set(table.masses) == set(range(1, n + 1))


def test_float_consistency_with_log_domain_pmf():
    for n in range(1, 9):
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(4, 5)):
            for i in range(1, min(n, 3) + 1):
                exact = sp.enumerate_conditional_pmf(n, p, i).masses
                params = sp.ModelParams(n, float(p), i)
                for d in range(1, n + 1):
                    assert abs(float(exact[d]) - sp.pmf_scaled(params, d)) < 1e-12


def test_p_one_concentrates_on_one_step():
    table = sp.enumerate_conditional_pmf(4, Fraction(1), 2)
    assert table.mass(1) == 1
    assert sum(table.masses.values()) == 1


def test_string_fractions_accepted():
    table = sp.enumerate_conditional_pmf(2, "1/2", 1)
    assert table.mass(1) == Fraction(3, 4)


def test_rejects_floats_and_bad_ranges():
    with pytest.raises(DomainError):
        sp.enumerate_conditional_pmf(2, 0.5, 1)
    with pytest.raises(DomainError):
        sp.enumerate_conditional_pmf(2, Fraction(0), 1)
    with pytest.raises(DomainError):
        sp.enumerate_conditional_pmf(2, Fraction(3, 2), 1)
    with pytest.raises(DomainError):
        sp.enumerate_conditional_pmf(2, Fraction(1, 2), 3)
    with pytest.raises(EnumerationLimitError):
        sp.enumerate_conditional_pmf(17, Fraction(1, 2), 1)


def _reference_gap_counts(n, i):
    """The oracle's counts, one pattern at a time in plain Python."""
    tally = Counter()
    for mask in range(1 << (n + 1)):
        ones = mask.bit_count()
        if ones <= i:
            continue
        rest = mask
        for _ in range(i - 1):
            rest &= rest - 1  # drop survivors before the i-th
        lo = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        hi = (rest & -rest).bit_length() - 1
        tally[(ones, hi - lo)] += 1
    return sorted((ones, d, c) for (ones, d), c in tally.items())


@pytest.mark.parametrize("n", range(1, 13))
def test_gap_counts_equal_the_per_pattern_walk(n):
    for i in range(1, n + 1):
        got = _gap_counts(n, i)
        assert all(type(v) is int for row in got for v in row)
        assert sorted(got) == _reference_gap_counts(n, i)


@pytest.mark.parametrize("i", [1, 2, 8, 15, 16])
def test_gap_counts_at_the_cap(i):
    _gap_counts.cache_clear()
    tracemalloc.start()
    try:
        got = _gap_counts(16, i)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(got) == _reference_gap_counts(16, i)
    assert sum(c for _, _, c in got) == sum(math.comb(17, k) for k in range(i + 1, 18))
    assert peak < 2**20


def _formula_gap_counts(n, i):
    """c(k, d) = sum_j C(j, i-1) C(n-j-d, k-i-1): the i-th survivor at j, the next at j + d."""
    return [(k, d, c) for k in range(i + 1, n + 2) for d in range(1, n + 1)
            if (c := sum(math.comb(j, i - 1) * math.comb(n - j - d, k - i - 1)
                         for j in range(i - 1, n - d + 1)))]


@pytest.mark.parametrize("n", range(1, 17))
def test_gap_counts_equal_the_formula_in_counts(n):
    # equal p-free counts make the enumerated and closed-form laws equal at every p in (0, 1]
    for i in range(1, n + 1):
        assert list(_gap_counts(n, i)) == _formula_gap_counts(n, i)


def _upper_tail(m, p, i):
    """P(Binomial(m, p) > i) in exact rationals, from math.comb."""
    return sum((math.comb(m, k) * p**k * (1 - p) ** (m - k) for k in range(i + 1, m + 1)),
               Fraction(0))


@pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(7, 8), Fraction(1, 10)])
@pytest.mark.parametrize("n", range(1, 13))
def test_survival_identity(n, p):
    # deleting the d dead points after survivor i maps the patterns whose i-th
    # gap exceeds d one to one onto the patterns of n - d + 1 points, so
    # 1 - F_n(d) = q**d P(Bin(n-d+1, p) > i) / P(Bin(n+1, p) > i)
    q = 1 - p
    for i in range(1, n + 1):
        masses = sp.enumerate_conditional_pmf(n, p, i).masses
        total = _upper_tail(n + 1, p, i)
        cdf = Fraction(0)
        for d in range(1, n + 1):
            cdf += masses[d]
            assert 1 - cdf == q**d * _upper_tail(n - d + 1, p, i) / total, (i, d)
            if i == 1:  # the identity's right side is cdf_scaled_closed_i1's formula
                assert cdf == (1 - q**d - d * p * q**n) / (1 - q ** (n + 1) - (n + 1) * p * q**n)
