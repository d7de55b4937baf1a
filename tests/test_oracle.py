import hashlib
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

import spacings as sp
from spacings import oracle
from spacings.cli import run
from spacings.errors import DomainError, EnumerationLimitError


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


def test_a_table_built_by_hand_checks_n_p_and_masses():
    table = sp.enumerate_conditional_pmf(3, "1/2", 1)
    assert sp.ExactTable(*table) == table
    assert sp.ExactTable(3, "1/2", table.masses).p == Fraction(1, 2)
    halves = {1: Fraction(1, 2), 2: Fraction(1, 2)}
    for n, p, masses in [
        (math.inf, Fraction(1, 2), {}),
        (0, Fraction(1, 2), {}),
        (2, 0.5, halves),
        (2, Fraction(3, 2), halves),
        (3, Fraction(1, 2), halves),  # d = 3 missing
        (2, Fraction(1, 2), {1: Fraction(1, 2), 3: Fraction(1, 2)}),
        (2, Fraction(1, 2), {1: 0.5, 2: 0.5}),
        (2, Fraction(1, 2), {1: Fraction(3, 2), 2: Fraction(-1, 2)}),
        (2, Fraction(1, 2), list(halves.items())),
    ]:
        with pytest.raises(DomainError):
            sp.ExactTable(n, p, masses)
        with pytest.raises(DomainError):
            sp.ExactTable._make([n, p, masses])
    with pytest.raises(DomainError):
        table._replace(n=math.inf)
    assert table._replace(p="1/2") == table


def _reference_gap_counts(n, i):
    """(survivors, gap, count) over the patterns with more than i survivors, one at a time."""
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


def _tally_masses(n, p, i, counts):
    """The masses of the (survivors, gap, count) tally, weighted at p."""
    masses = {d: Fraction(0) for d in range(1, n + 1)}
    for ones, d, count in counts:
        masses[d] += count * p**ones * (1 - p) ** (n + 1 - ones)
    total = sum(masses.values())
    return {d: m / total for d, m in masses.items()}


_TALLY_P = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(7, 8), Fraction(5, 16))


@pytest.mark.parametrize("n", range(1, 13))
def test_walk_equals_the_per_pattern_tally(n):
    for i in range(1, n + 1):
        counts = _reference_gap_counts(n, i)
        for p in _TALLY_P:
            assert oracle._walk(n, p, i).masses == _tally_masses(n, p, i, counts), (i, p)


@pytest.mark.parametrize("i", [1, 2, 8, 15, 16])
def test_walk_at_the_cap(i):
    counts = _reference_gap_counts(16, i)
    assert sum(c for _, _, c in counts) == sum(math.comb(17, k) for k in range(i + 1, 18))
    for p in _TALLY_P:
        tracemalloc.start()
        try:
            got = oracle._walk(16, p, i)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.masses == _tally_masses(16, p, i, counts), p
        assert peak < 2**20


@pytest.mark.parametrize("n", range(1, 17))
def test_walk_equals_the_formula_at_every_p(n):
    """The walk and the closed form agree at every p in (0, 1], not just at these.

    Each mass of either is a ratio N(p) / D(p) of two polynomials in p of
    degree at most n + 1, and D > 0 on (0, 1] (it is the probability of
    more than i survivors).  Two such ratios are equal where N1 D2 - N2 D1,
    of degree at most 2n + 2, vanishes; if it vanishes at the 2n + 3
    distinct points k / (2n + 3), k = 1..2n+3, it is the zero polynomial.
    """
    m = 2 * n + 3
    for i in range(1, n + 1):
        for k in range(1, m + 1):
            p = Fraction(k, m)
            assert oracle._walk(n, p, i).masses == sp.exact_closed_form_pmf(n, p, i).masses, (i, k)


# SHA-256 of the oracle's stdout at n = 16, recorded before the walk took
# integer weights; exact rationals print the same bytes on every platform.
_ORACLE_SHA256 = {
    ("1/3", 2, "csv"): "2d00f8ce90a1c823b91109481ee735161c0a8821f6e1327e21b484a29bc69f5a",
    ("1/3", 2, "json"): "91f20d32513fb1640016fef208e9e5c9a4a91076dab8eac15734b2b5370a4363",
    ("1/4", 2, "csv"): "40b21976cbb8f967d33a6396105271bdee71a5d25552d5f2e9cbcaea2df72773",
    ("1/4", 2, "json"): "86136041201e9434d6a931dde4f4d5e2a9f3404ad8fd89d142451fb3562cd5e5",
    ("2/5", 2, "csv"): "4a2fb2952af36ae2f08573d1cfcc1255c1f7c2d3fd9c90caacb5cc121defc970",
    ("2/5", 2, "json"): "4c28ac07eadfaa330ffe745d8b8b4ded7b98bcc65f19dd5457958903a2ed8008",
    ("3/10", 2, "csv"): "13c16d08c5bdf732180ceb84ef2c5750dedfe74d0fedfe1fde0373f6864235ed",
    ("3/10", 2, "json"): "e2e358b5e0d55467f0820ad175934124d10e153fd7d08712a66f84a95356b1cf",
    ("9/10", 8, "csv"): "8daae4c0580722003317966148af3a2be1ac8b6f8eee335bdd9c0f8f4b4c8812",
    ("9/10", 8, "json"): "43f43f5fe3567be0421f90336c28879a76c704e94c751bdea292fc14a7743724",
    ("7/8", 8, "csv"): "c1dfe8f95928300340defcbb6e064e6e150ff2e16bfd2f2449ee088fdfc643c1",
    ("7/8", 8, "json"): "44f93ac2ff7874fcb399d30fa8aadbd5e109895b8acd0d88241352f766e00bc0",
    ("5/6", 8, "csv"): "e710d2bed8d478f3452fd36323a57c8215b6284d7e73d06c461643b402c43e6b",
    ("5/6", 8, "json"): "c46ba307ac6c3fa5716fede0ae0d1309bc68a2a845d13dca374df17319b8f383",
    ("4/5", 8, "csv"): "52f826c43b6fdd7f2b89fbf94e54e51bcba7873bcbefab541f3dbfaab94dd8f6",
    ("4/5", 8, "json"): "e708d01cf1af691747db8cbbb91db0bb23fd48958488a222c182ac2dd6cb7982",
}


@pytest.mark.parametrize("p,i,fmt", sorted(_ORACLE_SHA256))
def test_oracle_stdout_keeps_its_bytes(capsys, p, i, fmt):
    assert run(["oracle", "--n", "16", "--p", p, "--i", str(i), "--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == _ORACLE_SHA256[p, i, fmt]
    assert err == ("MATCH\n" if fmt == "json" else "")


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
