import math
import re
import tracemalloc

import numpy as np
import pytest

import spacings as sp
from spacings.errors import DomainError, EmptySampleError


def _emp(counts):
    return sp.EmpiricalDistribution(dict(counts))


class TestKsToGeometric:
    def test_point_mass_against_half(self):
        report = sp.ks_to_geometric(_emp({1: 1000}), 0.5)
        assert report.ks == pytest.approx(0.5, abs=1e-15)
        assert report.n_effective == 1000

    def test_degenerate_match_is_zero(self):
        # the geometric law with p = 1 is the point mass at 1
        report = sp.ks_to_geometric(_emp({1: 42}), 1.0)
        assert report.ks == 0.0
        assert report.tv == 0.0

    def test_truncated_geometric_is_nearly_zero(self):
        p, dmax = 0.1, 300
        counts = {d: round(1e15 * p * (1 - p) ** (d - 1)) for d in range(1, dmax + 1)}
        report = sp.ks_to_geometric(_emp(counts), p)
        # only the renormalized tail q**dmax ~ 2e-14 separates the two
        assert report.ks < 1e-12

    def test_tv_counts_unobserved_tail(self):
        report = sp.ks_to_geometric(_emp({1: 10}), 0.5)
        # |1 - 0.5|/2 at d = 1 plus the geometric mass 0.5 beyond
        assert report.tv == pytest.approx(0.5, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(EmptySampleError):
            sp.ks_to_geometric(_emp({}), 0.5)
        with pytest.raises(DomainError):
            sp.ks_to_geometric(_emp({1: 5}), 0.0)


def _dense_masses(emp, dmax):
    d = np.arange(1, dmax + 1)
    m = np.zeros(dmax)
    m[: emp.max_observed] = emp.as_arrays()[1]
    return d, m / m.sum()


def _dense_ks_tv_to_geometric(emp, p):
    """Reference: both distances over every d = 1..max observed."""
    d, mass = _dense_masses(emp, emp.max_observed)
    ks = np.abs(np.cumsum(mass) - sp.limit_cdf(p, d)).max()
    tail = 0.0 if p == 1.0 else math.exp(emp.max_observed * math.log1p(-p))
    tv = 0.5 * (np.abs(mass - sp.limit_pmf(p, d)).sum() + tail)
    return ks, min(tv, 1.0)


_GEOMETRIC_CASES = [
    ({1: 1000}, 0.5),
    ({1: 42}, 1.0),
    ({d: round(1e15 * 0.1 * 0.9 ** (d - 1)) for d in range(1, 301)}, 0.1),
    ({1: 10}, 0.5),
    ({2: 3, 5: 1, 40: 2}, 0.1),
    ({7: 5}, 0.3),
]

class TestSparseAgreesWithDense:
    @pytest.mark.parametrize("counts, p", _GEOMETRIC_CASES)
    def test_to_geometric(self, counts, p):
        report = sp.ks_to_geometric(_emp(counts), p)
        ks, tv = _dense_ks_tv_to_geometric(_emp(counts), p)
        assert abs(report.ks - ks) <= 1e-15
        assert abs(report.tv - tv) <= 1e-15

    def test_memory_follows_distinct_values(self):
        emp = sp.collect_empirical(10**9, 1e-7, 1, 10, 1)
        assert emp.max_observed > 10**6  # a dense pass would cost megabytes
        tracemalloc.start()
        try:
            report = sp.ks_to_geometric(emp, 1e-7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert 0.0 < report.ks < 1.0


class TestConvergenceSweep:
    def test_strictly_decreasing(self):
        result = sp.convergence_sweep(0.1, 1, [50, 100, 200, 400], 50)
        assert [n for n, _ in result] == [50, 100, 200, 400]
        sups = [s for _, s in result]
        assert all(a > b for a, b in zip(sups, sups[1:]))

    def test_tiny_distance_at_n200(self):
        (_, sup), = sp.convergence_sweep(0.1, 1, [200], 50)
        assert sup < 1e-6

    def test_p_one_distance_is_zero(self):
        for _, sup in sp.convergence_sweep(1.0, 1, [5, 10, 20], 5):
            assert sup == 0.0

    def test_matches_closed_form_route(self):
        # the same sweep assembled from the i=1 closed-form cdf
        for n, sup in sp.convergence_sweep(0.25, 1, [50, 100, 200], 40):
            closed_sup = max(
                abs(sp.cdf_scaled_closed_i1(n, 0.25, d) - sp.limit_cdf(0.25, d))
                for d in range(1, 41)
            )
            assert abs(sup - closed_sup) < 1e-12

    def test_preconditions(self):
        with pytest.raises(DomainError):
            sp.convergence_sweep(0.1, 1, [50, 100], 51)
        with pytest.raises(DomainError):
            sp.convergence_sweep(0.1, 5, [4, 100], 4)
        with pytest.raises(DomainError):
            sp.convergence_sweep(0.1, 1, [], 1)


class TestScaledMeanExponentialCheck:
    def test_exponential_sample_is_close(self):
        rng = np.random.default_rng(2718)
        report = sp.scaled_mean_exponential_check(rng.exponential(size=100_000))
        assert report.ks < 0.01
        assert report.tv is None
        assert report.n_effective == 100_000

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_point_mass_at_its_own_mean(self):
        # 500 * 1e308 overflows the plain sum
        for value in (3.7, 1e308):
            report = sp.scaled_mean_exponential_check(np.full(500, value))
            assert report.ks == pytest.approx(math.exp(-1), abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.exponential(size=2000)
        assert sp.scaled_mean_exponential_check(x).ks == pytest.approx(
            sp.scaled_mean_exponential_check(1000.0 * x).ks, abs=1e-12
        )

    def test_needs_enough_spacings(self):
        with pytest.raises(EmptySampleError):
            sp.scaled_mean_exponential_check(np.ones(99))

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            sp.scaled_mean_exponential_check(np.concatenate([np.ones(200), [-1.0]]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError, match="finite"):
            sp.scaled_mean_exponential_check(np.concatenate([np.ones(200), [bad]]))

    def test_rejects_text(self):
        with pytest.raises(DomainError):
            sp.scaled_mean_exponential_check("abc")

    @pytest.mark.parametrize("shape", [(10, 20), (), (1, 200)])
    def test_rejects_other_than_one_dimension_by_shape(self, shape):
        # a (10, 20) array holds 200 spacings, but not as one sample
        with pytest.raises(DomainError, match=re.escape(f"got shape {shape}")):
            sp.scaled_mean_exponential_check(np.ones(shape))


def test_report_validation():
    with pytest.raises(DomainError):
        sp.DistanceReport(ks=-0.1, tv=None, n_effective=0)
    with pytest.raises(DomainError):
        sp.DistanceReport(ks=0.1, tv=1.5, n_effective=0)
    with pytest.raises(DomainError):
        sp.DistanceReport(ks=math.nan, tv=None, n_effective=0)
    with pytest.raises(DomainError):
        sp.DistanceReport(ks=0.1, tv=math.nan, n_effective=0)
    for bad in (-5, 2.5, None):
        with pytest.raises(DomainError, match="n_effective"):
            sp.DistanceReport(ks=0.1, tv=None, n_effective=bad)
    assert type(sp.DistanceReport(ks=0.1, tv=None, n_effective=np.int64(7)).n_effective) is int
