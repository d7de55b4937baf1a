import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2

import spacings as sp
from spacings import sampler
from spacings.errors import DomainError
from spacings.sampler import THREADS_ENV


def dense_reference(n, p, i, trials, seed):
    """Thin grid(n) point by point: one uniform draw per grid point per trial.

    Independent of the geometric waiting times the sampler walks; returns
    the histogram of the i-th spacing over d = 1..n and the discard count.
    """
    rng = np.random.default_rng(seed)
    keep = rng.random((trials, n + 1)) < p
    row_idx, col_idx = np.nonzero(keep)
    per_row = np.bincount(row_idx, minlength=trials)
    qualifying = np.flatnonzero(per_row > i)
    offsets = np.concatenate(([0], np.cumsum(per_row)))
    gaps = col_idx[offsets[qualifying] + i] - col_idx[offsets[qualifying] + i - 1]
    return np.bincount(gaps, minlength=n + 1)[1:], trials - qualifying.size


def _chi_square_pvalue(counts, masses):
    """Goodness of fit of counts to masses, pooling cells expected below 5."""
    expected = counts.sum() * masses
    big = expected >= 5
    obs = np.append(counts[big], counts[~big].sum())
    exp = np.append(expected[big], expected[~big].sum())
    obs, exp = obs[exp > 0], exp[exp > 0]
    if obs.size == 1:
        return 1.0 if obs[0] == counts.sum() else 0.0
    return float(chi2.sf(((obs - exp) ** 2 / exp).sum(), obs.size - 1))


class TestSampleSubset:
    def test_p_one_keeps_everything(self):
        run = sp.sample_subset(sp.grid(10), 1.0, 7)
        assert run.survivors.tolist() == list(range(11))
        assert run.spacings == pytest.approx(np.full(10, 0.1), abs=1e-15)

    def test_same_seed_same_pattern(self):
        a = sp.sample_subset(sp.grid(200), 0.5, 123)
        b = sp.sample_subset(sp.grid(200), 0.5, 123)
        assert np.array_equal(a.survivors, b.survivors)

    def test_different_seeds_differ(self):
        a = sp.sample_subset(sp.grid(200), 0.5, 1)
        b = sp.sample_subset(sp.grid(200), 0.5, 2)
        assert not np.array_equal(a.survivors, b.survivors)

    def test_spacings_telescope(self):
        run = sp.sample_subset(sp.farey(30), 0.4, 99)
        values = run.survivor_values
        assert run.spacings.sum() == pytest.approx(values[-1] - values[0], abs=1e-12)
        assert np.all(run.spacings > 0)

    def test_survivor_count_mean(self):
        # survivor count is Binomial(11, 0.3); check the mean over many seeds
        m = 100_000
        total = sum(len(sp.sample_subset(sp.grid(10), 0.3, seed).survivors)
                    for seed in range(m))
        se = math.sqrt(11 * 0.3 * 0.7 / m)
        assert abs(total / m - 3.3) < 3 * se

    def test_chunking_does_not_change_survivors(self, monkeypatch):
        # with no margin the walk often outruns its first chunk of steps
        expected = [sp.sample_subset(sp.grid(1000), p, s).survivors
                    for p in (0.05, 0.5, 1.0) for s in range(4)]
        monkeypatch.setattr(sampler, "_SUBSET_SIGMAS", 0.0)
        chunked = [sp.sample_subset(sp.grid(1000), p, s).survivors
                   for p in (0.05, 0.5, 1.0) for s in range(4)]
        assert all(np.array_equal(a, b) for a, b in zip(expected, chunked))

    def test_tiny_p_keeps_nothing(self):
        assert sp.sample_subset(sp.grid(10**6), 1e-30, 4).survivors.size == 0

    def test_invalid(self):
        with pytest.raises(DomainError):
            sp.sample_subset(sp.grid(5), 0.0, 1)
        with pytest.raises(DomainError):
            sp.sample_subset(sp.grid(5), 0.5, -1)
        with pytest.raises(DomainError):
            sp.sample_subset(sp.grid(5), 0.5, 1 << 64)


class TestIthScaledSpacing:
    def _run_with(self, survivors):
        return sp.SampleRun(sp.grid(10), 0.5, 0, np.asarray(survivors))

    def test_index_difference(self):
        assert sp.ith_scaled_spacing(self._run_with([0, 3, 7]), 1, 10) == 3
        assert sp.ith_scaled_spacing(self._run_with([0, 3, 7]), 2, 10) == 4
        assert sp.ith_scaled_spacing(self._run_with([2, 4]), 1, 10) == 2

    def test_missing_when_too_few_survivors(self):
        assert sp.ith_scaled_spacing(self._run_with([0, 3, 7]), 3, 10) is None
        assert sp.ith_scaled_spacing(self._run_with([]), 1, 10) is None


class TestCollectEmpirical:
    def test_small_grid_mass(self):
        emp = sp.collect_empirical(2, 0.5, 1, 1_000_000, 31337)
        # exact conditional mass at one step is 3/4; binomial se ~ 0.0005
        assert abs(emp.counts[1] / emp.total - 0.75) < 0.005

    def test_p_one_all_mass_at_one_step(self):
        emp = sp.collect_empirical(25, 1.0, 1, 10, 5)
        assert set(emp.counts) == {1}
        assert emp.total == 10
        assert emp.discarded == 0

    def test_discard_rate_matches_size_tail(self):
        trials = 1_000_000
        emp = sp.collect_empirical(10, 0.3, 2, trials, 2024)
        tail = sp.size_tail(10, 0.3, 2).prob
        se = math.sqrt(tail * (1 - tail) / trials)
        assert abs(emp.total / trials - tail) < 4 * se
        assert emp.total + emp.discarded == trials

    def test_worker_count_does_not_change_results(self):
        base = sp.collect_empirical(400, 0.2, 2, 50_000, 77, workers=1)
        threaded = sp.collect_empirical(400, 0.2, 2, 50_000, 77, workers=4)
        assert base.counts == threaded.counts
        assert base.discarded == threaded.discarded

    def test_threads_env_is_honored(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "3")
        enveloped = sp.collect_empirical(100, 0.3, 1, 20_000, 11)
        monkeypatch.delenv(THREADS_ENV)
        assert enveloped.counts == sp.collect_empirical(100, 0.3, 1, 20_000, 11).counts

    def test_workers_across_several_blocks(self):
        trials = 3 * (sampler._BLOCK_DRAWS // 2) + 7  # four blocks at i = 1
        base = sp.collect_empirical(10**6, 0.01, 1, trials, 91, workers=1)
        threaded = sp.collect_empirical(10**6, 0.01, 1, trials, 91, workers=3)
        assert base == threaded
        assert base.total + base.discarded == trials

    @pytest.mark.parametrize("n, p, i", [(10**9, 0.5, 3), (10**12, 1e-11, 1)])
    def test_memory_does_not_grow_with_n(self, n, p, i):
        # the grid is never materialized and the histogram is sparse
        tracemalloc.start()
        try:
            emp = sp.collect_empirical(n, p, i, 10_000, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert emp.total + emp.discarded == 10_000
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("n, p, i", [
        (1, Fraction(1, 2), 1),
        (6, Fraction(3, 10), 2),
        (5, Fraction(1, 2), 5),
        (8, Fraction(4, 5), 1),
        (12, Fraction(1, 10), 3),
        (4, Fraction(1), 4),
    ])
    def test_agrees_in_law_with_dense_reference_and_exact_table(self, n, p, i):
        trials = 200_000
        exact = sp.enumerate_conditional_pmf(n, p, i)
        masses = np.array([float(exact.mass(d)) for d in range(1, n + 1)])
        tail = sp.size_tail(n, float(p), i).prob
        emp = sp.collect_empirical(n, float(p), i, trials, 606)
        skipped = np.array([emp.counts.get(d, 0) for d in range(1, n + 1)])
        dense, dense_discarded = dense_reference(n, float(p), i, trials, 607)
        for counts, discarded in ((skipped, emp.discarded), (dense, dense_discarded)):
            assert counts.sum() + discarded == trials
            se = math.sqrt(trials * tail * (1 - tail))
            assert abs(counts.sum() - trials * tail) <= 4 * se
            assert _chi_square_pvalue(counts, masses) > 1e-4

    def test_invalid(self):
        with pytest.raises(DomainError):
            sp.collect_empirical(10, 0.5, 1, 0, 1)
        with pytest.raises(DomainError):
            sp.collect_empirical(10, 0.5, 11, 100, 1)
        with pytest.raises(DomainError):
            sp.collect_empirical(10, 1.5, 1, 100, 1)
        with pytest.raises(DomainError):
            sp.collect_empirical(2**53, 0.5, 1, 100, 1)


class TestInterArrivalStream:
    def test_p_one_is_all_ones(self):
        assert sp.inter_arrival_stream(1.0, 3, 5).tolist() == [1, 1, 1, 1, 1]

    def test_deterministic_and_exact_length(self):
        a = sp.inter_arrival_stream(0.2, 8, 10_000)
        b = sp.inter_arrival_stream(0.2, 8, 10_000)
        assert np.array_equal(a, b)
        assert a.size == 10_000
        assert a.min() >= 1

    def test_mean_matches_geometric(self):
        draws = sp.inter_arrival_stream(0.5, 404, 1_000_000)
        se = math.sqrt(2.0 / draws.size)  # Var = (1-p)/p**2 = 2
        assert abs(draws.mean() - 2.0) < 3 * se

    def test_chunk_boundaries_leave_no_seam(self):
        # a gap spanning the internal chunk boundary must still be counted once
        draws = sp.inter_arrival_stream(1e-5, 12, 50)
        assert draws.min() >= 1
        assert draws.size == 50

    def test_small_p_costs_nothing_extra(self):
        draws = sp.inter_arrival_stream(1e-8, 13, 20)
        assert draws.size == 20
        assert draws.min() >= 1

    def test_tiny_p_never_emits_saturated_gaps(self):
        # Generator.geometric(1e-19) returns 2**63 - 1 in most draws
        with pytest.raises(DomainError):
            sp.inter_arrival_stream(1e-19, 5, 5)
        with pytest.raises(DomainError):
            sp.inter_arrival_stream(2.0**-57, 5, 5)
        draws = sp.inter_arrival_stream(2.0**-56, 5, 10_000)
        assert draws.max() < np.iinfo(np.int64).max

    def test_invalid(self):
        with pytest.raises(DomainError):
            sp.inter_arrival_stream(0.5, 1, 0)
        with pytest.raises(DomainError):
            sp.inter_arrival_stream(1.5, 1, 5)


def test_first_spacing_matches_process_view():
    # with n far beyond the typical spacing, the first scaled grid spacing
    # and the second inter-arrival of the endless process agree in law
    emp_grid = sp.collect_empirical(300, 0.3, 1, 1_000_000, 515)
    second = sp.inter_arrival_stream(0.3, 516, 2_000_000)[1::2]
    counts = np.bincount(second)
    emp_stream = sp.EmpiricalDistribution(
        {int(d): int(c) for d, c in enumerate(counts) if d >= 1 and c > 0}
    )
    assert sp.tv_between(emp_grid, emp_stream) < 0.01
