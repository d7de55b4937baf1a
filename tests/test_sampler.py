import math
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2, chi2_contingency

import spacings as sp
from spacings import sampler
from spacings.errors import DomainError


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


def _dense_counts(emp, k):
    """Counts of d = 1..k from a histogram, zero where d was not observed."""
    counts = np.zeros(k, dtype=np.int64)
    inside = emp.atoms <= k
    counts[emp.atoms[inside] - 1] = emp.counts[inside]
    return counts


class _BlockFailed(Exception):
    """Raised by a block that a test makes fail."""


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


def _two_sample_pvalue(a, b):
    """Homogeneity of two histograms on one support, pooling cells with fewer than 10."""
    big = a + b >= 10
    table = np.array([np.append(a[big], a[~big].sum()), np.append(b[big], b[~big].sum())])
    table = table[:, table.sum(axis=0) > 0]
    return float(chi2_contingency(table)[1])


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
        values = run.points.points[run.survivors]
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


class TestSampleRun:
    def test_survivors_the_sampler_draws_are_accepted(self):
        run = sp.sample_subset(sp.grid(10), 1.0, 7)
        assert sp.SampleRun(run.points, run.survivors).spacings.size == 10
        empty = sp.SampleRun(sp.grid(3), np.array([], dtype=np.int64))
        assert empty.spacings.size == 0
        assert sp.SampleRun(sp.grid(3), np.array([0, 3], dtype=np.uint8)).spacings.tolist() == [1.0]

    @pytest.mark.parametrize("survivors", [
        np.array([10]), np.array([3, 4]), np.array([-1, 2]), np.array([2, 1]), np.array([1, 1]),
        np.array([1.0, 2.0]), np.array([[1, 2]]), np.array([]), [1, 2], None,
    ], ids=["past-the-end", "last-past-the-end", "negative", "decreasing", "repeated",
            "float", "2-d", "empty-float", "list", "none"])
    def test_other_survivors_are_domain_errors(self, survivors):
        with pytest.raises(DomainError, match="survivors must be"):
            sp.SampleRun(sp.grid(3), survivors)


class TestCollectEmpirical:
    def test_small_grid_mass(self):
        emp = sp.collect_empirical(2, 0.5, 1, 1_000_000, 31337)
        # exact conditional mass at one step is 3/4; binomial se ~ 0.0005
        assert emp.atoms[0] == 1
        assert abs(emp.counts[0] / emp.total - 0.75) < 0.005

    def test_p_one_all_mass_at_one_step(self):
        emp = sp.collect_empirical(25, 1.0, 1, 10, 5)
        assert emp.atoms.tolist() == [1]
        assert emp.total == 10
        assert emp.discarded == 0

    @pytest.mark.parametrize("n, p, i", [
        (10, 0.3, 2),
        (2**53 - 2, 3e-19, 1),  # a quarter of the Poisson means reach the cap
        (2**53 - 2, 1e-17, 1),
        (2**53 - 2, 1e-16, 3),
        (10**12, 1e-11, 2),
    ])
    def test_discard_rate_matches_size_tail(self, n, p, i):
        trials = 1_000_000
        emp = sp.collect_empirical(n, p, i, trials, 2024)
        tail = math.exp(sp.size_tail(n, p, i).log)
        se = math.sqrt(tail * (1 - tail) / trials)
        assert abs(emp.total / trials - tail) < 4 * se
        assert emp.total + emp.discarded == trials

    @staticmethod
    def _spawned_block(child, n, p, i, rows):
        """Block histogram from one ``spawn`` child, by the same three draws.

        The clips to n + 1 are left out: they change no kept spacing.
        """
        rng = np.random.default_rng(child)
        lam = np.minimum(rng.standard_gamma(i, rows) * (1 - p) / p, 2.0**62)
        failures, steps = rng.poisson(lam), rng.geometric(p, rows)
        return np.unique(steps[failures + steps <= n + 1 - i], return_counts=True)

    def test_blocks_are_their_index(self):
        n, p, i, seed = 40, 0.1, 3, 515
        trials = 2 * sampler._BLOCK_TRIALS + 1  # three blocks, the last of one trial
        merged = {}
        for b, child in enumerate(np.random.SeedSequence(seed).spawn(3)):
            values, counts = sampler._simulate_block(seed, b, n, p, i, trials)
            rows = min(sampler._BLOCK_TRIALS, trials - b * sampler._BLOCK_TRIALS)
            ref_values, ref_counts = self._spawned_block(child, n, p, i, rows)
            assert np.array_equal(values, ref_values) and np.array_equal(counts, ref_counts)
            assert counts.sum() <= rows
            for v, c in zip(values.tolist(), counts.tolist()):
                merged[v] = merged.get(v, 0) + c
        assert rows == 1
        emp = sp.collect_empirical(n, p, i, trials, seed)
        assert emp == sp.EmpiricalDistribution(merged, trials - sum(merged.values()))
        assert 0 < emp.discarded < trials

    @staticmethod
    def _recorded_blocks(monkeypatch, fail_at=None, error=None):
        """Block indices and threads that ``_simulate_block`` runs on from now on.

        Block ``fail_at`` raises ``error`` once it is recorded.
        """
        ran, simulate = [], sampler._simulate_block

        def recorded(seed, b, *args, **kwargs):
            ran.append((b, threading.get_ident()))
            if b == fail_at:
                raise error
            return simulate(seed, b, *args, **kwargs)

        monkeypatch.setattr(sampler, "_simulate_block", recorded)
        return ran

    def test_blocks_run_in_order_and_merge_to_their_sum(self, monkeypatch):
        monkeypatch.setattr(sampler, "_BLOCK_TRIALS", 64)
        args = (300, 0.1, 2, 64 * 40 + 5, 9)  # 41 blocks
        merged = {}  # the blocks merged one by one, in Python ints
        for b in range(41):
            for v, c in zip(*(a.tolist() for a in sampler._simulate_block(9, b, *args[:4]))):
                merged[v] = merged.get(v, 0) + c
        ran = self._recorded_blocks(monkeypatch)
        emp = sp.collect_empirical(*args)
        assert ran == [(b, threading.get_ident()) for b in range(41)]
        assert emp == sp.EmpiricalDistribution(merged, args[3] - sum(merged.values()))
        assert emp.total > 0

    @pytest.mark.parametrize("error", [_BlockFailed, KeyboardInterrupt],
                             ids=["exception", "interrupt"])
    def test_an_error_in_a_block_ends_the_run_at_that_block(self, monkeypatch, error):
        monkeypatch.setattr(sampler, "_BLOCK_TRIALS", 64)
        ran = self._recorded_blocks(monkeypatch, fail_at=1, error=error("block 1"))
        with pytest.raises(error, match="block 1"):
            sp.collect_empirical(300, 0.1, 2, 64 * 7, 9)  # 7 blocks
        assert ran == [(0, threading.get_ident()), (1, threading.get_ident())]

    def test_one_block_starts_no_thread(self, fresh_python):
        # a fresh process: this one may have loaded concurrent.futures already;
        # one block, then three
        code = ("import sys, threading\n"
                "started = []\n"
                "start = threading.Thread.start\n"
                "threading.Thread.start = lambda t: (started.append(t), start(t))[1]\n"
                "import spacings as sp\n"
                f"for trials in ({sampler._BLOCK_TRIALS}, {2 * sampler._BLOCK_TRIALS + 1}):\n"
                "    emp = sp.collect_empirical(400, 0.2, 2, trials, 77)\n"
                "    print(emp.total + emp.discarded, len(started),\n"
                "          *(m in sys.modules for m in ('concurrent.futures', 'logging')))")
        proc = fresh_python(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(sampler._BLOCK_TRIALS), "0", "False", "False",
                                       str(2 * sampler._BLOCK_TRIALS + 1), "0", "False", "False"]

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

    @staticmethod
    def _whole_row_reference(n, p, i, trials, seed):
        """The per-step walk: each trial draws its i+1 geometric steps as one row.

        Returns the histogram of the i-th spacing over d = 1..n and the
        discard count.
        """
        rng = np.random.default_rng(seed)
        counts, discarded = np.zeros(n + 1, np.int64), 0
        for start in range(0, trials, 1000):
            steps = np.minimum(rng.geometric(p, (min(1000, trials - start), i + 1)), n + 1)
            kept = steps.sum(axis=1) <= n + 1  # survivor i+1 on the grid
            counts += np.bincount(steps[kept, i], minlength=n + 1)
            discarded += int(np.count_nonzero(~kept))
        return counts[1:], discarded

    def test_agrees_in_law_with_the_per_step_walk(self):
        # survivor i+1 sits near (i+1)/p - 1 = n - 1, so about half the trials are kept
        n, p, i, trials = 2000, 0.5, 999, 20_000
        emp = sp.collect_empirical(n, p, i, trials, 12)
        drawn = _dense_counts(emp, n)
        walked, walk_discarded = self._whole_row_reference(n, p, i, trials, 13)
        tail = math.exp(sp.size_tail(n, p, i).log)
        se = math.sqrt(trials * tail * (1 - tail))
        for counts, discarded in ((drawn, emp.discarded), (walked, walk_discarded)):
            assert counts.sum() + discarded == trials
            assert abs(counts.sum() - trials * tail) <= 4 * se
        assert _two_sample_pvalue(drawn, walked) > 1e-4

    @pytest.mark.parametrize("n, p, i, trials", [
        (2**21 - 1, 0.5, 2**20 - 1, 2000),  # the walk: 2**20 steps, 8 MiB a trial
        (10**12, 1.0, 10**12, 50),
        (10**12, 0.5, 10**12, 50),
    ])
    def test_long_trials_in_bounded_time_and_memory(self, n, p, i, trials):
        # a trial is three draws, so neither time nor memory follows i
        tracemalloc.start()
        try:
            start = time.perf_counter()
            emp = sp.collect_empirical(n, p, i, trials, 12)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak
        assert elapsed < 1.0, elapsed
        assert emp.total + emp.discarded == trials
        if p == 1.0:
            assert emp == sp.EmpiricalDistribution({1: trials})

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
        tail = math.exp(sp.size_tail(n, float(p), i).log)
        emp = sp.collect_empirical(n, float(p), i, trials, 606)
        skipped = _dense_counts(emp, n)
        dense, dense_discarded = dense_reference(n, float(p), i, trials, 607)
        for counts, discarded in ((skipped, emp.discarded), (dense, dense_discarded)):
            assert counts.sum() + discarded == trials
            se = math.sqrt(trials * tail * (1 - tail))
            assert abs(counts.sum() - trials * tail) <= 4 * se
            assert _chi_square_pvalue(counts, masses) > 1e-4

    @pytest.mark.parametrize("n, p, i", [(3000, 0.3, 500), (2 * 10**6, 0.5, 10**6)])
    def test_agrees_in_law_with_exact_table_at_large_i(self, n, p, i):
        trials, k = 200_000, 2000
        mass = sp.spacing_distribution(sp.ModelParams(n, p, i)).head(min(k, n))[0]
        emp = sp.collect_empirical(n, p, i, trials, 909)
        counts = _dense_counts(emp, mass.size)
        tail = math.exp(sp.size_tail(n, p, i).log)
        se = math.sqrt(trials * tail * (1 - tail))
        assert abs(emp.total - trials * tail) <= 4 * se
        # one last cell for d past the head
        counts = np.append(counts, emp.total - counts.sum())
        masses = np.append(mass, max(0.0, 1.0 - mass.sum()))
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

    def test_trials_past_int64_are_refused_at_once(self):
        # 2**63 trials would start about 1.4e14 blocks before the total is refused
        start = time.perf_counter()
        with pytest.raises(DomainError, match="trials=9223372036854775808 must be <="):
            sp.collect_empirical(10, 0.5, 1, 2**63, 1)
        assert time.perf_counter() - start < 1.0


class TestEmpiricalDistribution:
    def test_an_empty_histogram_has_empty_int64_arrays(self):
        emp = sp.EmpiricalDistribution({})
        assert emp.atoms.size == emp.counts.size == emp.total == 0
        assert emp.atoms.dtype == emp.counts.dtype == np.int64

    def test_collected_counts_are_integers(self):
        emp = sp.collect_empirical(50, 0.3, 2, 2_000, 6)
        assert emp.atoms.dtype == emp.counts.dtype == np.int64
        assert type(emp.total) is int
        assert emp.counts.sum() == emp.total

    def test_atoms_sorted_with_zero_counts_kept_and_read_only(self):
        emp = sp.EmpiricalDistribution({9: 2, 3: 0, 4: 1}, discarded=5)
        assert emp.atoms.tolist() == [3, 4, 9]
        assert emp.counts.tolist() == [0, 1, 2]
        assert emp.total == 3 and emp.discarded == 5
        with pytest.raises(ValueError):
            emp.counts[0] = 7

    @pytest.mark.parametrize("counts", [
        {1: 5, 2: -3}, {1.5: 2}, {0: 2}, {-1: 2}, {1: 2.5}, {10**30: 1}, {"a": 1},
        {(1, 2): 1}, {1: 2**62, 2: 2**62},
    ], ids=repr)
    def test_bad_mappings_are_domain_errors(self, counts):
        with pytest.raises(DomainError):
            sp.EmpiricalDistribution(counts)

    def test_equal_only_to_an_equal_histogram(self):
        emp = sp.EmpiricalDistribution({1: 3, 2: 1}, discarded=2)
        assert emp == sp.EmpiricalDistribution({2: 1, 1: 3}, discarded=2)
        assert emp != sp.EmpiricalDistribution({1: 3, 2: 1})
        assert (emp == object()) is False and emp != {1: 3, 2: 1}


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

    @pytest.mark.parametrize("count", [2**53 + 1, 2**70])
    def test_count_past_2_53_is_refused_before_drawing(self, count):
        with pytest.raises(DomainError, match="count"):
            sp.inter_arrival_stream(0.5, 1, count)


def test_first_spacing_matches_process_view():
    # with n far beyond the typical spacing, the first scaled grid spacing
    # and the second inter-arrival of the endless process agree in law
    emp_grid = sp.collect_empirical(300, 0.3, 1, 1_000_000, 515)
    second = sp.inter_arrival_stream(0.3, 516, 2_000_000)[1::2]
    counts = np.bincount(second)
    emp_stream = sp.EmpiricalDistribution(
        {int(d): int(c) for d, c in enumerate(counts) if d >= 1 and c > 0}
    )
    support = np.union1d(emp_grid.atoms, emp_stream.atoms)
    masses = []
    for emp in (emp_grid, emp_stream):
        full = np.zeros(support.size)
        full[np.searchsorted(support, emp.atoms)] = emp.counts / emp.counts.sum()
        masses.append(full)
    assert 0.5 * np.abs(masses[0] - masses[1]).sum() < 0.01  # total variation
