"""Seedable Monte Carlo engine for Bernoulli thinning.

Thinning is simulated by waiting times: the index steps to the first
survivor (from -1) and between survivors are i.i.d. Geometric(p), so walking
them with ``Generator.geometric`` simulates the model itself at a cost
proportional to the survivors visited, not the points (Devroye,
*Non-Uniform Random Variate Generation*, 1986, ch. X).  A step past the
last point is clipped to end just beyond it, which changes no outcome.

Reproducibility contract: a given (parameters, seed) pair produces
bit-identical results on every run of the same build.  Large trial counts
are partitioned into blocks of a fixed number of draws, so the block layout
is a function of (trials, i) alone; block b draws from a child of
``numpy.random.SeedSequence(seed)``, and block results merge by addition,
so the outcome is independent of how many worker threads are used.

The worker count defaults to 1 and can be raised per call or capped
globally through the ``SPACINGS_THREADS`` environment variable.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distribution import ModelParams
from .errors import DomainError, check_int, check_p
from .sequences import PointSet

THREADS_ENV = "SPACINGS_THREADS"

_BLOCK_DRAWS = 1 << 18  # geometric waiting times drawn per block
_SUBSET_SIGMAS = 6.0  # sample_subset draws beyond the expected survivor count
# Generator.geometric saturates at 2**63 - 1 for waiting times >= 2**63,
# which below this p happen with probability above exp(-128) per draw.
_STREAM_P_MIN = 2.0**-56
_GRID_N_MAX = 2**53 - 2  # grid end positions stay exact in float64
_SEED_MAX = (1 << 64) - 1  # seeds span the unsigned 64-bit range


def _resolve_workers(workers) -> int:
    if workers is None:
        env = os.environ.get(THREADS_ENV)
        if env is None:
            return 1
        try:
            workers = int(env)
        except ValueError as exc:
            raise DomainError(f"{THREADS_ENV}={env!r} is not an integer") from exc
    return check_int(workers, "workers", 1)


@dataclass(frozen=True)
class SampleRun:
    """One Bernoulli thinning of a point set.

    ``survivors`` holds the indices of the retained points; ``spacings``
    are the gaps between the values of consecutive survivors and sum to
    (last survivor) - (first survivor).
    """

    points: PointSet
    p: float
    seed: int
    survivors: np.ndarray

    @property
    def survivor_values(self) -> np.ndarray:
        return self.points.points[self.survivors]

    @property
    def spacings(self) -> np.ndarray:
        return np.diff(self.survivor_values)


def sample_subset(points: PointSet, p, seed) -> SampleRun:
    """Retain each point independently with probability p, in O(survivors).

    Steps are drawn in chunks covering the expected survivors plus a margin;
    the chunking does not change the result, since draws are consumed in order.
    """
    p = check_p(p)
    seed = check_int(seed, "seed", 0, _SEED_MAX)
    rng = np.random.default_rng(seed)
    size = len(points)
    pieces = []
    last = -1  # index of the latest survivor
    while True:
        remaining = size - 1 - last
        mean = p * remaining
        steps = rng.geometric(p, int(mean + _SUBSET_SIGMAS * math.sqrt(mean)) + 1)
        np.minimum(steps, remaining + 1, out=steps)
        positions = last + np.cumsum(steps)
        inside = int(np.searchsorted(positions, size))
        pieces.append(positions[:inside])
        if inside < positions.size:
            break
        last = int(positions[-1])
    survivors = np.concatenate(pieces)
    survivors.flags.writeable = False
    return SampleRun(points, p, seed, survivors)


def ith_scaled_spacing(run: SampleRun, i, n) -> int | None:
    """Gap between the i-th and (i+1)-th survivors of a grid(n) run, in steps.

    Returns None when the run has at most i survivors (the conditioning
    event failed).
    """
    i, n = check_int(i, "i", 1), check_int(n, "n", 1)
    if len(run.survivors) <= i:
        return None
    values = run.survivor_values
    return int(round(n * float(values[i] - values[i - 1])))


@dataclass
class EmpiricalDistribution:
    """Observed counts of integer scaled spacings from repeated trials."""

    counts: dict[int, float]
    discarded: int = 0

    @property
    def total(self) -> float:
        return sum(self.counts.values())

    @property
    def max_observed(self) -> int:
        return max(self.counts) if self.counts else 0

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Support 1..max_observed and the count of each value."""
        dmax = self.max_observed
        d = np.arange(1, dmax + 1)
        c = np.zeros(dmax)
        for val, cnt in self.counts.items():
            c[val - 1] = cnt
        return d, c


def _simulate_block(child: np.random.SeedSequence, n: int, p: float, i: int,
                    rows: int) -> tuple[np.ndarray, np.ndarray, int]:
    rng = np.random.default_rng(child)
    steps = rng.geometric(p, (rows, i + 1))  # survivor k sits at steps[:k+1].sum() - 1
    np.minimum(steps, n + 1, out=steps)
    # float64 sums are exact up to 2**53 > n + 1 and round monotonically, so
    # the test below is exact; an int64 sum could overflow for large i * n.
    kept = steps.sum(axis=1, dtype=np.float64) <= n + 1  # survivor i+1 on the grid
    # unique, not bincount: spacings can reach n, far beyond the row count
    values, counts = np.unique(steps[kept, i], return_counts=True)
    return values, counts, rows - int(np.count_nonzero(kept))


def collect_empirical(n, p, i, trials, seed, workers=None) -> EmpiricalDistribution:
    """Thin grid(n) repeatedly and histogram the i-th scaled spacing.

    A trial walks to the (i+1)-th survivor in i+1 geometric steps, O(i) for
    any n, and is discarded when that survivor lies beyond the grid.  Blocks
    hold a fixed number of draws, so the partitioning depends on (trials, i)
    alone and results never depend on the worker count.
    """
    trials = check_int(trials, "trials", 1)
    params = ModelParams(n, p, i)
    n, p, i = params.n, params.p, params.i
    if n > _GRID_N_MAX:
        raise DomainError(f"n={n} exceeds the sampler's limit 2**53 - 2")
    seed = check_int(seed, "seed", 0, _SEED_MAX)
    workers = _resolve_workers(workers)

    rows_per_block = max(1, _BLOCK_DRAWS // (i + 1))
    n_blocks = (trials + rows_per_block - 1) // rows_per_block
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    sizes = [min(rows_per_block, trials - b * rows_per_block) for b in range(n_blocks)]

    with ThreadPoolExecutor(max_workers=min(workers, n_blocks)) as pool:
        results = list(
            pool.map(lambda b: _simulate_block(children[b], n, p, i, sizes[b]),
                     range(n_blocks))
        )

    support, where = np.unique(np.concatenate([r[0] for r in results]), return_inverse=True)
    totals = np.bincount(where, weights=np.concatenate([r[1] for r in results]))
    counts = {int(d): int(c) for d, c in zip(support, totals)}
    return EmpiricalDistribution(counts, sum(r[2] for r in results))


def inter_arrival_stream(p, seed, count) -> np.ndarray:
    """First ``count`` gaps between successes of an endless Bernoulli(p) process.

    The gaps are i.i.d. Geometric(p) positive integers, drawn as the
    process's waiting times.  p below 2**-56 is rejected: its gaps would
    overflow int64.
    """
    p = check_p(p)
    if p < _STREAM_P_MIN:
        raise DomainError(f"p={p} below 2**-56: inter-arrival gaps would overflow int64")
    seed = check_int(seed, "seed", 0, _SEED_MAX)
    count = check_int(count, "count", 1)
    return np.random.default_rng(seed).geometric(p, count)
