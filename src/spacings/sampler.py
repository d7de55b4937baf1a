"""Seedable Monte Carlo engine for Bernoulli thinning.

Thinning is simulated by waiting times: the index steps to the first
survivor (from -1) and between survivors are i.i.d. Geometric(p), so
drawing them with ``Generator.geometric`` simulates the model itself at a
cost proportional to the survivors visited, not the points (Devroye,
*Non-Uniform Random Variate Generation*, 1986, ch. X).  A step past the
last point is clipped to end just beyond it, which changes no outcome.

A grid trial needs two waiting times: the i steps to survivor i, taken
together, and the next step, which is the spacing.  The i steps sum to
i + NegBin(i, p), the failures before the i-th success, and that count is
drawn whole as Poisson(Gamma(i, q/p)), the gamma mixture of Poissons
(Devroye, ch. X).  So a trial is three draws, gamma, Poisson and
geometric, and costs O(1) whatever n and i are.  It still simulates the
process, not the formula: the draws are the process's waiting times, made
by numpy's gamma, Poisson and geometric generators, and never touch the
exact law or its binomial-tail kernel.

numpy refuses Poisson means above about 9.2e18, so the mean is capped at
2**62.  A mean that large puts survivor i past every grid (its index + 1
must be at most n + 1 <= 2**53) except with probability below exp(-2**61),
capped or not, so the cap changes no outcome beyond that probability.

Reproducibility contract: a given (parameters, seed) pair produces
bit-identical results on every run of the same build.  Trials are
partitioned into blocks of a fixed size, so the block layout is a function
of trials alone.  Block b draws from
``numpy.random.SeedSequence(seed, spawn_key=(b,))``, the same stream as
child b of ``SeedSequence(seed).spawn(...)``, so any block can be
recomputed from its index alone.  Block counts merge by exact integer
addition, so the outcome depends on (trials, seed) and the model alone.
Blocks run in order in the calling thread, one core whatever the trials.

A histogram has one form, ``EmpiricalDistribution``'s sorted atoms and
their counts, so its size follows the distinct spacings seen, not the
largest one.  The dense rows d = 1..max that ``spacings sample`` prints
are built by the command line alone.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import sequences  # registered, not run: grid Monte Carlo reads none of its names
from .errors import (DomainError, EmptySampleError, check_instance, check_int, check_ints,
                     check_p, checked_allocation)

_BLOCK_TRIALS = 1 << 16  # grid trials drawn per block
_LAM_CAP = 2.0**62  # below numpy's largest Poisson mean; see the module docstring
_SUBSET_SIGMAS = 6.0  # sample_subset draws beyond the expected survivor count
# Generator.geometric saturates at 2**63 - 1 for waiting times >= 2**63,
# which below this p happen with probability above exp(-128) per draw.
_STREAM_P_MIN = 2.0**-56
_SEED_MAX = (1 << 64) - 1  # seeds span the unsigned 64-bit range
_INT64_MAX = (1 << 63) - 1  # histogram atoms and counts are int64


@dataclass(frozen=True)
class SampleRun:
    """One Bernoulli thinning of a point set.

    ``survivors`` holds the indices of the retained points; ``spacings``
    are the gaps between the values of consecutive survivors,
    ``np.diff(points.points[survivors])``, and sum to (last survivor) -
    (first survivor).  The record holds the thinned set and its survivors
    only: p and the seed stay with the caller.  Points that are not a
    ``PointSet`` raise DomainError, and so do survivors that are not a 1-D
    integer array (an empty one included) of strictly increasing indices
    into the points, in O(survivors).
    """

    points: sequences.PointSet
    survivors: np.ndarray

    def __post_init__(self) -> None:
        check_instance(self.points, sequences.PointSet, "points")
        s = self.survivors
        if not (isinstance(s, np.ndarray) and s.ndim == 1 and s.dtype.kind in "iu"):
            raise DomainError("survivors must be a 1-D integer array")
        if s.size and (s[0] < 0 or s[-1] >= len(self.points) or (s[1:] <= s[:-1]).any()):
            raise DomainError(f"survivors must be strictly increasing indices in "
                              f"0..{len(self.points) - 1}")

    @property
    def spacings(self) -> np.ndarray:
        return np.diff(self.points.points[self.survivors])


def sample_subset(points: sequences.PointSet, p, seed) -> SampleRun:
    """Retain each point independently with probability p, in O(survivors).

    Steps are drawn in chunks covering the expected survivors plus a margin;
    the chunking does not change the result, since draws are consumed in order.
    ``points`` must be a ``PointSet``; anything else raises DomainError.
    """
    size = len(check_instance(points, sequences.PointSet, "points"))
    p = check_p(p)
    seed = check_int(seed, "seed", 0, _SEED_MAX)
    rng = np.random.default_rng(seed)
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
    return SampleRun(points, survivors)


class EmpiricalDistribution:
    """Observed counts of integer scaled spacings from repeated trials.

    Built from a mapping {spacing d: count} and held as two read-only int64
    arrays: ``atoms``, the observed d in ascending order, and ``counts``,
    aligned with ``atoms``; zero counts are kept.  Atoms must be integers
    >= 1 and counts integers >= 0, each at most 2**63 - 1, with a total
    below 2**63; any other mapping, or a value that is no mapping, raises
    DomainError.  ``discarded`` counts the trials that produced no spacing.
    The two arrays are the histogram's only form: a d between atoms was not
    observed, and no dense table of d = 1..max is kept.
    """

    def __init__(self, counts: Mapping[int, int], discarded=0):
        if not isinstance(counts, Mapping):
            raise DomainError(f"counts must be a mapping of spacing to count, "
                              f"not {type(counts).__name__}")
        atoms = check_ints(list(counts), "atoms", 1, _INT64_MAX)
        if atoms.ndim != 1:
            raise DomainError("atoms must be integers, not sequences")
        tallies = check_ints(list(counts.values()), "counts", 0, _INT64_MAX)
        if tallies.sum(dtype=np.float64) >= 2.0**63:
            raise DomainError("counts must total below 2**63")
        order = np.argsort(atoms)
        self.atoms = atoms[order].astype(np.int64, copy=False)
        self.counts = tallies[order].astype(np.int64, copy=False)
        self.atoms.flags.writeable = self.counts.flags.writeable = False
        self.total = int(self.counts.sum())
        self.discarded = check_int(discarded, "discarded", 0)

    def __eq__(self, other):
        if not isinstance(other, EmpiricalDistribution):
            return NotImplemented
        return (np.array_equal(self.atoms, other.atoms)
                and np.array_equal(self.counts, other.counts)
                and self.discarded == other.discarded)

    def __repr__(self) -> str:
        counts = dict(zip(self.atoms.tolist(), self.counts.tolist()))
        return f"EmpiricalDistribution({counts}, discarded={self.discarded})"

    @property
    def masses(self) -> np.ndarray:
        """counts / total, aligned with atoms; EmptySampleError when the total is 0."""
        if not self.total:
            raise EmptySampleError("empirical distribution has no observations")
        return self.counts / self.total


def _simulate_block(seed: int, b: int, n: int, p: float, i: int,
                    trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Spacings retained by block b of ``trials`` grid trials, and their counts."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
    rows = min(_BLOCK_TRIALS, trials - b * _BLOCK_TRIALS)
    # (gamma q) / p, not gamma (q / p): a zero gamma draw gives 0, not 0 * inf = nan,
    # where q / p overflows; an overflow to inf is then capped
    with np.errstate(over="ignore"):
        lam = np.minimum(rng.standard_gamma(i, rows) * (1.0 - p) / p, _LAM_CAP)
    failures = np.minimum(rng.poisson(lam), n + 1)  # survivor i sits at i + failures - 1
    steps = np.minimum(rng.geometric(p, rows), n + 1)  # survivor i to i + 1: the spacing
    # survivor i+1 on the grid; the int64 sum is at most 2 (n + 1) <= 2**54
    kept = failures + steps <= n + 1 - i
    # unique, not bincount: spacings can reach n, far beyond the row count
    return np.unique(steps[kept], return_counts=True)


def collect_empirical(n, p, i, trials, seed) -> EmpiricalDistribution:
    """Thin grid(n) repeatedly and histogram the i-th scaled spacing.

    A trial draws the wait to the i-th survivor whole, as i plus a
    Poisson(Gamma(i, q/p)) failure count, then one geometric step to the
    (i+1)-th survivor, which is the spacing; the trial is discarded when that
    survivor lies beyond the grid.  Three draws per trial make the cost
    O(trials) whatever n and i are, with O(_BLOCK_TRIALS) memory for a block.
    Blocks hold a fixed number of trials, so the partitioning depends on
    trials alone and the seeds on seed alone.  They run one after another in
    the calling thread and no thread is started, so an exception or an
    interrupt raised in a block ends the run there: no later block runs.
    Block counts are added into the running histogram as they arrive
    (``_histogram``), so beyond the histogram itself memory does not grow
    with the trials.

    The histogram's ``atoms`` are the distinct spacings seen, ascending, and
    its ``counts`` their int64 tallies, which sum to the retained trials; so
    trials is refused above 2**63 - 1, before any block runs.
    """
    from .distribution import ModelParams  # here: stream and subset runs skip that layer

    trials = check_int(trials, "trials", 1, _INT64_MAX)
    params = ModelParams(n, p, i)
    seed = check_int(seed, "seed", 0, _SEED_MAX)
    n_blocks = (trials + _BLOCK_TRIALS - 1) // _BLOCK_TRIALS
    block = partial(_simulate_block, seed, n=params.n, p=params.p, i=params.i, trials=trials)
    support, totals = _histogram(map(block, range(n_blocks)))
    return EmpiricalDistribution(dict(zip(support.tolist(), totals.tolist())),
                                 trials - int(totals.sum()))


def _histogram(parts) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a stream of (values, counts) blocks and their summed counts.

    Blocks are merged into the running histogram as they arrive, once those
    waiting hold as many entries as it does: a merge then costs at most
    twice the entries waiting, so the total stays linear in the blocks'
    entries (up to the sort), and what waits is at most the histogram's size
    plus one block.
    """
    merged, waiting, size = (np.zeros(0, np.int64),) * 2, [], 0
    for values, counts in parts:
        waiting.append((values, counts))
        size += values.size
        if size >= merged[0].size:
            merged, waiting, size = _merge([merged, *waiting]), [], 0
    return _merge([merged, *waiting])


def _merge(parts: list) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of (values, counts) pairs, ascending, and their summed int64 counts.

    Each pair's values are sorted, and a stable sort merges such runs in
    near-linear time.  Spacings are at least 1, so the 0 put before the
    first value makes it start a run of equal values.
    """
    values, counts = map(np.concatenate, zip(*parts))
    order = np.argsort(values, kind="stable")
    values = values[order]
    starts = np.flatnonzero(np.diff(values, prepend=0))
    return values[starts], np.add.reduceat(counts[order], starts)


def inter_arrival_stream(p, seed, count) -> np.ndarray:
    """First ``count`` gaps between successes of an endless Bernoulli(p) process.

    The gaps are i.i.d. Geometric(p) positive integers, drawn as the
    process's waiting times.  p below 2**-56 is rejected: its gaps would
    overflow int64.  count is at most 2**53, the bound of ``rotation``.
    """
    p = check_p(p)
    if p < _STREAM_P_MIN:
        raise DomainError(f"p={p} below 2**-56: inter-arrival gaps would overflow int64")
    seed = check_int(seed, "seed", 0, _SEED_MAX)
    count = check_int(count, "count", 1, 2**53)
    with checked_allocation():
        return np.random.default_rng(seed).geometric(p, count)
