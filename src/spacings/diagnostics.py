"""Distances between exact, empirical, and limiting spacing distributions.

KS distance for discrete laws is taken as the supremum over support atoms
of the absolute CDF difference, with no continuity correction; the same
atom-wise convention is used against continuous references, so a point
mass at x compares its full CDF jump at x.  Total variation is half the
L1 distance between mass functions over the union of supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import ModelParams, limit_cdf, limit_pmf, spacing_distribution
from .errors import DomainError, EmptySampleError, check_int, check_p
from .sampler import EmpiricalDistribution


@dataclass(frozen=True)
class DistanceReport:
    """KS and (where defined) total-variation distance of a comparison.

    ``n_effective`` is the number of observations behind the empirical
    side, 0 for exact-vs-exact comparisons.  ``tv`` is None when one side
    is a continuous law, where mass-function distance has no meaning.
    """

    ks: float
    tv: float | None
    n_effective: int

    def __post_init__(self) -> None:
        if self.ks < 0.0:
            raise DomainError("KS distance must be >= 0")
        if self.tv is not None and not 0.0 <= self.tv <= 1.0:
            raise DomainError("TV distance must be in [0, 1]")


def _atom_masses(emp: EmpiricalDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Observed values in ascending order and their empirical masses."""
    atoms = np.array(sorted(emp.counts), dtype=np.int64)
    counts = np.array([emp.counts[a] for a in atoms.tolist()], dtype=np.float64)
    total = counts.sum()
    if not total > 0:
        raise EmptySampleError("empirical distribution has no observations")
    return atoms, counts / total


def ks_to_geometric(emp: EmpiricalDistribution, p) -> DistanceReport:
    """Compare an empirical spacing histogram with the geometric(p) limit.

    KS is the sup over d = 1..max observed of |empirical CDF - geometric
    CDF|; TV additionally charges the geometric mass beyond the observed
    range, where the empirical mass function is zero.

    Both are evaluated at the observed atoms only, so the cost grows with
    the number of distinct values, not with the largest one.  Between
    atoms the empirical CDF is flat and the geometric CDF increases, so the
    KS sup lies at an atom a or just below it, at a - 1.
    """
    p = check_p(p)
    atoms, emp_mass = _atom_masses(emp)
    emp_cdf = np.cumsum(emp_mass)
    below = atoms - 1
    inner = below >= 1
    before = np.concatenate(([0.0], emp_cdf[:-1]))[inner]
    ks = max(float(np.abs(emp_cdf - limit_cdf(p, atoms)).max()),
             float(np.abs(before - limit_cdf(p, below[inner])).max(initial=0.0)))
    geo_mass = limit_pmf(p, atoms)
    unobserved = max(1.0 - math.fsum(geo_mass), 0.0)
    tv = 0.5 * (float(np.abs(emp_mass - geo_mass).sum()) + unobserved)
    return DistanceReport(ks=ks, tv=min(tv, 1.0), n_effective=int(emp.total))


def _union_masses(a: EmpiricalDistribution, b: EmpiricalDistribution):
    """Masses of both histograms over the union of their observed atoms."""
    (xa, ma), (xb, mb) = _atom_masses(a), _atom_masses(b)
    support = np.union1d(xa, xb)
    out = []
    for x, m in ((xa, ma), (xb, mb)):
        full = np.zeros(support.size)
        full[np.searchsorted(support, x)] = m
        out.append(full)
    return out


def tv_between(a: EmpiricalDistribution, b: EmpiricalDistribution) -> float:
    """Total-variation distance between two empirical histograms."""
    ma, mb = _union_masses(a, b)
    return 0.5 * float(np.abs(ma - mb).sum())


def ks_between(a: EmpiricalDistribution, b: EmpiricalDistribution) -> float:
    """Atom-wise KS distance between two empirical histograms.

    Both CDFs are flat between the atoms of either, so the sup is taken
    over the union of observed atoms.
    """
    ma, mb = _union_masses(a, b)
    return float(np.abs(np.cumsum(ma) - np.cumsum(mb)).max())


def convergence_sweep(p, i, n_list, d_max) -> list[tuple[int, float]]:
    """Exact sup_{d <= d_max} |cdf - geometric limit| for each grid size.

    No sampling is involved: each distance is computed from the first d_max
    values of the exact conditional cdf, in O(d_max + min(i, sd)) per block
    of 4096 steps, whatever n is.  Output is ordered by n.
    """
    p = check_p(p)
    i = check_int(i, "i", 1)
    d_max = check_int(d_max, "d_max", 1)
    ns = [check_int(n, "n", i) for n in n_list]
    if not ns:
        raise DomainError("n_list must not be empty")
    if d_max > min(ns):
        raise DomainError(f"d_max={d_max} exceeds the smallest n={min(ns)}")
    limit = limit_cdf(p, np.arange(1, d_max + 1))
    out = []
    for n in sorted(ns):
        cdf = spacing_distribution(ModelParams(n, p, i)).head(d_max)[1]
        sup = float(np.abs(cdf - limit).max())
        out.append((n, sup))
    return out


def scaled_mean_exponential_check(spacings) -> DistanceReport:
    """KS distance of mean-scaled spacings from the unit exponential law.

    The spacings are divided by their sample mean and the empirical CDF is
    compared with 1 - exp(-x) at the observed atoms.  Needs at least 100
    spacings to say anything meaningful.
    """
    x = np.asarray(spacings, dtype=np.float64)
    if x.ndim != 1 or x.size < 100:
        raise EmptySampleError(
            f"need at least 100 spacings for the exponential check, got {x.size}"
        )
    if np.any(x <= 0.0):
        raise DomainError("spacings must be positive")
    scaled = np.sort(x) / x.mean()
    atoms, counts = np.unique(scaled, return_counts=True)
    emp_cdf = np.cumsum(counts) / x.size
    ks = float(np.abs(emp_cdf - (-np.expm1(-atoms))).max())
    return DistanceReport(ks=ks, tv=None, n_effective=int(x.size))
