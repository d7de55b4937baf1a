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

# registered, not run: their names are read when a function runs
from . import distribution, sampler
from .errors import (DomainError, EmptySampleError, check_float, check_floats, check_instance,
                     check_int, check_p, checked_allocation)


@dataclass(frozen=True)
class DistanceReport:
    """KS and (where defined) total-variation distance of a comparison.

    ``n_effective`` is the number of observations behind the empirical
    side, 0 for exact-vs-exact comparisons, stored as an int >= 0.  ``ks``
    is stored as a finite float >= 0 and ``tv`` as a float in [0, 1], or
    None when one side is a continuous law, where mass-function distance
    has no meaning.
    """

    ks: float
    tv: float | None
    n_effective: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_effective", check_int(self.n_effective, "n_effective", 0))
        object.__setattr__(self, "ks", check_float(self.ks, "KS distance"))
        if not 0.0 <= self.ks < math.inf:
            raise DomainError("KS distance must be finite and >= 0")
        if self.tv is not None:
            object.__setattr__(self, "tv", check_float(self.tv, "TV distance"))
            if not 0.0 <= self.tv <= 1.0:
                raise DomainError("TV distance must be in [0, 1]")


def ks_to_geometric(emp: sampler.EmpiricalDistribution, p) -> DistanceReport:
    """Compare an empirical spacing histogram with the geometric(p) limit.

    KS is the sup over d = 1..max observed of |empirical CDF - geometric
    CDF|; TV additionally charges the geometric mass beyond the observed
    range, where the empirical mass function is zero.  ``emp`` must be an
    ``EmpiricalDistribution``; anything else raises DomainError.

    Both are evaluated at the observed atoms only, so the cost grows with
    the number of distinct values, not with the largest one.  Between
    atoms the empirical CDF is flat and the geometric CDF increases, so the
    KS sup lies at an atom a or just below it, at a - 1.
    """
    check_instance(emp, sampler.EmpiricalDistribution, "emp")
    p = check_p(p)
    atoms, emp_mass = emp.atoms, emp.masses
    emp_cdf = np.cumsum(emp_mass)
    below = atoms - 1
    inner = below >= 1
    before = np.concatenate(([0.0], emp_cdf[:-1]))[inner]
    ks = max(float(np.abs(emp_cdf - distribution.limit_cdf(p, atoms)).max()),
             float(np.abs(before - distribution.limit_cdf(p, below[inner])).max(initial=0.0)))
    geo_mass = distribution.limit_pmf(p, atoms)
    unobserved = max(1.0 - math.fsum(geo_mass), 0.0)
    tv = 0.5 * (float(np.abs(emp_mass - geo_mass).sum()) + unobserved)
    return DistanceReport(ks=ks, tv=min(tv, 1.0), n_effective=emp.total)


def convergence_sweep(p, i, n_list, d_max) -> list[tuple[int, float]]:
    """Exact sup_{d <= d_max} |cdf - geometric limit| for each grid size.

    No sampling is involved: each distance is computed from the first d_max
    values of the exact conditional cdf, in O(d_max + min(i, sd)) per block
    of 4096 steps, whatever n is.  Output is ordered by n.
    """
    p = check_p(p)
    i = check_int(i, "i", 1)
    d_max = check_int(d_max, "d_max", 1)
    try:
        ns = [check_int(n, "n", i) for n in n_list]
    except TypeError as exc:  # check_int raises none: n_list is no collection
        raise DomainError(f"n_list must be a list of grid sizes, not {type(n_list).__name__}"
                          ) from exc
    if not ns:
        raise DomainError("n_list must not be empty")
    if d_max > min(ns):
        raise DomainError(f"d_max={d_max} exceeds the smallest n={min(ns)}")
    with checked_allocation():
        limit = distribution.limit_cdf(p, np.arange(1, d_max + 1))
    out = []
    for n in sorted(ns):
        params = distribution.ModelParams(n, p, i)
        cdf = distribution.spacing_distribution(params).head(d_max)[1]
        sup = float(np.abs(cdf - limit).max())
        out.append((n, sup))
    return out


def scaled_mean_exponential_check(spacings) -> DistanceReport:
    """KS distance of mean-scaled spacings from the unit exponential law.

    The spacings are divided by their sample mean and the empirical CDF is
    compared with 1 - exp(-x) at the observed atoms.  Needs a
    one-dimensional array of at least 100 spacings to say anything
    meaningful.
    """
    x = check_floats(spacings, "spacings")
    if x.ndim != 1:
        raise DomainError(f"spacings must be one-dimensional, got shape {x.shape}")
    if x.size < 100:
        raise EmptySampleError(
            f"need at least 100 spacings for the exponential check, got {x.size}"
        )
    if np.any(x <= 0.0):
        raise DomainError("spacings must be positive")
    with np.errstate(over="ignore"):  # a sum past float range is redone below
        mean = x.mean()
    if not np.isfinite(mean):  # finite spacings: their mean is finite at scale 1/max
        x = x / x.max()
        mean = x.mean()
    scaled = np.sort(x) / mean
    atoms, counts = np.unique(scaled, return_counts=True)
    emp_cdf = np.cumsum(counts) / x.size
    ks = float(np.abs(emp_cdf - (-np.expm1(-atoms))).max())
    return DistanceReport(ks=ks, tv=None, n_effective=int(x.size))
