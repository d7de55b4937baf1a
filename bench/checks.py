"""Output checks for the benchmark, against references computed here.

Nothing in this module imports ``spacings``.  The exact law is recomputed
from a different identity than the package uses: the i-th survivor sits at
j with weight C(j, i-1) p^i q^(j-i+1), and summing those weights up to m
gives P(Binomial(m+1, p) >= i).  So

    f(d) = p q^(d-1) P(Bin(n-d+1, p) >= i) / P(Bin(n+1, p) >= i+1),

which needs only short binomial tails, not the package's prefix sums of
survivor weights.  Each ``check_*`` function takes the bytes a command
wrote to stdout (and stderr where the command reports counts there) and
raises :class:`CheckFailed` on the first violation.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

RTOL = 1e-12           # deterministic tables, relative
NORM_TOL = 1e-10       # |sum of a full pmf column - 1|
CDF_FLOOR = 1e-12      # absolute resolution of a cdf value near 1
SIGMAS = 5.0           # Monte Carlo mean and retained-fraction checks
KS_ALPHA = 1e-6        # false-alarm rate of one KS check


class CheckFailed(AssertionError):
    pass


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# --- references --------------------------------------------------------------

def _log_comb_small(m: np.ndarray, k: int) -> np.ndarray:
    """log C(m, k) for an integer array m and a small k; -inf where m < k."""
    m = np.asarray(m, dtype=np.float64)
    out = np.zeros(m.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(1, k + 1):
            out += np.log((m - k + t) / t)
    return np.where(m >= k, out, -np.inf)


def binom_lower(m, p: float, r: int) -> np.ndarray:
    """P(Binomial(m, p) <= r) for an integer array m."""
    m = np.atleast_1d(np.asarray(m, dtype=np.int64))
    if r < 0:
        return np.zeros(m.shape)
    if p == 1.0:
        return (m <= r).astype(np.float64)
    lp, lq = math.log(p), math.log1p(-p)
    terms = np.stack([_log_comb_small(m, k) + k * lp + (m - k) * lq
                      for k in range(r + 1)])
    top = terms.max(axis=0)
    with np.errstate(invalid="ignore"):
        out = np.exp(top) * np.exp(terms - top).sum(axis=0)
    return np.where(np.isfinite(top), out, 0.0)


def _log_binom_upper_direct(m: int, p: float, r: int) -> float:
    """log P(Binomial(m, p) >= r) summed term by term; for small m only."""
    if r > m:
        return -math.inf
    if p == 1.0:
        return 0.0
    lp, lq = math.log(p), math.log1p(-p)
    terms = [math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)
             + k * lp + (m - k) * lq for k in range(r, m + 1)]
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def log_binom_upper(m, p: float, r: int) -> np.ndarray:
    """log P(Binomial(m, p) >= r), accurate in both tails."""
    m = np.atleast_1d(np.asarray(m, dtype=np.int64))
    low = binom_lower(m, p, r - 1)
    out = np.empty(m.shape)
    easy = low <= 0.5
    out[easy] = np.log1p(-low[easy])
    for idx in np.flatnonzero(~easy):
        out[idx] = _log_binom_upper_direct(int(m[idx]), p, r)
    return out


def exact_pmf(n: int, p: float, i: int, d_max: int | None = None) -> np.ndarray:
    """Conditional spacing masses f(1..d_max) through the binomial-tail identity."""
    d_max = n if d_max is None else d_max
    d = np.arange(1, d_max + 1)
    if p == 1.0:
        return (d == 1).astype(np.float64)
    log_t = float(log_binom_upper(n + 1, p, i + 1)[0])
    with np.errstate(divide="ignore"):
        log_f = (math.log(p) + (d - 1) * math.log1p(-p)
                 + log_binom_upper(n - d + 1, p, i) - log_t)
    return np.exp(log_f)


def retained_probability(n: int, p: float, i: int) -> float:
    """P(more than i of the n+1 grid points survive)."""
    return float(np.exp(log_binom_upper(n + 1, p, i + 1)[0]))


def limit_pmf(p: float, d: np.ndarray) -> np.ndarray:
    return p * np.exp((d - 1) * math.log1p(-p))


def limit_cdf(p: float, d: np.ndarray) -> np.ndarray:
    return -np.expm1(d * math.log1p(-p))


def closed_form_cdf_i1(n: int, p: float, d: np.ndarray) -> np.ndarray:
    """i = 1 cdf as a geometric series: [1 - q^d - d p q^n] / [1 - q^(n+1) - (n+1) p q^n]."""
    lq = math.log1p(-p)
    qn = math.exp(n * lq)
    num = -np.expm1(d * lq) - d * p * qn
    den = -math.expm1((n + 1) * lq) - (n + 1) * p * qn
    return num / den


def sup_distance(n: int, p: float, i: int, d_max: int) -> float:
    """sup_{d <= d_max} |F_n(d) - (1 - q^d)|, summed without cancellation.

    F_n(d) - G(d) = sum_{k<=d} p q^(k-1) (L' - L_k) / (1 - L') with the
    small lower tails L' = P(Bin(n+1) <= i) and L_k = P(Bin(n-k+1) <= i-1).
    """
    k = np.arange(1, d_max + 1)
    l_all = float(binom_lower(n + 1, p, i)[0])
    l_k = binom_lower(n - k + 1, p, i - 1)
    diff = np.cumsum(limit_pmf(p, k) * (l_all - l_k)) / (1.0 - l_all)
    return float(np.abs(diff).max())


def exact_pmf_rational(n: int, p: Fraction, i: int) -> list[Fraction]:
    """The same identity in exact rationals, for the oracle's n <= 16."""
    q = 1 - p

    def upper(m: int, r: int) -> Fraction:
        return sum((Fraction(math.comb(m, k)) * p**k * q ** (m - k)
                    for k in range(r, m + 1)), Fraction(0))

    total = upper(n + 1, i + 1)
    return [p * q ** (d - 1) * upper(n - d + 1, i) / total for d in range(1, n + 1)]


def farey_count(order: int) -> int:
    """|F_Q| = 1 + sum_{q<=Q} phi(q), by a totient sieve."""
    phi = np.arange(order + 1)
    for k in range(2, order + 1):
        if phi[k] == k:  # prime
            phi[k::k] -= phi[k::k] // k
    return 1 + int(phi[1:].sum())


# --- parsing -----------------------------------------------------------------

def _text(out: bytes) -> str:
    try:
        return out.decode("ascii")
    except UnicodeDecodeError as exc:
        raise CheckFailed(f"stdout is not ASCII: {exc}") from None


def parse_table(out: bytes, fmt: str) -> dict[str, list[str]]:
    """Columns of a CSV or JSON table, as the text of each cell."""
    text = _text(out)
    if fmt == "json":
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"stdout is not JSON: {exc}") from None
        _require(isinstance(rows, list) and rows, "JSON table is empty")
        keys = list(rows[0])
        _require(all(isinstance(r, dict) and list(r) == keys for r in rows),
                 "JSON rows do not share one key list")
        return {k: [json.dumps(r[k]) for r in rows] for k in keys}
    _require(text.endswith("\n"), "CSV does not end with a newline")
    lines = text[:-1].split("\n")
    header = lines[0].split(",")
    cells = [line.split(",") for line in lines[1:]]
    _require(cells, "CSV table has no rows")
    _require(all(len(c) == len(header) for c in cells), "ragged CSV rows")
    return {h: [c[j] for c in cells] for j, h in enumerate(header)}


def count_rows(out: bytes, fmt: str, trailer_lines: int = 0) -> int:
    if fmt == "json":
        return len(json.loads(out))
    return max(out.count(b"\n") - 1 - trailer_lines, 0)


def _floats(col: list[str], name: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in col])
    except ValueError:
        raise CheckFailed(f"column {name} holds a non-number") from None


def _ints(col: list[str], name: str) -> np.ndarray:
    try:
        return np.array([int(v) for v in col], dtype=np.int64)
    except ValueError:
        raise CheckFailed(f"column {name} holds a non-integer") from None


def _columns(out: bytes, fmt: str, expected: list[str]) -> dict[str, list[str]]:
    cols = parse_table(out, fmt)
    _require(list(cols) == expected, f"columns {list(cols)} != {expected}")
    return cols


def _close(actual: np.ndarray, ref: np.ndarray, what: str, atol: float = 0.0) -> None:
    _require(actual.shape == ref.shape, f"{what}: {actual.size} rows, expected {ref.size}")
    err = np.abs(actual - ref)
    bad = err > RTOL * np.abs(ref) + atol
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise CheckFailed(f"{what}[{k}] = {actual[k]!r}, reference {ref[k]!r}")


def _stderr_counts(err: bytes) -> dict[str, float]:
    out = {}
    for token in _text(err).split():
        key, sep, value = token.partition("=")
        if sep:
            try:
                out[key] = float(value)
            except ValueError:
                pass
    return out


def _ks_limit(samples: float) -> float:
    """KS distance exceeded with probability KS_ALPHA under the null."""
    return math.sqrt(-math.log(KS_ALPHA / 2) / 2) / math.sqrt(samples)


# --- deterministic tables ----------------------------------------------------

def _check_d(cols, d_max: int) -> None:
    d = _ints(cols["d"], "d")
    _require(np.array_equal(d, np.arange(1, d_max + 1)), "d is not 1..d_max")


def _check_cdf(cdf: np.ndarray, ref: np.ndarray, full: bool) -> None:
    _require(np.all(np.diff(cdf) >= 0.0), "cdf decreases")
    _close(cdf, ref, "cdf", atol=0.0)
    if full:
        _require(abs(cdf[-1] - 1.0) <= NORM_TOL, f"cdf ends at {cdf[-1]!r}, not 1")


def check_pmf(out: bytes, n: int, p: float, i: int, d_max: int | None, fmt: str) -> None:
    d_max = n if d_max is None else min(d_max, n)
    cols = _columns(out, fmt, ["d", "pmf", "cdf", "limit_cdf"])
    _check_d(cols, d_max)
    ref = exact_pmf(n, p, i, d_max)
    mass = _floats(cols["pmf"], "pmf")
    # masses below the smallest normal double have no relative precision
    _close(mass, ref, "pmf", atol=1e-300)
    if d_max == n:
        _require(abs(math.fsum(mass) - 1.0) <= NORM_TOL, f"pmf sums to {math.fsum(mass)!r}")
    _check_cdf(_floats(cols["cdf"], "cdf"), np.cumsum(ref), d_max == n)
    d = np.arange(1, d_max + 1)
    _close(_floats(cols["limit_cdf"], "limit_cdf"), limit_cdf(p, d), "limit_cdf")


def check_cdf(out: bytes, n: int, p: float, i: int, d_max: int | None,
              closed_form: bool, fmt: str = "csv") -> None:
    d_max = n if d_max is None else min(d_max, n)
    cols = _columns(out, fmt, ["d", "cdf", "limit_cdf"])
    _check_d(cols, d_max)
    d = np.arange(1, d_max + 1)
    cdf = _floats(cols["cdf"], "cdf")
    _check_cdf(cdf, np.cumsum(exact_pmf(n, p, i, d_max)), d_max == n)
    if closed_form:
        _close(cdf, closed_form_cdf_i1(n, p, d), "closed-form cdf")
    _close(_floats(cols["limit_cdf"], "limit_cdf"), limit_cdf(p, d), "limit_cdf")


def check_limit(out: bytes, p: float, d_max: int, fmt: str = "csv") -> None:
    cols = _columns(out, fmt, ["d", "limit_pmf", "limit_cdf"])
    _check_d(cols, d_max)
    d = np.arange(1, d_max + 1)
    _close(_floats(cols["limit_pmf"], "limit_pmf"), limit_pmf(p, d), "limit_pmf")
    _close(_floats(cols["limit_cdf"], "limit_cdf"), limit_cdf(p, d), "limit_cdf")


def check_sweep(out: bytes, p: float, i: int, n_list: list[int], d_max: int,
                fmt: str = "csv") -> None:
    """Distances match the reference on the cdf scale and fall strictly with n.

    A distance is a difference of two cdf values near 1, so it is resolved
    only to CDF_FLOOR; strict decrease is required while the reference
    stays above that floor, and below it the output must stay within it.
    """
    cols = _columns(out, fmt, ["n", "sup_distance"])
    ns = sorted(n_list)
    _require(list(_ints(cols["n"], "n")) == ns, "n column is not the sorted n list")
    got = _floats(cols["sup_distance"], "sup_distance")
    ref = np.array([sup_distance(n, p, i, d_max) for n in ns])
    _close(got, ref, "sup_distance", atol=CDF_FLOOR)
    resolved = got[ref > CDF_FLOOR]
    _require(np.all(np.diff(resolved) < 0.0), f"sup_distance not strictly decreasing: {got}")


def check_oracle(out: bytes, n: int, p: Fraction, i: int) -> None:
    text = _text(out)
    lines = text.rstrip("\n").split("\n")
    _require(lines[-1] == "MATCH", f"oracle verdict {lines[-1]!r}")
    cols = _columns("\n".join(lines[:-1]).encode() + b"\n", "csv",
                    ["d", "enumerated", "closed_form"])
    _check_d(cols, n)
    ref = [str(m) for m in exact_pmf_rational(n, p, i)]
    _require(cols["enumerated"] == ref, "enumerated masses differ from the exact reference")
    _require(cols["closed_form"] == ref, "closed-form masses differ from the exact reference")


# --- Monte Carlo -------------------------------------------------------------

def _ks_discrete(values: np.ndarray, counts: np.ndarray, cdf_at) -> float:
    """sup over observed atoms of |empirical cdf - reference cdf|."""
    emp = np.cumsum(counts) / counts.sum()
    return float(np.abs(emp - cdf_at(values)).max())


def check_stream(out: bytes, p: float, count: int, fmt: str = "csv") -> None:
    cols = _columns(out, fmt, ["k", "inter_arrival"])
    _require(np.array_equal(_ints(cols["k"], "k"), np.arange(1, count + 1)),
             "k is not 1..count")
    gaps = _ints(cols["inter_arrival"], "inter_arrival")
    _require(gaps.min() >= 1, "non-positive gap")
    values, counts = np.unique(gaps, return_counts=True)
    ks = _ks_discrete(values, counts, lambda x: limit_cdf(p, x))
    _require(ks <= _ks_limit(count), f"gap KS {ks:.4g} to Geometric({p}) > {_ks_limit(count):.4g}")
    sigma = math.sqrt(1.0 - p) / p / math.sqrt(count)
    mean = gaps.mean()
    _require(abs(mean - 1.0 / p) <= SIGMAS * sigma,
             f"mean gap {mean:.6g} vs {1 / p:.6g} is beyond {SIGMAS} sigma")


def check_sample(out: bytes, err: bytes, n: int, p: float, i: int, trials: int,
                 fmt: str = "csv") -> None:
    cols = _columns(out, fmt, ["d", "count", "empirical_mass", "limit_pmf"])
    d = _ints(cols["d"], "d")
    _require(np.array_equal(d, np.arange(1, d.size + 1)), "d is not 1..max")
    _require(d.size <= n, "spacing beyond the grid")
    counts = _ints(cols["count"], "count")
    _require(counts.min() >= 0 and counts[-1] > 0, "bad histogram counts")
    reported = _stderr_counts(err)
    _require("retained" in reported and "discarded" in reported,
             "stderr lacks retained=/discarded=")
    retained = int(counts.sum())
    _require(retained == reported["retained"], "histogram total != retained")
    _require(retained + reported["discarded"] == trials, "retained + discarded != trials")
    _close(_floats(cols["empirical_mass"], "empirical_mass"), counts / retained,
           "empirical_mass")
    _close(_floats(cols["limit_pmf"], "limit_pmf"), limit_pmf(p, d), "limit_pmf")

    keep = retained_probability(n, p, i)
    sigma = math.sqrt(trials * keep * (1.0 - keep))
    _require(abs(retained - trials * keep) <= SIGMAS * sigma + 1e-9,
             f"retained {retained} of {trials}, expected {trials * keep:.1f}")
    ref = exact_pmf(n, p, i)
    ref_cdf = np.cumsum(ref)
    ks = _ks_discrete(d, counts, lambda x: ref_cdf[x - 1])
    _require(ks <= _ks_limit(retained), f"spacing KS {ks:.4g} > {_ks_limit(retained):.4g}")
    support = np.arange(1, n + 1)
    mu = float((support * ref).sum())
    sd = math.sqrt(max(float((support**2 * ref).sum()) - mu * mu, 0.0))
    mean = float((d * counts).sum()) / retained
    _require(abs(mean - mu) <= SIGMAS * sd / math.sqrt(retained),
             f"mean spacing {mean:.6g} vs exact {mu:.6g} is beyond {SIGMAS} sigma")


def _exponential_ks(spacings: np.ndarray) -> float:
    scaled = np.sort(spacings) / spacings.mean()
    atoms, counts = np.unique(scaled, return_counts=True)
    return float(np.abs(np.cumsum(counts) / spacings.size + np.expm1(-atoms)).max())


def check_seq_sample(out: bytes, err: bytes, p: float, *, order: int | None = None,
                     alpha: float | None = None, count: int | None = None,
                     fmt: str = "csv") -> None:
    """Thinned Farey or rotation spacings: sizes, retained fraction, consistency.

    No exact law exists for these spacings, so the statistical gate is the
    retained fraction; the printed KS to the exponential is recomputed,
    not bounded.
    """
    cols = _columns(out, fmt, ["index", "spacing", "scaled_spacing"])
    reported = _stderr_counts(err)
    _require("points" in reported and "survivors" in reported,
             "stderr lacks points=/survivors=")
    if order is not None:
        points = farey_count(order)
        min_gap = 1.0 / (order * (order - 1)) if order > 1 else 1.0
    else:
        orbit = np.unique(np.mod(np.arange(1, count + 1) * alpha, 1.0))
        points = orbit.size
        min_gap = float(np.diff(orbit).min())
    _require(reported["points"] == points, f"points={reported['points']:.0f}, expected {points}")
    survivors = int(reported["survivors"])
    sigma = math.sqrt(points * p * (1.0 - p))
    _require(abs(survivors - points * p) <= SIGMAS * sigma,
             f"{survivors} survivors of {points} points at p={p}")
    index = _ints(cols["index"], "index")
    _require(np.array_equal(index, np.arange(1, survivors)), "index is not 1..survivors-1")
    spacing = _floats(cols["spacing"], "spacing")
    _require(spacing.min() >= min_gap * (1 - 1e-9), "spacing below the point set's min gap")
    _require(spacing.sum() <= 1.0 + 1e-12, "spacings sum above 1")
    _close(_floats(cols["scaled_spacing"], "scaled_spacing"), spacing / spacing.mean(),
           "scaled_spacing")
    if "ks_exponential" in reported:
        ks = _exponential_ks(spacing)
        _require(abs(reported["ks_exponential"] - ks) <= 1e-9 * ks,
                 f"ks_exponential {reported['ks_exponential']} != recomputed {ks}")
    else:
        _require(spacing.size < 100, "stderr lacks ks_exponential")
