"""Each output check passes on real CLI output and fails once it is corrupted."""

import contextlib
import io
import json
from fractions import Fraction

import numpy as np
import pytest

import checks
from spacings.cli import run


def cli(*args) -> tuple[bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert run([str(a) for a in args]) == 0
    return out.getvalue().encode(), err.getvalue().encode()


def set_cell(out: bytes, row: int, col: int, value: str) -> bytes:
    """Replace one CSV cell; row 0 is the first data row."""
    lines = out.decode().split("\n")
    cells = lines[row + 1].split(",")
    cells[col] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines).encode()


def nudge(text: str, rel: float) -> str:
    return repr(float(text) * (1 + rel))


def cell(out: bytes, row: int, col: int) -> str:
    return out.decode().split("\n")[row + 1].split(",")[col]


def fails(check, *args, **kwargs):
    with pytest.raises(checks.CheckFailed):
        check(*args, **kwargs)


# --- references ----------------------------------------------------------------

@pytest.mark.parametrize("n,p,i", [(12, Fraction(1, 3), 2), (16, Fraction(9, 10), 8),
                                   (10, Fraction(1, 20), 4), (9, Fraction(1, 2), 9)])
def test_float_reference_matches_exact_rationals(n, p, i):
    exact = np.array([float(m) for m in checks.exact_pmf_rational(n, p, i)])
    approx = checks.exact_pmf(n, float(p), i)
    assert np.allclose(approx, exact, rtol=1e-13, atol=0)
    assert sum(checks.exact_pmf_rational(n, p, i)) == 1


def test_sup_distance_reference_matches_rationals():
    n, p, i, d_max = 30, Fraction(1, 5), 3, 10
    masses = checks.exact_pmf_rational(n, p, i)
    cdf = np.cumsum(masses[:d_max])
    limit = [1 - (1 - p) ** d for d in range(1, d_max + 1)]
    exact = max(abs(c - g) for c, g in zip(cdf, limit))
    assert checks.sup_distance(n, float(p), i, d_max) == pytest.approx(float(exact), rel=1e-12)


def test_farey_count():
    assert [checks.farey_count(q) for q in (1, 2, 3, 4, 5)] == [2, 3, 5, 7, 11]


# --- deterministic tables ----------------------------------------------------

def test_pmf_check():
    out, _ = cli("pmf", "--n", 300, "--p", 0.1, "--i", 3)
    checks.check_pmf(out, 300, 0.1, 3, None, "csv")
    fails(checks.check_pmf, set_cell(out, 4, 1, nudge(cell(out, 4, 1), 1e-11)),
          300, 0.1, 3, None, "csv")
    fails(checks.check_pmf, set_cell(out, 9, 2, "0.5"), 300, 0.1, 3, None, "csv")
    fails(checks.check_pmf, out.rsplit(b"\n", 2)[0] + b"\n", 300, 0.1, 3, None, "csv")
    fails(checks.check_pmf, out, 300, 0.1, 4, None, "csv")


def test_pmf_check_normalization():
    out, _ = cli("pmf", "--n", 40, "--p", 0.3, "--i", 2)
    checks.check_pmf(out, 40, 0.3, 2, None, "csv")
    last = cell(out, 39, 1)
    fails(checks.check_pmf, set_cell(out, 39, 1, nudge(last, 1e-3) if float(last) else "1e-9"),
          40, 0.3, 2, None, "csv")


def test_pmf_json_check():
    out, _ = cli("pmf", "--n", 200, "--p", 0.2, "--i", 2, "--d-max", 50, "--format", "json")
    checks.check_pmf(out, 200, 0.2, 2, 50, "json")
    rows = json.loads(out)
    rows[7]["cdf"] *= 1 + 1e-10
    fails(checks.check_pmf, json.dumps(rows).encode(), 200, 0.2, 2, 50, "json")
    fails(checks.check_pmf, b"[]", 200, 0.2, 2, 50, "json")


def test_cdf_closed_form_check():
    out, _ = cli("cdf", "--n", 500, "--p", 0.05, "--i", 1, "--closed-form")
    checks.check_cdf(out, 500, 0.05, 1, None, True)
    fails(checks.check_cdf, set_cell(out, 20, 1, nudge(cell(out, 20, 1), 1e-11)),
          500, 0.05, 1, None, True)


def test_cdf_nondecreasing_check():
    out, _ = cli("cdf", "--n", 100, "--p", 0.1, "--i", 2, "--d-max", 30)
    checks.check_cdf(out, 100, 0.1, 2, 30, False)
    swapped = set_cell(set_cell(out, 5, 1, cell(out, 6, 1)), 6, 1, cell(out, 5, 1))
    with pytest.raises(checks.CheckFailed, match="decreases"):
        checks.check_cdf(swapped, 100, 0.1, 2, 30, False)


def test_limit_check():
    out, _ = cli("limit", "--p", 0.25, "--d-max", 60)
    checks.check_limit(out, 0.25, 60)
    fails(checks.check_limit, set_cell(out, 3, 2, nudge(cell(out, 3, 2), 1e-11)), 0.25, 60)
    fails(checks.check_limit, out, 0.25, 61)


def test_sweep_check():
    ns = [50, 100, 200, 100000]
    out, _ = cli("sweep", "--p", 0.1, "--i", 5, "--n-list", "50,100,200,100000", "--d-max", 50)
    checks.check_sweep(out, 0.1, 5, ns, 50)
    fails(checks.check_sweep, set_cell(out, 1, 1, nudge(cell(out, 1, 1), 1e-9)),
          0.1, 5, ns, 50)
    fails(checks.check_sweep, set_cell(out, 3, 1, "1e-6"), 0.1, 5, ns, 50)


def test_sweep_check_requires_strict_decrease():
    # two sizes whose distances are both above the floor, reported as equal
    ns = [50, 100]
    out, _ = cli("sweep", "--p", 0.1, "--i", 5, "--n-list", "50,100", "--d-max", 50)
    flat = set_cell(out, 1, 1, cell(out, 0, 1))
    with pytest.raises(checks.CheckFailed):
        checks.check_sweep(flat, 0.1, 5, ns, 50)


def test_oracle_check():
    out, _ = cli("oracle", "--n", 8, "--p", "1/3", "--i", 2)
    checks.check_oracle(out, 8, Fraction(1, 3), 2)
    fails(checks.check_oracle, out.replace(b"MATCH", b"MISMATCH"), 8, Fraction(1, 3), 2)
    fails(checks.check_oracle, set_cell(out, 2, 1, "1/7"), 8, Fraction(1, 3), 2)
    fails(checks.check_oracle, set_cell(out, 2, 2, "1/7"), 8, Fraction(1, 3), 2)


# --- Monte Carlo -------------------------------------------------------------

def test_stream_check():
    out, _ = cli("stream", "--p", 0.1, "--count", 20000, "--seed", 3)
    checks.check_stream(out, 0.1, 20000)
    # a stream drawn at the wrong p fails both the KS and the mean test
    other, _ = cli("stream", "--p", 0.09, "--count", 20000, "--seed", 3)
    fails(checks.check_stream, other, 0.1, 20000)
    fails(checks.check_stream, set_cell(out, 0, 1, "0"), 0.1, 20000)


def test_stream_check_mean():
    out, _ = cli("stream", "--p", 0.1, "--count", 20000, "--seed", 4)
    lines = out.decode().split("\n")
    # lengthen five gaps by 2000: the mean moves 0.5 (>5 sigma), the cdf by 2.5e-4
    for k in range(1, 20001, 4000):
        kk, gap = lines[k].split(",")
        lines[k] = f"{kk},{int(gap) + 2000}"
    with pytest.raises(checks.CheckFailed, match="mean gap"):
        checks.check_stream("\n".join(lines).encode(), 0.1, 20000)


def test_sample_check():
    out, err = cli("sample", "--n", 300, "--p", 0.05, "--i", 8, "--trials", 6000, "--seed", 1)
    checks.check_sample(out, err, 300, 0.05, 8, 6000)
    # the same run judged as if it came from another law
    fails(checks.check_sample, out, err, 300, 0.06, 8, 6000)
    fails(checks.check_sample, out, err, 300, 0.05, 8, 6001)
    fails(checks.check_sample, out, err.replace(b"retained=", b"kept="), 300, 0.05, 8, 6000)


def test_sample_check_retained_fraction():
    out, err = cli("sample", "--n", 300, "--p", 0.05, "--i", 8, "--trials", 6000, "--seed", 2)
    checks.check_sample(out, err, 300, 0.05, 8, 6000)
    counts = checks._stderr_counts(err)
    kept, dropped = int(counts["retained"]), int(counts["discarded"])
    # same histogram, but claimed to come from twice as many trials
    fake = f"retained={kept} discarded={dropped + 6000}\n".encode()
    with pytest.raises(checks.CheckFailed, match="retained"):
        checks.check_sample(out, fake, 300, 0.05, 8, 12000)


def test_sample_check_histogram_shape():
    out, err = cli("sample", "--n", 2000, "--p", 0.1, "--i", 1, "--trials", 4000, "--seed", 5)
    checks.check_sample(out, err, 2000, 0.1, 1, 4000)
    lines = out.decode().split("\n")
    # move 200 observations from d=1 to d=30: KS and mean both notice
    d1 = lines[1].split(",")
    d30 = lines[30].split(",")
    c1, c30 = int(d1[1]) - 200, int(d30[1]) + 200
    lines[1] = ",".join([d1[0], str(c1), repr(c1 / 4000), d1[3]])
    lines[30] = ",".join([d30[0], str(c30), repr(c30 / 4000), d30[3]])
    fails(checks.check_sample, "\n".join(lines).encode(), err, 2000, 0.1, 1, 4000)


def test_seq_sample_check_farey():
    out, err = cli("seq-sample", "--Q", 60, "--p", 0.2, "--seed", 7)
    checks.check_seq_sample(out, err, 0.2, order=60)
    fails(checks.check_seq_sample, out, err, 0.3, order=60)
    fails(checks.check_seq_sample, out, err, 0.2, order=61)
    fails(checks.check_seq_sample, set_cell(out, 3, 2, nudge(cell(out, 3, 2), 1e-9)),
          err, 0.2, order=60)
    fails(checks.check_seq_sample, out, err.replace(b"ks_exponential=0", b"ks_exponential=1"),
          0.2, order=60)


def test_seq_sample_check_rotation():
    alpha = 0.6180339887498949
    out, err = cli("seq-sample", "--alpha", alpha, "--count", 5000, "--p", 0.1, "--seed", 8)
    checks.check_seq_sample(out, err, 0.1, alpha=alpha, count=5000)
    # a spacing shorter than any gap of the orbit cannot come from it
    fails(checks.check_seq_sample, set_cell(out, 0, 1, "1e-12"), err, 0.1,
          alpha=alpha, count=5000)
    short = out.decode().rsplit("\n", 2)[0] + "\n"
    fails(checks.check_seq_sample, short.encode(), err, 0.1, alpha=alpha, count=5000)
