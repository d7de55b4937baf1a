"""The tracer wraps every layer, restores it, and accounts self time."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spacings
import spacings.cli
import spacings.distribution
from tracer import LAYERS, Tracer

BENCH = Path(__file__).resolve().parents[1]


@pytest.fixture
def tracer():
    t = Tracer().install()
    try:
        yield t
    finally:
        t.uninstall()


def test_install_wraps_every_binding_and_uninstall_restores():
    original = spacings.distribution.spacing_distribution
    t = Tracer().install()
    try:
        assert spacings.distribution.spacing_distribution is not original
        assert spacings.cli.spacing_distribution is spacings.distribution.spacing_distribution
        assert spacings.spacing_distribution is spacings.distribution.spacing_distribution
    finally:
        t.uninstall()
    assert spacings.distribution.spacing_distribution is original
    assert spacings.cli.spacing_distribution is original


def test_self_time_excludes_children():
    spacings.distribution._table_masses.cache_clear()
    tracer = Tracer().install()
    try:
        spacings.cdf_scaled(spacings.ModelParams(20000, 0.1, 3), 7)
    finally:
        tracer.uninstall()
    spans = {s[0]: s for s in tracer.spans}
    for sid, parent, layer, name, start, end, self_s in tracer.spans:
        assert 0.0 <= self_s <= end - start + 1e-9
        if parent is not None:
            p = spans[parent]
            assert p[4] <= start and end <= p[5]
    names = {s[3] for s in tracer.spans}
    assert {"cdf_scaled", "spacing_distribution", "DistributionTable.cdf",
            "log_binomial_fixed_k"} <= names
    summary = tracer.summary()
    assert summary["distribution.table_builds"] == 1
    assert summary["logprob.elements"] >= 20000
    total = sum(s[5] - s[4] for s in tracer.spans if s[1] is None)
    assert sum(summary[f"{layer}.self_s"] for layer in LAYERS) == pytest.approx(total)


def test_per_row_calls_are_counted_not_spanned(tracer):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert spacings.cli.run(["limit", "--p", "0.2", "--d-max", "500"]) == 0
    summary = tracer.summary()
    assert summary["distribution.scalar_calls"] == 1000
    assert all(s[3] not in ("limit_pmf", "limit_cdf") for s in tracer.spans)
    assert summary["cli.self_s"] > 0.0


def test_sampler_and_oracle_counts(tracer):
    spacings.collect_empirical(30, 0.2, 2, 500, seed=1)
    spacings.enumerate_conditional_pmf(6, spacings.Rational(1, 3), 2)
    spacings.sample_subset(spacings.farey(20), 0.5, 3)
    summary = tracer.summary()
    assert summary["sampler.trials"] == 500
    assert summary["oracle.patterns"] == 2**7
    assert summary["sequences.points"] == len(spacings.farey(20))
    (n, p, i, trials, retained), = summary["trials"]
    assert (n, p, i, trials) == (30, 0.2, 2, 500) and 0 < retained <= 500


def test_traced_cli_keeps_stdout_identical(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    args = ["pmf", "--n", "300", "--p", "0.1", "--i", "2", "--format", "json"]
    plain = subprocess.run([sys.executable, "-c", "from spacings.cli import main; main()",
                            *args], capture_output=True, env=env, check=True)
    trace_file = tmp_path / "trace.json"
    traced = subprocess.run([sys.executable, str(BENCH / "tracer.py"), str(trace_file), *args],
                            capture_output=True, env=env, check=True)
    assert traced.stdout == plain.stdout
    summary = json.loads(trace_file.read_text())
    assert summary["cli.self_s"] > 0.0 and summary["distribution.table_builds"] == 1
