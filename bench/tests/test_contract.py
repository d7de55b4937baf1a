"""BENCHMARK.json names exactly what run.py measures."""

import json
from pathlib import Path

import pytest

import run

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_workloads_match():
    # point-queries stays runnable by hand but is not gated (see bench/README.md)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.CLI_WORKLOADS)


def test_end_to_end_metrics_match():
    stats = {"wall_s": 2.0, "peak_rss_mb": 50.0, "rows_per_s": 10.0,
             "latencies": [0.5, 1.0, 0.5]}
    produced = run.end_to_end([(0.3, 0.28), (0.4, 0.3)], stats)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(produced)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_per_layer_metrics_match():
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in SPEC["per_layer"])


def test_timing_stats_takes_each_requests_fastest_time():
    # a slow spell during one pass moves no request's fastest time
    stats = run.timing_stats([[1.0, 2.0], [1.1, 9.0], [0.9, 2.2]], rows=6,
                             peak_rss_mb=1.0, trials=29)
    assert stats["latencies"] == [0.9, 2.0]
    assert stats["wall_s"] == 2.9
    assert stats["rows_per_s"] == 6 / 2.9 and stats["trials_per_s"] == 29 / 2.9


def test_setup_is_the_median_ratio_at_reference_speed():
    stats = {"wall_s": 1.0, "peak_rss_mb": 1.0, "rows_per_s": 1.0, "latencies": [1.0, 1.0]}
    pairs = [(0.3, run.CAL_REF_S), (0.6, 2 * run.CAL_REF_S), (0.9, run.CAL_REF_S)]
    assert run.end_to_end(pairs, stats)["setup_s"] == pytest.approx(0.3)
