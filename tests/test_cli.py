import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spacings as sp
from spacings.cli import run


def _lines(capsys):
    out, err = capsys.readouterr()
    return out.splitlines(), err


class TestPmf:
    def test_reference_table(self, capsys):
        assert run(["pmf", "--n", "2", "--p", "0.5", "--i", "1", "--format", "csv"]) == 0
        lines, _ = _lines(capsys)
        assert lines[0] == "d,pmf,cdf,limit_cdf"
        row1 = lines[1].split(",")
        row2 = lines[2].split(",")
        assert row1[0] == "1" and row2[0] == "2"
        assert float(row1[1]) == pytest.approx(0.75, abs=1e-12)
        assert float(row1[2]) == pytest.approx(0.75, abs=1e-12)
        assert float(row1[3]) == pytest.approx(0.5, abs=1e-12)
        assert float(row2[1]) == pytest.approx(0.25, abs=1e-12)
        assert float(row2[2]) == pytest.approx(1.0, abs=1e-12)
        assert float(row2[3]) == pytest.approx(0.75, abs=1e-12)

    def test_fraction_p_accepted(self, capsys):
        assert run(["pmf", "--n", "2", "--p", "1/2", "--i", "1"]) == 0
        lines, _ = _lines(capsys)
        assert float(lines[1].split(",")[1]) == pytest.approx(0.75, abs=1e-12)

    def test_json_matches_csv_columns(self, capsys):
        run(["pmf", "--n", "3", "--p", "0.5", "--i", "1", "--format", "json"])
        lines, _ = _lines(capsys)
        rows = json.loads(lines[0])
        assert list(rows[0].keys()) == ["d", "pmf", "cdf", "limit_cdf"]
        assert len(rows) == 3

    def test_seventeen_digit_floats(self, capsys):
        run(["limit", "--p", "0.1", "--d-max", "1"])
        lines, _ = _lines(capsys)
        # 0.1 is not dyadic; 17 significant digits spell it out round-trip
        assert lines[1].split(",")[1] == "0.10000000000000001"

    def test_d_max_truncates(self, capsys):
        run(["pmf", "--n", "50", "--p", "0.3", "--i", "1", "--d-max", "5"])
        lines, _ = _lines(capsys)
        assert len(lines) == 6


class TestCdf:
    def test_closed_form_matches_summed(self, capsys):
        assert run(["cdf", "--n", "100", "--p", "0.25", "--i", "1"]) == 0
        summed, _ = _lines(capsys)
        assert run(["cdf", "--n", "100", "--p", "0.25", "--i", "1", "--closed-form"]) == 0
        closed, _ = _lines(capsys)
        assert summed[0] == closed[0] == "d,cdf,limit_cdf"
        for a, b in zip(summed[1:], closed[1:]):
            assert abs(float(a.split(",")[1]) - float(b.split(",")[1])) < 1e-12

    def test_closed_form_needs_i_one(self, capsys):
        assert run(["cdf", "--n", "10", "--p", "0.5", "--i", "2", "--closed-form"]) == 2
        _, err = _lines(capsys)
        assert "--closed-form" in err


class TestOracle:
    def test_reference_output(self, capsys):
        assert run(["oracle", "--n", "2", "--p", "1/2", "--i", "1"]) == 0
        lines, _ = _lines(capsys)
        assert lines[0] == "d,enumerated,closed_form"
        assert lines[1] == "1,3/4,3/4"
        assert lines[2] == "2,1/4,1/4"
        assert lines[3] == "MATCH"

    def test_decimal_p_rejected(self, capsys):
        assert run(["oracle", "--n", "2", "--p", "0.5", "--i", "1"]) == 2
        _, err = _lines(capsys)
        assert "--p" in err

    def test_json_has_match_flags(self, capsys):
        assert run(["oracle", "--n", "3", "--p", "1/3", "--i", "2", "--format", "json"]) == 0
        out, err = capsys.readouterr()
        rows = json.loads(out)
        assert all(row["match"] for row in rows)
        assert "MATCH" in err


class TestSample:
    ARGS = ["sample", "--n", "60", "--p", "0.2", "--i", "1",
            "--trials", "4000", "--seed", "42"]

    def test_histogram_columns_and_determinism(self, capsys):
        assert run(self.ARGS) == 0
        first_out, first_err = capsys.readouterr()
        assert run(self.ARGS) == 0
        second_out, _ = capsys.readouterr()
        assert first_out == second_out  # byte-identical reruns
        lines = first_out.splitlines()
        assert lines[0] == "d,count,empirical_mass,limit_pmf"
        assert "retained=" in first_err and "discarded=" in first_err
        total = sum(int(line.split(",")[1]) for line in lines[1:])
        retained = int(first_err.split("retained=")[1].split()[0])
        assert total == retained

    def test_limit_pmf_column(self, capsys):
        run(self.ARGS)
        out, _ = capsys.readouterr()
        for line in out.splitlines()[1:3]:
            d, _, _, lim = line.split(",")
            assert float(lim) == pytest.approx(sp.limit_pmf(0.2, int(d)), rel=1e-15)


class TestStream:
    def test_rows_and_determinism(self, capsys):
        assert run(["stream", "--p", "0.5", "--count", "20", "--seed", "9"]) == 0
        first, _ = capsys.readouterr()
        run(["stream", "--p", "0.5", "--count", "20", "--seed", "9"])
        second, _ = capsys.readouterr()
        assert first == second
        lines = first.splitlines()
        assert lines[0] == "k,inter_arrival"
        assert len(lines) == 21
        assert all(int(line.split(",")[1]) >= 1 for line in lines[1:])


class TestSweep:
    def test_decreasing_distances(self, capsys):
        assert run(["sweep", "--p", "0.1", "--i", "1",
                    "--n-list", "50,100,200", "--d-max", "50"]) == 0
        lines, _ = _lines(capsys)
        assert lines[0] == "n,sup_distance"
        sups = [float(line.split(",")[1]) for line in lines[1:]]
        assert sups[0] > sups[1] > sups[2]

    def test_bad_n_list(self, capsys):
        assert run(["sweep", "--p", "0.1", "--i", "1",
                    "--n-list", "50,abc", "--d-max", "10"]) == 2


class TestSeqSample:
    def test_farey_reports_exponential_check(self, capsys):
        assert run(["seq-sample", "--Q", "120", "--p", "0.2", "--seed", "3"]) == 0
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert lines[0] == "index,spacing,scaled_spacing"
        assert "ks_exponential=" in err

    def test_small_rotation_skips_check(self, capsys):
        assert run(["seq-sample", "--alpha", "0.61803398875", "--count", "30",
                    "--p", "0.9", "--seed", "1"]) == 0
        _, err = capsys.readouterr()
        assert "exponential check skipped" in err

    def test_requires_exactly_one_kind(self, capsys):
        assert run(["seq-sample", "--Q", "10", "--alpha", "0.3", "--count", "5",
                    "--p", "0.5"]) == 1
        assert run(["seq-sample", "--p", "0.5"]) == 1
        capsys.readouterr()


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert run(["no-such-command"]) == 1
        assert run(["pmf", "--n", "2"]) == 1  # missing required flags
        assert run([]) == 1
        capsys.readouterr()

    def test_domain_errors(self, capsys):
        assert run(["pmf", "--n", "2", "--p", "0", "--i", "1"]) == 2
        assert run(["pmf", "--n", "2", "--p", "0.5", "--i", "5"]) == 2
        assert run(["limit", "--p", "abc", "--d-max", "3"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("d_max", ["0", "-3"])
    @pytest.mark.parametrize("argv", [
        ["pmf", "--n", "10", "--p", "0.5", "--i", "1"],
        ["cdf", "--n", "10", "--p", "0.5", "--i", "1"],
        ["cdf", "--n", "10", "--p", "0.5", "--i", "1", "--closed-form"],
        ["limit", "--p", "0.5"],
        ["sweep", "--p", "0.5", "--i", "1", "--n-list", "10,20"],
    ])
    def test_d_max_below_one(self, capsys, argv, d_max):
        assert run([*argv, "--d-max", d_max]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "d-max" in err.replace("_", "-")


@pytest.mark.parametrize("p", ["0.1", "1e-4", "0.9", "1"])
def test_limit_columns_equal_array_calls(capsys, p):
    d_max = 3000
    assert run(["limit", "--p", p, "--d-max", str(d_max)]) == 0
    rows = list(csv.DictReader(capsys.readouterr()[0].splitlines()))
    d = np.arange(1, d_max + 1)
    assert [int(r["d"]) for r in rows] == d.tolist()
    # 17 significant digits round-trip, so the comparison is exact
    assert [float(r["limit_pmf"]) for r in rows] == sp.limit_pmf(float(p), d).tolist()
    assert [float(r["limit_cdf"]) for r in rows] == sp.limit_cdf(float(p), d).tolist()


@pytest.mark.parametrize("argv", [
    ["pmf", "--n", "40", "--p", "0.3", "--i", "2"],
    ["cdf", "--n", "40", "--p", "0.3", "--i", "3", "--d-max", "25"],
    ["cdf", "--n", "40", "--p", "0.3", "--i", "1", "--closed-form"],
    ["limit", "--p", "1/7", "--d-max", "30"],
    ["sample", "--n", "60", "--p", "0.2", "--i", "2", "--trials", "500", "--seed", "4"],
    ["sample", "--n", "1", "--p", "0.01", "--i", "1", "--trials", "5"],
    ["stream", "--p", "0.3", "--count", "25", "--seed", "2"],
    ["sweep", "--p", "0.2", "--i", "1", "--n-list", "30,60", "--d-max", "20"],
    ["oracle", "--n", "5", "--p", "2/7", "--i", "2"],
    ["seq-sample", "--Q", "30", "--p", "0.5", "--seed", "1"],
    ["seq-sample", "--alpha", "0.3", "--count", "1", "--p", "1"],
], ids=lambda argv: "-".join(argv[:2]))
def test_csv_and_json_hold_the_same_table(capsys, argv):
    assert run([*argv, "--format", "csv"]) == 0
    csv_out = capsys.readouterr()[0]
    assert run([*argv, "--format", "json"]) == 0
    json_out = capsys.readouterr()[0]
    rows = json.loads(json_out)
    assert json_out == json.dumps(rows) + "\n"  # the text json.dump writes
    lines = csv_out.splitlines()
    if argv[0] == "oracle":
        assert lines.pop() == "MATCH"  # the verdict trails the CSV table
        assert all(row.pop("match") for row in rows)
    if not rows:
        assert csv_out == ""  # an empty table prints nothing, not even a header
        return
    table = list(csv.reader(lines))
    assert table[0] == list(rows[0])
    assert len(table) == len(rows) + 1
    for cells, row in zip(table[1:], rows):
        for cell, value in zip(cells, row.values()):
            if isinstance(value, str):
                assert cell == value
            else:
                assert type(value)(cell) == value


def test_module_entry_point_runs_the_cli(capsys):
    argv = ["pmf", "--n", "12", "--p", "1/3", "--i", "2"]
    assert run(argv) == 0
    expected, _ = capsys.readouterr()
    src = str(Path(sp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "spacings", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == expected
