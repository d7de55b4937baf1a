import argparse
import csv
import gc
import importlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spacings as sp
from spacings import cli
from spacings.cli import run
from spacings.distribution import GRID_N_MAX
from spacings.sequences import FAREY_ORDER_MAX


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


# times one CLI run in a child that exits with its code; the seconds are printed last
_TIMED_RUN = """
import sys, time
from spacings.cli import run
start = time.perf_counter()
code = run(sys.argv[1:])
print(time.perf_counter() - start)
sys.exit(code)
"""


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

    def test_rows_are_every_step_up_to_the_largest_seen(self, capsys):
        assert run(self.ARGS) == 0
        out, err = capsys.readouterr()
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [int(row[0]) for row in rows] == list(range(1, len(rows) + 1))
        assert all(row[1].isdigit() for row in rows)  # counts print as ints
        counts = [int(row[1]) for row in rows]
        assert 0 in counts and counts[-1] > 0  # unseen steps are rows of count 0
        assert sum(counts) == int(err.split("retained=")[1].split()[0])

    @pytest.mark.parametrize("fmt, table", [("csv", ""), ("json", "[]\n")])
    def test_an_empty_histogram_prints_no_rows(self, capsys, fmt, table):
        argv = ["sample", "--n", "2", "--p", "1e-9", "--i", "1", "--trials", "5", "--seed", "1"]
        assert run([*argv, "--format", fmt]) == 0
        assert capsys.readouterr() == (table, "retained=0 discarded=5\n")

    def test_a_table_the_host_cannot_hold_exits_2_with_numpy_s_message(self, bounded_python):
        # a spacing near 4.3e14 asks for a 3.04 PiB column of d
        argv = ["sample", "--n", "9000000000000000", "--p", "1e-14", "--i", "1",
                "--trials", "100", "--seed", "1"]
        proc = bounded_python(["-c", _TIMED_RUN, *argv])
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: Unable to allocate 3.04 PiB"), proc.stderr
        assert float(proc.stdout) < 1.0  # the seconds alone: no table was written


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


# every subcommand's options in declaration order: (flags, type, required, default)
_N, _P, _I = (["--n"], int, True, None), (["--p"], None, True, None), (["--i"], int, True, None)
_SEED, _FORMAT = (["--seed"], int, False, 0), (["--format"], None, False, "csv")
_OPTIONS = {
    "pmf": [_N, _P, _I, (["--d-max"], int, False, None), _FORMAT],
    "cdf": [_N, _P, _I, (["--d-max"], int, False, None),
            (["--closed-form"], None, False, False), _FORMAT],
    "limit": [_P, (["--d-max"], int, True, None), _FORMAT],
    "sample": [_N, _P, _I, (["--trials"], int, True, None), _SEED, _FORMAT],
    "stream": [_P, (["--count"], int, True, None), _SEED, _FORMAT],
    "sweep": [_P, _I, (["--n-list"], None, True, None), (["--d-max"], int, True, None),
              _FORMAT],
    "oracle": [_N, _P, _I, _FORMAT],
    "seq-sample": [(["--Q"], int, False, None), (["--alpha"], float, False, None),
                   (["--count"], int, False, None), _P, _SEED, _FORMAT],
}


def test_parser_declares_every_option():
    parser = cli._build_parser(list(_OPTIONS))
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(_OPTIONS)
    for name, expected in _OPTIONS.items():
        command = sub.choices[name]
        options = [(a.option_strings, a.type, a.required, a.default)
                   for a in command._actions if not isinstance(a, argparse._HelpAction)]
        assert options == expected, name
        assert command.get_default("func") is getattr(cli, "_cmd_" + name.replace("-", "_"))
        format_option = next(a for a in command._actions if a.dest == "format")
        assert format_option.choices == ("csv", "json")


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["no-such-command"],
        ["pmf", "--n", "2"],  # missing required flags
        [],
        ["--bogus"],
        ["limit", "--p", "0.5", "--d-max", "3", "--bogus"],
        ["limit", "--p", "0.5", "--d-max", "3", "--format", "xml"],
        ["pmf", "--n", "x", "--p", "0.5", "--i", "1"],
        ["seq-sample", "--Q", "10", "--alpha", "0.3", "--count", "5", "--p", "0.5"],
        ["seq-sample", "--alpha", "0.3", "--p", "0.5"],  # --alpha without --count
    ], ids=" ".join)
    def test_usage_errors(self, capsys, argv):
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage error: ") and err.count("\n") == 1

    def test_domain_errors(self, capsys):
        assert run(["pmf", "--n", "2", "--p", "0", "--i", "1"]) == 2
        assert run(["pmf", "--n", "2", "--p", "0.5", "--i", "5"]) == 2
        assert run(["limit", "--p", "abc", "--d-max", "3"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", [[], *([name] for name in _OPTIONS)], ids=str)
    def test_help_exits_zero(self, capsys, command):
        assert run([*command, "--help"]) == 0
        out, err = capsys.readouterr()
        assert out and err == ""
        if command:
            assert "--format" in out  # the subcommand's own options were built
        else:
            assert all(name in out for name in _OPTIONS)

    @pytest.mark.parametrize("argv", [
        ["cdf", "--n", "1", "--p", "1e-300", "--i", "1", "--closed-form"],
        ["cdf", "--n", "5", "--p", "1e-17", "--i", "1", "--closed-form"],
        ["cdf", "--n", "10", "--p", "1e-15", "--i", "1", "--closed-form"],
        ["pmf", "--n", str(10**30), "--p", "1e-25", "--i", "3"],
        ["pmf", "--n", str(GRID_N_MAX + 1), "--p", "0.5", "--i", "1"],
        ["limit", "--p", "0.5", "--d-max", str(2**63 - 1)],
        ["limit", "--p", "0.5", "--d-max", str(2**60)],
        ["stream", "--p", "0.5", "--count", str(2**60)],
        ["stream", "--p", "0.5", "--count", str(2**70)],
        ["oracle", "--n", "6", "--p", "1/0", "--i", "2"],
        ["oracle", "--n", "6", "--p", "a/b", "--i", "2"],
        ["limit", "--p", "1e400", "--d-max", "3"],
    ])
    def test_out_of_range_exits_two_with_one_line(self, capsys, argv):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

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


def test_module_entry_point_runs_the_cli(capsys, fresh_python):
    argv = ["pmf", "--n", "12", "--p", "1/3", "--i", "2"]
    assert run(argv) == 0
    expected, _ = capsys.readouterr()
    proc = fresh_python(["-m", "spacings", *argv], timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == expected


_IMPORT_GUARD = """
import runpy, sys
import spacings.cli
for argv in ARGVS:
    sys.argv = ["spacings", *argv]
    try:
        runpy.run_module("spacings", run_name="__main__")
    except SystemExit as exc:
        assert not exc.code, (argv, exc.code)
print(",".join(sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))))
"""


def test_no_subcommand_imports_scipy(fresh_python):
    argvs = [["pmf", "--n", "100", "--p", "0.3", "--i", "2"],
             ["cdf", "--n", "100", "--p", "0.3", "--i", "2", "--d-max", "5"],
             ["cdf", "--n", "100", "--p", "0.3", "--i", "1", "--closed-form"],
             ["limit", "--p", "0.3", "--d-max", "5"],
             ["sample", "--n", "50", "--p", "0.3", "--i", "1", "--trials", "20"],
             ["stream", "--p", "0.3", "--count", "5"],
             ["sweep", "--p", "0.3", "--i", "1", "--n-list", "10,100", "--d-max", "5"],
             ["oracle", "--n", "6", "--p", "1/3", "--i", "2"],
             ["seq-sample", "--Q", "8", "--p", "0.5"]]
    proc = fresh_python(["-c", f"ARGVS = {argvs!r}\n{_IMPORT_GUARD}"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == ""


# the modules a request should import only when its subcommand uses them
_WATCHED = ("concurrent.futures", "csv", "dataclasses", "decimal", "fractions", "json",
            "logging", "numpy")

# Runs one argv in a fresh process and prints its exit code, the layers that
# ran (a registered layer that has not run is not a plain module) and the
# watched modules the package loaded.
_LAYER_PROBE = f"""
import contextlib, io, sys, types
WATCHED = {_WATCHED!r}
before = set(sys.modules)
from spacings.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    code = run(sys.argv[1:])
ran = sorted(k.partition(".")[2] for k, m in sys.modules.items()
             if k.startswith("spacings.") and k != "spacings.cli" and type(m) is types.ModuleType)
loaded = sorted(m for m in WATCHED if m in set(sys.modules) - before)
print(code, ",".join(ran), ",".join(loaded))
"""

_EXACT = "distribution,errors,logprob"
_DIAGNOSED = "diagnostics,errors,sampler,sequences"


def _probe(fresh_python, argv) -> str:
    """'<exit code> <layers run> <watched modules loaded>' of ``argv`` in a fresh process."""
    proc = fresh_python(["-c", _LAYER_PROBE, *argv])
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split("\n")[-2]


@pytest.mark.parametrize("argv, layers, stdlib", [
    (["pmf", "--n", "100", "--p", "0.3", "--i", "2"], _EXACT, "dataclasses,numpy"),
    (["pmf", "--n", "100", "--p", "0.3", "--i", "2", "--format", "json"], _EXACT,
     "dataclasses,json,numpy"),
    (["cdf", "--n", "100", "--p", "0.3", "--i", "1", "--closed-form"], _EXACT,
     "dataclasses,numpy"),
    (["limit", "--p", "0.3", "--d-max", "5"], _EXACT, "dataclasses,numpy"),
    (["limit", "--p", "1/3", "--d-max", "5"], _EXACT, "dataclasses,decimal,fractions,numpy"),
    (["stream", "--p", "0.3", "--count", "5"], "errors,sampler", "dataclasses,numpy"),
    # one block of trials, then three: every block runs in the calling thread,
    # so no concurrent.futures (and its logging)
    (["sample", "--n", "50", "--p", "0.3", "--i", "1", "--trials", "20"],
     "distribution,errors,logprob,sampler", "dataclasses,numpy"),
    (["sample", "--n", "50", "--p", "0.3", "--i", "1", "--trials", "131073"],
     "distribution,errors,logprob,sampler", "dataclasses,numpy"),
    (["sweep", "--p", "0.3", "--i", "1", "--n-list", "10,100", "--d-max", "5"],
     "diagnostics,distribution,errors,logprob", "dataclasses,numpy"),
    (["seq-sample", "--Q", "8", "--p", "0.5"], _DIAGNOSED, "dataclasses,numpy"),
    (["seq-sample", "--alpha", "0.3", "--count", "50", "--p", "0.5", "--format", "json"],
     _DIAGNOSED, "dataclasses,json,numpy"),
    (["oracle", "--n", "6", "--p", "1/3", "--i", "2"], "errors,oracle", "decimal,fractions"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_each_subcommand_runs_only_its_layers(fresh_python, argv, layers, stdlib):
    assert _probe(fresh_python, argv) == f"0 {layers} {stdlib}"


@pytest.mark.parametrize("argv, probed", [
    (["oracle", "--n", "16", "--p", "1/3", "--i", "2"], "0 errors,oracle decimal,fractions"),
    (["oracle", "--n", "16", "--p", "1/3", "--i", "2", "--format", "json"],
     "0 errors,oracle decimal,fractions,json"),
    (["--help"], "0 errors "),
    (["pmf", "--n", "5"], "1 errors "),  # usage error: --p and --i missing
    (["oracle", "--n", "6", "--p", "0.5", "--i", "2"], "2 errors "),  # --p must be a/b
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_requests_that_build_no_array_leave_numpy_unloaded(fresh_python, argv, probed):
    assert _probe(fresh_python, argv) == probed


def test_importing_the_cli_loads_no_watched_module(fresh_python):
    code = (f"import sys; before = set(sys.modules); import spacings.cli; "
            f"print(sorted(m for m in {_WATCHED!r} if m in set(sys.modules) - before))")
    proc = fresh_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def _reference_emit(columns: dict, fmt: str, out) -> None:
    """Reference emitter: the same table through csv.writer and json.dumps, row by row."""
    keys = list(columns)
    cols = [np.asarray(c) for c in columns.values()]
    size = len(cols[0])
    if fmt == "json":
        out.write("[")
        for start in range(0, size, 4096):
            rows = zip(*(c[start : start + 4096].tolist() for c in cols))
            text = json.dumps([dict(zip(keys, row)) for row in rows])
            out.write((", " if start else "") + text[1:-1])
        out.write("]\n")
        return
    if not size:
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(keys)
    for start in range(0, size, 4096):
        cells = [c[start : start + 4096].tolist() for c in cols]
        cells = [[format(v, ".17g") for v in cell] if c.dtype.kind == "f" else cell
                 for c, cell in zip(cols, cells)]
        writer.writerows(zip(*cells))


_EMIT = cli._emit


def _assert_same_text(new: str, ref: str) -> None:
    """new == ref; on failure, the first differing line, not pytest's diff of whole tables.

    A rewritten ``assert new == ref`` diffs the two strings, which takes
    minutes on tables of megabytes.  A JSON table is one line, so each line
    shown is cut to 80 characters either side of the first difference.
    """
    if new == ref:
        return
    new_lines, ref_lines = new.split("\n"), ref.split("\n")
    row = next((k for k, (a, b) in enumerate(zip(new_lines, ref_lines)) if a != b),
               min(len(new_lines), len(ref_lines)))
    a, b = (lines[row] if row < len(lines) else "" for lines in (new_lines, ref_lines))
    col = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    cut = slice(max(col - 80, 0), col + 80)
    pytest.fail(f"tables of {len(new)} and {len(ref)} characters differ first at line {row + 1}, "
                f"column {col + 1}, in lines of {len(a)} and {len(b)} characters:\n"
                f"  new: {a[cut]!r}\n  ref: {b[cut]!r}", pytrace=False)


def _emitted(columns: dict, fmt: str, monkeypatch) -> tuple[str, str]:
    """(what cli._emit writes, what the reference emitter writes)."""
    new, ref = io.StringIO(), io.StringIO()
    with monkeypatch.context() as m:
        m.setattr(sys, "stdout", new)
        _EMIT(columns, fmt)
    _reference_emit(columns, fmt, ref)
    return new.getvalue(), ref.getvalue()


_EVERY_SUBCOMMAND = [
    ["pmf", "--n", "5000", "--p", "0.02", "--i", "3"],
    ["pmf", "--n", "1", "--p", "1", "--i", "1"],
    ["cdf", "--n", "300", "--p", "0.3", "--i", "300"],
    ["cdf", "--n", "9000", "--p", "1e-4", "--i", "1", "--closed-form"],
    ["cdf", "--n", "20", "--p", "1", "--i", "1", "--closed-form"],
    ["limit", "--p", "1e-300", "--d-max", "4097"],
    ["sample", "--n", "60", "--p", "0.2", "--i", "2", "--trials", "500", "--seed", "4"],
    ["stream", "--p", "0.3", "--count", "8192", "--seed", "2"],
    ["sample", "--n", "1", "--p", "0.01", "--i", "1", "--trials", "5"],
    ["sweep", "--p", "0.2", "--i", "1", "--n-list", "30,60", "--d-max", "20"],
    ["oracle", "--n", "7", "--p", "2/7", "--i", "2"],
    ["seq-sample", "--Q", "30", "--p", "0.5", "--seed", "1"],
    ["seq-sample", "--alpha", "0.3", "--count", "2", "--p", "1"],
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND, ids=lambda argv: "-".join(argv[:2]))
def test_every_subcommand_emits_the_reference_bytes(monkeypatch, capsys, argv, fmt):
    tables = []

    def spy(columns, fmt_):
        tables.append(_emitted(columns, fmt_, monkeypatch))
        _EMIT(columns, fmt_)

    monkeypatch.setattr(cli, "_emit", spy)
    assert run([*argv, "--format", fmt]) == 0
    out = capsys.readouterr()[0]
    assert len(tables) == 1
    new, ref = tables[0]
    _assert_same_text(new, ref)
    assert out.startswith(new)


# a negative NaN, and a NaN whose payload is 0x123
_NANS = [-float("nan"), np.array([0x7FF8000000000123], np.uint64).view(np.float64).item()]
_EXTREMES = [float("nan"), *_NANS, float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1.7e308,
             -1.7e308, 2.2250738585072014e-308, 0.1, 1 / 3]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_synthetic_extremes_emit_the_reference_bytes(monkeypatch, fmt):
    info = np.iinfo(np.int64)
    rows = len(_EXTREMES)
    with np.errstate(over="ignore"):  # 1.7e308 is inf in float32
        x32 = np.array(_EXTREMES, dtype=np.float32)
    numeric = {"k": np.array([info.min, info.max, 0, -1, 1] + [7] * (rows - 5)),
               "x": np.array(_EXTREMES), "x32": x32,
               "zeros": np.where(np.arange(rows) % 2, 0.0, -0.0),
               "u": np.arange(rows, dtype=np.uint64) + np.uint64(2**63)}
    mixed = {**numeric, "flag": np.arange(rows) % 2 == 0,
             "label": [f"r{k}, \"q\"" if k % 3 else f"line\nbreak {k}" for k in range(rows)]}
    for columns in (numeric, mixed, {"x": np.array(_EXTREMES[5:])}):
        new, ref = _emitted(columns, fmt, monkeypatch)
        _assert_same_text(new, ref)
    # quoted, so a reader that ends rows at a bare \r reads the cell whole;
    # Python 3.11's csv.writer leaves it unquoted
    assert cli._texts(["a\rb", "c"], "csv") == ['"a\rb"', "c"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_large_tables_of_repeated_and_distinct_floats_emit_the_reference_bytes(monkeypatch, fmt):
    rows = 10**5
    distinct = np.random.default_rng(7).standard_normal(rows) / 3
    assert np.unique(distinct).size == rows
    columns = {"d": np.arange(1, rows + 1), "same": np.full(rows, 0.1), "distinct": distinct}
    new, ref = _emitted(columns, fmt, monkeypatch)
    _assert_same_text(new, ref)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097, 3 * 4096 + 5])
def test_chunk_seams_emit_the_reference_bytes(monkeypatch, fmt, rows):
    rng = np.random.default_rng(rows)
    x = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    with np.errstate(over="ignore"):
        columns = {"d": np.arange(1, rows + 1), "x": x, "y": x.astype(np.float32)}
    new, ref = _emitted(columns, fmt, monkeypatch)
    _assert_same_text(new, ref)
    if rows > 4096:  # a NaN in one chunk of otherwise finite floats
        x[4096] = float("nan")
        new, ref = _emitted(columns, fmt, monkeypatch)
        _assert_same_text(new, ref)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rows=st.integers(0, 9000),
       floats=st.lists(st.one_of(st.sampled_from(_EXTREMES), st.floats()), min_size=1, max_size=50),
       ints=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=50),
       seed=st.integers(0, 2**32 - 1), fmt=st.sampled_from(["csv", "json"]))
def test_random_numeric_tables_emit_the_reference_bytes(rows, floats, ints, seed, fmt):
    # cells drawn from Hypothesis' pools, so any row count costs the same to generate
    rng = np.random.default_rng(seed)
    columns = {"i": rng.choice(np.array(ints, dtype=np.int64), rows),
               "f": rng.choice(np.array(floats, dtype=np.float64), rows)}
    new, ref = io.StringIO(), io.StringIO()
    saved, sys.stdout = sys.stdout, new
    try:
        _EMIT(columns, fmt)
    finally:
        sys.stdout = saved
    _reference_emit(columns, fmt, ref)
    _assert_same_text(new.getvalue(), ref.getvalue())


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stdout_does_not_depend_on_buffering(capsys, fresh_python, fmt):
    argv = ["pmf", "--n", "5000", "--p", "0.01", "--i", "2", "--format", fmt]
    assert run(argv) == 0
    expected = capsys.readouterr()[0].encode()
    base = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for env in (base, {**base, "PYTHONUNBUFFERED": "1"}):
        proc = fresh_python(["-m", "spacings", *argv], env=env, text=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected


def test_rotation_sample_does_not_import_numpy_ma(fresh_python):
    # numpy.ma is about 13 ms of a process's start-up; np.unique imports it
    code = ("import sys; from spacings.cli import run; "
            "code = run(['seq-sample', '--alpha', '0.6180339887498949', '--count', '20000', "
            "'--p', '0.1']); print('numpy.ma' in sys.modules, code)")
    proc = fresh_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False 0"


_EDGE_P = ["5e-324", "1e-300", "1"]
# n = 1, i = n, n = 10**12, the largest grid and sizes past it
_EDGE_NI = [(1, 1), (7, 7), (10**12, 1), (10**12, 3), (10**12, 10**12), (GRID_N_MAX, 3),
            (GRID_N_MAX + 1, 1), (10**30, 3), (10**301, 3)]


_ROTATION_OVERFLOW = ["seq-sample", "--alpha", "1.7e308", "--count", "5", "--p", "0.5"]
# 7.11 PiB of orbit indices, beyond any 48-bit address space; a count past float range
_ROTATION_COUNTS = [["seq-sample", "--alpha", "0.5", "--count", str(10**15), "--p", "0.5"],
                    ["seq-sample", "--alpha", "0.5", "--count", str(10**400), "--p", "0.5"]]
# survivor-weight sums that underflow to 0 in the block kernel's log
_UNDERFLOW_ARGVS = [["pmf", "--n", "2000", "--p", "0.5", "--i", "1500"],
                    ["cdf", "--n", "2000", "--p", "0.5", "--i", "1500", "--d-max", "5"],
                    ["sweep", "--p", "0.5", "--i", "1500", "--n-list", "2000,4000",
                     "--d-max", "5"]]
_FAREY_OVERSIZE = ["seq-sample", "--Q", str(FAREY_ORDER_MAX + 1), "--p", "0.5"]
# trials past the int64 histogram: refused before about 1.4e14 blocks start
_TRIALS_OVERSIZE = ["sample", "--n", "10", "--p", "0.5", "--i", "1", "--trials", str(2**63)]
# decimal exponents whose power of ten Fraction would build: 12 s, 12 s and over 100 s
_HUGE_EXPONENTS = [["limit", "--p", p, "--d-max", "3"]
                   for p in ("1e-10000000", "1e10000000", "1e-50000000")]


def _edge_argvs() -> list[list[str]]:
    argvs = []
    for n, i in _EDGE_NI:
        for p in _EDGE_P:
            model = ["--n", str(n), "--p", p, "--i", str(i)]
            argvs += [
                ["pmf", *model, "--d-max", "3"],
                ["cdf", *model, "--d-max", "3"],
                ["cdf", *model, "--d-max", "3", "--closed-form"],
                ["limit", "--p", p, "--d-max", "3"],
                ["stream", "--p", p, "--count", "3"],
                ["sweep", "--p", p, "--i", str(i), "--n-list", str(n), "--d-max", "1"],
                ["oracle", "--n", str(n), "--p", str(Fraction(float(p))), "--i", str(i)],
                ["seq-sample", "--Q", "1", "--p", p],
                ["sample", *model, "--trials", "50", "--seed", "1"],
            ]
    for p in _EDGE_P:
        argvs.append(["sample", "--n", "1000000", "--p", p, "--i", "1000000",
                      "--trials", "2", "--seed", "1"])
    argvs += [_ROTATION_OVERFLOW, *_ROTATION_COUNTS, *_UNDERFLOW_ARGVS, _FAREY_OVERSIZE,
              _TRIALS_OVERSIZE, *_HUGE_EXPONENTS]
    unique = {tuple(argv): None for argv in argvs}
    return [list(argv) for argv in unique]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", _edge_argvs(), ids=" ".join)
def test_domain_edges_end_in_an_exit_code(capsys, argv):
    assert run(argv) in (0, 1, 2)
    capsys.readouterr()


def test_trials_past_int64_write_one_error_line(capsys):
    assert run(_TRIALS_OVERSIZE) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: trials=")


def test_oversized_seq_sample_writes_one_error_line(fresh_python):
    # k alpha overflows float64: refused before numpy can warn on stderr; of the
    # counts, the first fails to allocate and the second is refused before k alpha;
    # the Farey order is refused before any pair is built
    for argv in (_ROTATION_OVERFLOW, *_ROTATION_COUNTS, _FAREY_OVERSIZE):
        proc = fresh_python(["-m", "spacings", *argv])
        assert proc.returncode == 2, argv
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")


def test_huge_p_exponents_end_quickly_in_one_error_line(fresh_python):
    # underflow to 0 is refused as p outside (0, 1]; overflow as no number
    for argv in _HUGE_EXPONENTS:
        proc = fresh_python(["-m", "spacings", *argv], timeout=10)
        assert proc.returncode == 2, argv
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")


def _fraction_parse_p(text: str) -> float:
    """The reference ``--p`` parser: every text through ``Fraction``, rounded once."""
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise sp.DomainError(f"--p {text!r} is not a number or a/b fraction") from exc


def _parsed(parse, text: str) -> str:
    """repr of what ``parse`` returns, so -0.0 differs from 0.0, or the DomainError message."""
    try:
        return repr(parse(text))
    except sp.DomainError as exc:
        return f"DomainError: {exc}"


_DIGITS = "0123456789"
# Arabic-Indic, Devanagari and fullwidth digits
_UNICODE_DIGITS = "\u0660\u0663\u0669\u0966\u096f\uff10\uff15\uff19"
_SPACES = " \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u3000"
_SPECIALS = ["nan", "NaN", "-nan", "+nan", "inf", "-inf", "+Inf", "INF", "infinity",
             "-Infinity", "iNfInItY", "nan(1)", "infin", "1/3", "2/0", "a/b", "-0", "+0.0"]


def _number(digits, underscores=False):
    """Decimal or exponent text: sign, integer part, fraction part, exponent."""
    part = st.text(digits, min_size=1, max_size=25)
    if underscores:  # between digits (valid), or at either end or doubled (invalid)
        part = st.lists(part, min_size=1, max_size=4).flatmap(
            lambda pieces: st.sampled_from(["_", "__", ""]).map(lambda sep: sep.join(pieces)))
        part = st.one_of(part, part.map(lambda t: "_" + t), part.map(lambda t: t + "_"))
    sign = st.sampled_from(["", "-", "+"])
    exponent = st.one_of(st.just(""), st.tuples(st.sampled_from("eE"), sign,
                                                st.integers(0, 999).map(str))
                         .map("".join))
    fraction = st.one_of(st.just(""), st.just("."), part.map(lambda t: "." + t))
    return st.tuples(sign, st.one_of(part, st.just("")), fraction, exponent).map("".join)


_P_TEXTS = st.one_of(
    _number(_DIGITS),
    _number(_DIGITS, underscores=True),
    _number(_DIGITS + _UNICODE_DIGITS),
    st.tuples(st.text(_SPACES, max_size=3),
              st.one_of(_number(_DIGITS), st.sampled_from(_SPECIALS)),
              st.text(_SPACES, max_size=3)).map("".join),
    st.sampled_from(_SPECIALS),
    st.floats().map(repr),
    st.text(_DIGITS[:3] + "._eE+-/ " + _UNICODE_DIGITS[:2] + "nfi", max_size=7),
)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(text=_P_TEXTS)
def test_parse_p_matches_the_fraction_route(text):
    assert _parsed(cli._parse_p, text) == _parsed(_fraction_parse_p, text)


def test_closed_pipe_exits_1_without_a_traceback(fresh_python):
    # about 14 MB of table: the reader closes the pipe long before the end
    argv = ["pmf", "--n", "200000", "--p", "0.1", "--i", "3"]
    proc = fresh_python(["-m", "spacings", *argv], start=subprocess.Popen,
                        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"d,pmf,cdf,limit_cdf\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""


_FREEZE_PROBE = """
import atexit, gc, sys
atexit.register(lambda: print("freeze_count", gc.get_freeze_count(), file=sys.stderr))
from spacings.cli import main
main()
"""


def test_main_freezes_the_collector_before_exit(fresh_python):
    proc = fresh_python(["-c", _FREEZE_PROBE, "limit", "--p", "0.5", "--d-max", "3"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("d,limit_pmf,limit_cdf\n")
    name, count = proc.stderr.splitlines()[-1].split()
    assert name == "freeze_count" and int(count) > 0


def test_import_and_run_leave_the_collector_unfrozen(capsys):
    def ours():
        return [k for k in sys.modules if k == "spacings" or k.startswith("spacings.")]

    frozen = gc.get_freeze_count()
    saved = {k: sys.modules.pop(k) for k in ours()}
    try:
        assert importlib.import_module("spacings.cli") is not cli  # a fresh import
        assert gc.get_freeze_count() == frozen
    finally:
        for k in ours():
            del sys.modules[k]
        sys.modules.update(saved)
    assert run(["limit", "--p", "0.5", "--d-max", "3"]) == 0
    assert run(["pmf", "--n", "0", "--p", "0.5", "--i", "1"]) == 2
    assert gc.get_freeze_count() == frozen
    capsys.readouterr()
