"""End-to-end benchmark of the spacings CLI and library.

    python3 bench/run.py --workload table-dump --seed 1 --seconds 25 --trace 0

Runs one workload as a single closed-loop caller: one request at a time,
each CLI request in a fresh process, timed from argv to EOF on its stdout
pipe.  Passes over the workload repeat until ``--seconds`` is used up;
every output is checked against references computed in ``checks.py``.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds per-layer metrics from traced passes that alternate
with untraced ones.  The lines before it repeat the metrics for people,
with the per-workload extras (``error_rate``, ``trials_per_s``,
``queries_per_s``).  A run record with the raw samples goes to
``.perfbench/`` in the checkout.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import point_queries

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
LAUNCH = "from spacings.cli import main; main()"
SETUP_CODE = ("import time; t = time.perf_counter(); import spacings.cli; "
              "print(repr(time.perf_counter() - t))")
SETUP_REPEATS = 5
# Each set-up sample and each CLI request is divided by a calibration run
# just before it: a fresh process importing only spacings' dependencies.
# The host this was built on runs every process up to 60% slower in spells
# that outlast a run; the ratio cancels them.  CAL_REF_S (the calibration's
# fastest time there) scales the ratio back to seconds.
CAL_CODE = "import numpy, scipy.special"
CAL_REF_S = 0.28
RUN_LIMIT_S = 150.0  # stop starting passes after this, whatever --seconds says

TABLE_N = 25_000        # table-dump table length
DEEP_N = 3_000_000      # exact-deep grid size
SWEEP_N = (50, 100, 200, 100_000, 300_000, 1_000_000, 3_000_000)
ALPHA = 0.6180339887498949


@dataclass
class Invocation:
    args: list[str]
    check: Callable[[bytes, bytes], None]
    fmt: str = "csv"
    trailer: int = 0  # stdout lines after the table (the oracle verdict)
    trials: int = 0   # Monte Carlo trials requested


def _p(rng, centre: float) -> str:
    """A survival probability within 5% of centre, as the CLI will read it."""
    return f"{rng.uniform(0.95 * centre, 1.05 * centre):.6g}"


def table_dump(seed: int) -> list[Invocation]:
    rng = np.random.default_rng([seed, 0])
    p = _p(rng, 0.1)
    pf, n = float(p), TABLE_N
    stream_seed = int(rng.integers(2**32))
    return [
        Invocation(["pmf", "--n", str(n), "--p", p, "--i", "10"],
                   lambda o, e: checks.check_pmf(o, n, pf, 10, None, "csv")),
        Invocation(["pmf", "--n", str(n), "--p", p, "--i", "10", "--format", "json"],
                   lambda o, e: checks.check_pmf(o, n, pf, 10, None, "json"), fmt="json"),
        Invocation(["cdf", "--n", str(n), "--p", p, "--i", "1", "--closed-form"],
                   lambda o, e: checks.check_cdf(o, n, pf, 1, None, True)),
        Invocation(["limit", "--p", p, "--d-max", str(n)],
                   lambda o, e: checks.check_limit(o, pf, n)),
        Invocation(["stream", "--p", p, "--count", str(n), "--seed", str(stream_seed)],
                   lambda o, e: checks.check_stream(o, pf, n)),
    ]


def exact_deep(seed: int) -> list[Invocation]:
    rng = np.random.default_rng([seed, 1])
    p, p_small = _p(rng, 0.1), _p(rng, 0.01)
    low = ("1/3", "1/4", "2/5", "3/10")[rng.integers(4)]
    high = ("9/10", "7/8", "5/6", "4/5")[rng.integers(4)]
    n = DEEP_N
    invs = [
        Invocation(["pmf", "--n", str(n), "--p", p, "--i", "10", "--d-max", "100"],
                   lambda o, e: checks.check_pmf(o, n, float(p), 10, 100, "csv")),
        Invocation(["cdf", "--n", str(n), "--p", p_small, "--i", "3", "--d-max", "100"],
                   lambda o, e: checks.check_cdf(o, n, float(p_small), 3, 100, False)),
        Invocation(["sweep", "--p", p, "--i", "5", "--n-list", ",".join(map(str, SWEEP_N)),
                    "--d-max", "50"],
                   lambda o, e: checks.check_sweep(o, float(p), 5, list(SWEEP_N), 50)),
    ]
    for frac, i in ((low, 2), (high, 8)):
        invs.append(Invocation(["oracle", "--n", "16", "--p", frac, "--i", str(i)],
                               partial(_oracle_check, Fraction(frac), i), trailer=1))
    return invs


def _oracle_check(p: Fraction, i: int, out: bytes, err: bytes) -> None:
    checks.check_oracle(out, 16, p, i)


def monte_carlo(seed: int) -> list[Invocation]:
    s = [str(v) for v in np.random.SeedSequence(seed).generate_state(5)]
    return [
        Invocation(["sample", "--n", "50000", "--p", "0.1", "--i", "1", "--trials", "2000",
                    "--seed", s[0]],
                   lambda o, e: checks.check_sample(o, e, 50000, 0.1, 1, 2000), trials=2000),
        Invocation(["sample", "--n", "400", "--p", "0.05", "--i", "20", "--trials", "20000",
                    "--seed", s[1]],
                   lambda o, e: checks.check_sample(o, e, 400, 0.05, 20, 20000), trials=20000),
        Invocation(["stream", "--p", "0.0001", "--count", "5000", "--seed", s[2]],
                   lambda o, e: checks.check_stream(o, 0.0001, 5000)),
        Invocation(["seq-sample", "--Q", "300", "--p", "0.1", "--seed", s[3]],
                   lambda o, e: checks.check_seq_sample(o, e, 0.1, order=300)),
        Invocation(["seq-sample", "--alpha", repr(ALPHA), "--count", "200000", "--p", "0.1",
                    "--seed", s[4]],
                   lambda o, e: checks.check_seq_sample(o, e, 0.1, alpha=ALPHA, count=200000)),
    ]


CLI_WORKLOADS = {"table-dump": table_dump, "exact-deep": exact_deep,
                 "monte-carlo": monte_carlo}
WORKLOADS = (*CLI_WORKLOADS, "point-queries")

PER_LAYER = (
    "cli.self_s", "cli.rows", "cli.bytes",
    "distribution.table_s", "distribution.table_builds", "distribution.table_cache_hits",
    "distribution.scalar_s", "distribution.scalar_calls",
    "logprob.self_s", "logprob.elements",
    "oracle.self_s", "oracle.patterns",
    "sampler.self_s", "sampler.trials", "sampler.retained_ratio", "sampler.retained_z",
    "sampler.gaps",
    "sequences.self_s", "sequences.points",
    "diagnostics.self_s",
    "trace.overhead_s",
)
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "rows_per_s": "1/s"}
UNITS = {"_s": "s", "rows": "count", "bytes": "B", "ratio": "ratio", "_z": "sigma"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


# --- child processes ---------------------------------------------------------

def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "SPACINGS_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class Result:
    wall: float
    rss_mb: float
    rc: int
    out: bytes
    err: bytes


def run_child(argv: list[str], timeout: float) -> Result:
    """Run one child, timing argv to EOF on stdout; max RSS via wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT)
    err: list[bytes] = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    drain.start()
    killer = threading.Timer(max(timeout, 1.0), proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        wall = time.perf_counter() - start
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        drain.join()
        proc.stdout.close()
        proc.stderr.close()
    return Result(wall, usage.ru_maxrss / 1024.0, proc.returncode, out, err[0] if err else b"")


def calibrate(deadline: float) -> float:
    """Wall seconds of one fresh process running CAL_CODE."""
    res = run_child([sys.executable, "-c", CAL_CODE], deadline - time.perf_counter())
    if res.rc != 0:
        raise RuntimeError(f"calibration failed: {res.err.decode(errors='replace')}")
    return res.wall


def measure_setup(deadline: float) -> list[tuple[float, float]]:
    """(import seconds of spacings.cli, calibration seconds) pairs, after a warm-up."""
    pairs = []
    for k in range(SETUP_REPEATS + 1):
        cal = calibrate(deadline)
        res = run_child([sys.executable, "-c", SETUP_CODE], deadline - time.perf_counter())
        if res.rc != 0:
            raise RuntimeError(f"import spacings.cli failed: {res.err.decode(errors='replace')}")
        if k:
            pairs.append((float(res.out), cal))
    return pairs


# --- CLI workloads -----------------------------------------------------------

@dataclass
class CliRun:
    invocations: list[Invocation]
    passes: list[dict] = field(default_factory=list)
    verdicts: dict[int, tuple[str, str | None, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def _verify(run: CliRun, k: int, res: Result) -> tuple[str | None, int]:
    """(None, rows) if the output is right, else (why not, 0)."""
    if res.rc != 0:
        return f"exit code {res.rc}: {res.err.decode(errors='replace').strip()[-300:]}", 0
    digest = hashlib.sha256(res.out).hexdigest()
    if k in run.verdicts:
        first, verdict, rows = run.verdicts[k]
        return (verdict, rows) if digest == first else ("stdout differs from the first pass", 0)
    inv = run.invocations[k]
    try:
        inv.check(res.out, res.err)
        verdict, rows = None, checks.count_rows(res.out, inv.fmt, inv.trailer)
    except checks.CheckFailed as exc:
        verdict, rows = f"check failed: {exc}", 0
    run.verdicts[k] = (digest, verdict, rows)
    return verdict, rows


def run_cli_pass(run: CliRun, traced: bool, tmp: Path, deadline: float) -> dict:
    samples, layers = [], []
    for k, inv in enumerate(run.invocations):
        calibration = None
        if traced:
            trace_file = tmp / f"trace-{len(run.passes)}-{k}.json"
            argv = [sys.executable, str(BENCH / "tracer.py"), str(trace_file), *inv.args]
        else:
            calibration = calibrate(deadline)
            argv = [sys.executable, "-c", LAUNCH, *inv.args]
        res = run_child(argv, deadline - time.perf_counter())
        problem, rows = _verify(run, k, res)
        run.attempted += 1
        if problem is not None:
            run.failed += 1
            run.errors.append(f"{' '.join(inv.args)}: {problem}")
        samples.append({"args": inv.args, "wall": res.wall, "calibration": calibration,
                        "rss_mb": res.rss_mb,
                        "rc": res.rc, "rows": rows, "bytes": len(res.out),
                        "sha256": hashlib.sha256(res.out).hexdigest(), "ok": problem is None})
        if traced and trace_file.exists():
            layers.append(json.loads(trace_file.read_text()))
    record = {"traced": traced, "wall": sum(s["wall"] for s in samples), "samples": samples}
    if traced:
        record["layers"] = _merge_layers(layers, samples)
    run.passes.append(record)
    return record


def _merge_layers(per_call: list[dict], samples: list[dict]) -> dict:
    """Sum per-invocation layer summaries into one for the pass."""
    total: dict = {"trials": []}
    for summary in per_call:
        for key, value in summary.items():
            if key == "trials":
                total["trials"] += value
            else:
                total[key] = total.get(key, 0) + value
    total["cli.rows"] = sum(s["rows"] for s in samples)
    total["cli.bytes"] = sum(s["bytes"] for s in samples)
    return total


def measure_cli(workload: str, seed: int, seconds: float, trace: bool, tmp: Path,
                start: float) -> tuple[CliRun, dict]:
    run = CliRun(CLI_WORKLOADS[workload](seed))
    deadline = start + RUN_LIMIT_S + 25.0
    begin = time.perf_counter()
    while True:
        traced = trace and len(run.passes) % 2 == 1
        run_cli_pass(run, traced, tmp, deadline)
        if trace and len(run.passes) < 2:
            continue  # one traced and one untraced pass, whatever happens
        if any(s["rc"] != 0 for s in run.passes[-1]["samples"]):
            break  # a crashing program is not worth timing further
        elapsed = time.perf_counter() - begin
        typical = statistics.median(p["wall"] for p in run.passes)
        if elapsed + typical > seconds or time.perf_counter() - start > RUN_LIMIT_S:
            break
    plain = [p for p in run.passes if not p["traced"]]
    stats = timing_stats([[s["wall"] / s["calibration"] * CAL_REF_S for s in p["samples"]]
                          for p in plain],
                         sum(s["rows"] for s in plain[0]["samples"]),
                         max(s["rss_mb"] for p in plain for s in p["samples"]),
                         sum(inv.trials for inv in run.invocations))
    stats["raw_wall_s"] = math.fsum(min(col) for col in zip(*[[s["wall"] for s in p["samples"]]
                                                              for p in plain]))
    return run, stats


# --- library workload --------------------------------------------------------

def measure_point_queries(seed: int, seconds: float, trace: bool,
                          start: float) -> tuple[dict, dict]:
    argv = [sys.executable, str(BENCH / "point_queries.py"), "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(int(trace))]
    res = run_child(argv, start + RUN_LIMIT_S + 25.0 - time.perf_counter())
    queries = point_queries.make_queries(seed)
    info = {"attempted": len(queries), "failed": len(queries), "errors": [], "passes": []}
    if res.rc != 0:
        info["errors"].append(f"point_queries exit {res.rc}: "
                              f"{res.err.decode(errors='replace').strip()[-300:]}")
        return info, {}
    data = json.loads(res.out.splitlines()[-1])
    refs: dict = {}
    wrong = 0
    for query, answer in zip(queries, data["answers"]):
        if query not in refs:
            refs[query] = point_queries.reference(query)
        if not point_queries.answer_ok(query, answer, refs[query]):
            wrong += 1
            if len(info["errors"]) < 5:
                info["errors"].append(f"{query}: got {answer!r}, reference {refs[query]!r}")
    passes = data["passes"]
    info["attempted"] = len(queries) * len(passes)
    info["failed"] = wrong * len(passes) + data["errors"] + data["mismatches"]
    info["passes"] = passes
    stats = timing_stats([p["latencies"] for p in passes if not p["traced"]],
                         len(queries), res.rss_mb, 0)
    for p in passes:
        if p["traced"]:
            p["layers"].update({"cli.rows": 0, "cli.bytes": 0})
    return info, stats


# --- metrics -----------------------------------------------------------------

def timing_stats(latencies: list[list[float]], rows: int, peak_rss_mb: float,
                 trials: int) -> dict:
    """Untraced timings; latencies[pass][request] in seconds.

    Each request's latency is its fastest time over the run's passes:
    interference from other tenants only ever slows a request.  A pass
    (``wall_s``) is the sum over its requests.
    """
    best = [min(col) for col in zip(*latencies)]
    wall = math.fsum(best)
    return {
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "rows_per_s": rows / wall,
        "latencies": best,
        "latency_samples": sum(len(p) for p in latencies),
        "requests_per_pass": len(best),
        "trials_per_s": trials / wall if trials else None,
    }


def end_to_end(setup: list[tuple[float, float]], stats: dict) -> dict:
    return {
        "setup_s": statistics.median(t / cal for t, cal in setup) * CAL_REF_S,
        "wall_s": stats["wall_s"],
        "peak_rss_mb": stats["peak_rss_mb"],
        "rows_per_s": stats["rows_per_s"],
    }


def latency_percentiles(stats: dict) -> dict:
    """p50 and p99 over the requests of a pass, each at its fastest time."""
    q = statistics.quantiles(stats["latencies"], n=100, method="inclusive")
    return {"query_latency_s.p50": q[49], "query_latency_s.p99": q[98]}


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {}
    for name in PER_LAYER:
        if name.startswith("trace.") or name.startswith("sampler.retained_"):
            continue
        out[name] = statistics.median(p["layers"].get(name, 0) for p in traced)
    trials = traced[0]["layers"]["trials"]
    attempted = sum(t[3] for t in trials)
    retained = sum(t[4] for t in trials)
    expected = sum(t[3] * checks.retained_probability(*t[:3]) for t in trials)
    variance = sum(t[3] * checks.retained_probability(*t[:3])
                   * (1 - checks.retained_probability(*t[:3])) for t in trials)
    out["sampler.retained_ratio"] = retained / attempted if attempted else 0.0
    out["sampler.retained_z"] = (abs(retained - expected) / math.sqrt(variance)
                                 if variance > 0 else 0.0)
    out["trace.overhead_s"] = (min(p["wall"] for p in traced)
                               - min(p["wall"] for p in plain))
    return out


def environment(seed: int) -> dict:
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spacings").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {"git_sha": sha, "source_sha256": source.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model, "platform": platform.platform(), "seed": seed}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload: str, seed: int, metrics: dict, extras: dict, errors: list[str]) -> None:
    print(f"# {workload}, seed {seed}")
    for name, value in {**metrics, **extras}.items():
        unit = value.get("unit", "") if isinstance(value, dict) else ""
        shown = value["value"] if isinstance(value, dict) else value
        print(f"  {name:<32} {_fmt(shown):>14} {unit}")
    for line in errors[:10]:
        print(f"  FAILED {line}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="spacings end-to-end benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "spacings" / "cli.py").is_file():
        print(f"error: no spacings sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    record_dir = ROOT / ".perfbench"
    record_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup = measure_setup(start + RUN_LIMIT_S)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    if args.workload == "point-queries":
        info, stats = measure_point_queries(args.seed, args.seconds, trace, start)
        attempted, failed, errors = info["attempted"], info["failed"], info["errors"]
        passes = info["passes"]
        requests = "queries"
    else:
        with tempfile.TemporaryDirectory(dir=record_dir) as tmp:
            run, stats = measure_cli(args.workload, args.seed, args.seconds, trace,
                                     Path(tmp), start)
        attempted, failed, errors = run.attempted, run.failed, run.errors
        passes = run.passes
        requests = "invocations"
    if not stats:
        print("\n".join(errors), file=sys.stderr)
        return 1

    extras = {**latency_percentiles(stats),
              "error_rate": failed / attempted,
              "attempted": attempted, "failed": failed,
              "passes": len([p for p in passes if not p["traced"]]),
              f"{requests}_per_pass": stats["requests_per_pass"],
              "queries_per_s": stats["requests_per_pass"] / stats["wall_s"],
              "latency_samples": stats["latency_samples"],
              "raw_setup_s": statistics.median(t for t, _ in setup)}
    if "raw_wall_s" in stats:
        extras["raw_wall_s"] = stats["raw_wall_s"]
    if stats["trials_per_s"] is not None:
        extras["trials_per_s"] = stats["trials_per_s"]
    values = per_layer(passes) if trace else end_to_end(setup, stats)
    metrics = {name: {"value": v, "unit": unit_of(name) if trace else E2E_UNITS[name]}
               for name, v in values.items()}
    report(args.workload, args.seed, metrics, extras, errors)
    for line in errors:
        print(f"FAILED {line}", file=sys.stderr)

    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed), "setup_s_samples": setup,
              "metrics": metrics, "extras": extras, "errors": errors, "passes": passes}
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = record_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
