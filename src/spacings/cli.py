"""Command-line front end.

Every subcommand streams one table to stdout, as CSV (default) or a JSON
array of objects with the same keys; diagnostics go to stderr.  Exit codes:
0 success, 1 usage error, 2 domain error.  Floats are printed with 17
significant digits so they round-trip exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

import numpy as np

from . import diagnostics, oracle, sampler, sequences
from .distribution import (
    ModelParams,
    cdf_scaled_closed_i1,
    limit_cdf,
    limit_pmf,
    spacing_distribution,
)
from .errors import DomainError, EmptySampleError, check_int


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_p(text: str) -> float:
    try:
        value = float(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"--p {text!r} is not a number or a/b fraction") from exc
    return value


def _parse_n_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise DomainError(f"--n-list {text!r} must be comma-separated integers") from exc


_CHUNK = 4096  # rows converted to Python values at a time


def _emit(columns: dict, fmt: str) -> None:
    """Write equal-length columns as one table, streamed in row chunks.

    CSV prints floats with 17 significant digits and other values with
    ``str``, and nothing at all for an empty table; JSON is the text
    ``json.dump`` gives for the list of row objects.
    """
    keys = list(columns)
    cols = [np.asarray(c) for c in columns.values()]
    size = len(cols[0])
    if fmt == "json":
        sys.stdout.write("[")
        for start in range(0, size, _CHUNK):
            rows = zip(*(c[start : start + _CHUNK].tolist() for c in cols))
            text = json.dumps([dict(zip(keys, row)) for row in rows])
            sys.stdout.write((", " if start else "") + text[1:-1])
        sys.stdout.write("]\n")
        return
    if not size:
        return
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(keys)
    for start in range(0, size, _CHUNK):
        cells = [c[start : start + _CHUNK].tolist() for c in cols]
        cells = [[format(v, ".17g") for v in cell] if c.dtype.kind == "f" else cell
                 for c, cell in zip(cols, cells)]
        writer.writerows(zip(*cells))


def _steps(d_max, n=None) -> np.ndarray:
    """d = 1..min(d_max, n); all of 1..n without --d-max, all of 1..d_max without n."""
    if d_max is not None:
        d_max = check_int(d_max, "--d-max", 1)
        n = d_max if n is None else min(d_max, n)
    return np.arange(1, n + 1)


def _cmd_pmf(args) -> int:
    params = ModelParams(args.n, _parse_p(args.p), args.i)
    d = _steps(args.d_max, params.n)
    mass, cdf = spacing_distribution(params).head(d.size)
    _emit({"d": d, "pmf": mass, "cdf": cdf, "limit_cdf": limit_cdf(params.p, d)}, args.format)
    return 0


def _cmd_cdf(args) -> int:
    params = ModelParams(args.n, _parse_p(args.p), args.i)
    if args.closed_form and params.i != 1:
        raise DomainError("--closed-form is only available for --i 1")
    d = _steps(args.d_max, params.n)
    if args.closed_form:
        cdf = [cdf_scaled_closed_i1(params.n, params.p, k) for k in d.tolist()]
    else:
        cdf = spacing_distribution(params).head(d.size)[1]
    _emit({"d": d, "cdf": cdf, "limit_cdf": limit_cdf(params.p, d)}, args.format)
    return 0


def _cmd_limit(args) -> int:
    p = _parse_p(args.p)
    d = _steps(args.d_max)
    _emit({"d": d, "limit_pmf": limit_pmf(p, d), "limit_cdf": limit_cdf(p, d)}, args.format)
    return 0


def _cmd_sample(args) -> int:
    p = _parse_p(args.p)
    emp = sampler.collect_empirical(args.n, p, args.i, args.trials, args.seed)
    total = emp.total
    d, counts = emp.as_arrays()
    _emit({"d": d, "count": counts.astype(np.int64), "empirical_mass": counts / total,
           "limit_pmf": limit_pmf(p, d)}, args.format)
    print(f"retained={int(total)} discarded={emp.discarded}", file=sys.stderr)
    return 0


def _cmd_stream(args) -> int:
    p = _parse_p(args.p)
    gaps = sampler.inter_arrival_stream(p, args.seed, args.count)
    _emit({"k": np.arange(1, gaps.size + 1), "inter_arrival": gaps}, args.format)
    return 0


def _cmd_sweep(args) -> int:
    p = _parse_p(args.p)
    result = diagnostics.convergence_sweep(p, args.i, _parse_n_list(args.n_list), args.d_max)
    ns, sups = zip(*result)
    _emit({"n": ns, "sup_distance": sups}, args.format)
    return 0


def _cmd_oracle(args) -> int:
    if "/" not in args.p:
        raise DomainError("--p must be an exact fraction a/b for the oracle")
    p = Fraction(args.p)
    enumerated = oracle.enumerate_conditional_pmf(args.n, p, args.i)
    closed = oracle.exact_closed_form_pmf(args.n, p, args.i)
    match = enumerated.masses == closed.masses
    d = range(1, args.n + 1)
    columns = {"d": d,
               "enumerated": [str(enumerated.mass(k)) for k in d],
               "closed_form": [str(closed.mass(k)) for k in d]}
    if args.format == "json":
        columns["match"] = [enumerated.mass(k) == closed.mass(k) for k in d]
    _emit(columns, args.format)
    verdict = "MATCH" if match else "MISMATCH"
    if args.format == "json":
        print(verdict, file=sys.stderr)
    else:
        print(verdict)
    return 0


def _cmd_seq_sample(args) -> int:
    p = _parse_p(args.p)
    if (args.Q is None) == (args.alpha is None):
        raise _UsageError("pass exactly one of --Q (Farey) or --alpha (rotation)")
    if args.Q is not None:
        points = sequences.farey(args.Q)
    else:
        if args.count is None:
            raise _UsageError("--alpha requires --count")
        points = sequences.rotation(args.alpha, args.count)
    run_ = sampler.sample_subset(points, p, args.seed)
    spacings = run_.spacings
    mean = float(spacings.mean()) if spacings.size else float("nan")
    _emit({"index": np.arange(1, spacings.size + 1), "spacing": spacings,
           "scaled_spacing": spacings / mean}, args.format)
    print(f"points={len(points)} survivors={len(run_.survivors)}", file=sys.stderr)
    try:
        report = diagnostics.scaled_mean_exponential_check(spacings)
    except EmptySampleError as exc:
        print(f"warning: exponential check skipped: {exc}", file=sys.stderr)
    else:
        print(f"ks_exponential={report.ks:.17g}", file=sys.stderr)
    return 0


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _build_parser() -> _Parser:
    parser = _Parser(prog="spacings", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pmf", help="conditional spacing pmf table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--d-max", type=int, default=None)
    _add_format(p)
    p.set_defaults(func=_cmd_pmf)

    p = sub.add_parser("cdf", help="conditional spacing cdf table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--d-max", type=int, default=None)
    p.add_argument("--closed-form", action="store_true",
                   help="use the i=1 closed form instead of summing the pmf")
    _add_format(p)
    p.set_defaults(func=_cmd_cdf)

    p = sub.add_parser("limit", help="geometric limit law table")
    p.add_argument("--p", required=True)
    p.add_argument("--d-max", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("sample", help="Monte Carlo spacing histogram on the grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_format(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("stream", help="inter-arrival gaps of the Bernoulli process")
    p.add_argument("--p", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_format(p)
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser("sweep", help="exact distance to the geometric limit vs n")
    p.add_argument("--p", required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--n-list", required=True)
    p.add_argument("--d-max", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("oracle", help="exact enumeration vs closed form (small n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True, help="exact fraction a/b")
    p.add_argument("--i", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("seq-sample",
                       help="thin a Farey or rotation sequence and test spacings")
    p.add_argument("--Q", type=int, default=None, help="Farey order")
    p.add_argument("--alpha", type=float, default=None, help="rotation angle")
    p.add_argument("--count", type=int, default=None, help="rotation orbit length")
    p.add_argument("--p", required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_format(p)
    p.set_defaults(func=_cmd_seq_sample)

    return parser


def run(argv) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
