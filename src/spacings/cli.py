"""Command-line front end.

Every subcommand streams one table to stdout, as CSV (default) or a JSON
array of objects with the same keys; diagnostics go to stderr.  Exit codes:
0 success, 1 usage error or stdout closed by its reader, 2 domain error or
an array too large to allocate.  Floats are printed with 17 significant
digits so they round-trip exactly.

Each subcommand is declared once, as an entry of ``_COMMANDS`` (name,
handler, help text, options); options shared by several subcommands are
the specs ``_N``, ``_P``, ``_I``, ``_SEED`` and ``_D_MAX``.  Importing this
module runs no layer but ``errors`` and imports none of numpy,
``fractions`` or ``json``: the handlers read the layers' names when they
run, and each of those modules is imported only where it is used.  numpy
is imported where arrays are built, so ``oracle``, ``--help`` and usage
errors run without it; ``fractions`` only for a ``--p`` written as a/b
(and by the oracle); ``json`` only for ``--format json``.  Every table,
text cells included, is written by ``_emit`` alone, without ``csv``.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

from . import diagnostics, distribution, oracle, sampler, sequences
from .errors import GRID_N_MAX, DomainError, EmptySampleError, check_int


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_p(text: str) -> float:
    """``--p`` as a float: a decimal number, or an a/b fraction rounded once.

    The value is ``float(Fraction(text))``, computed without ``Fraction``
    unless the text holds a ``/``, so only a/b text imports ``fractions``.
    Other text is read by ``float``, which rounds a decimal correctly, as
    ``Fraction`` does, in time linear in the text whatever its exponent;
    ``Fraction`` would build 10**N for an exponent N.  Three details keep
    ``Fraction``'s reading: surrounding whitespace is stripped first
    (``float`` alone refuses the separators U+001C to U+001F); ``nan``,
    ``inf`` and decimals beyond the float range are refused; and an exact
    zero reads as 0.0 whatever its sign, as a fraction has no -0 (a
    negative decimal that underflows still reads -0.0).  One difference is
    left: a decimal of more than 4300 digits, which ``Fraction`` refuses
    under Python's limit on integer text, is read.
    """
    message = f"--p {text!r} is not a number or a/b fraction"
    if "/" in text:
        from fractions import Fraction

        try:
            return float(Fraction(text))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(message) from exc
    text = text.strip()
    try:
        value = float(text)
    except ValueError as exc:
        raise DomainError(message) from exc
    if not math.isfinite(value):
        raise DomainError(message)
    if value == 0.0 and not any(c.isdecimal() and int(c) for c in text.lower().partition("e")[0]):
        return 0.0  # every digit before the exponent is 0
    return value


def _parse_n_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise DomainError(f"--n-list {text!r} must be comma-separated integers") from exc


_CHUNK = 4096  # rows formatted and written at a time
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json.dumps' spellings


def _emit(columns: dict, fmt: str) -> None:
    """Write equal-length columns as one table, streamed in row chunks.

    The bytes are those of ``csv.writer`` (floats formatted ``'.17g'``, an
    empty table printing nothing) or of ``json.dump`` of the list of row
    objects.  A column is a numpy array, or a ``range`` or list of Python
    values.  Each chunk of rows is one ``%s`` row template, repeated and
    filled in a single ``%`` with the cells ``_texts`` prints, and written
    with one ``write``.  The CSV header is the keys joined by commas: they
    are the package's own column names, which need no quoting.
    """
    keys = list(columns)
    cols = list(columns.values())
    size = len(cols[0])
    if fmt == "json":
        import json  # only here: a CSV request does not load it

        row = "{" + ", ".join(json.dumps(k).replace("%", "%%") + ": %s" for k in keys) + "}"
        sep, head, tail = ", ", "[", "]\n"
    elif size:
        row = ",".join(["%s"] * len(keys))
        sep, head, tail = "\n", ",".join(keys) + "\n", "\n"
    else:
        return
    out = sys.stdout
    out.write(head)
    for start in range(0, size, _CHUNK):
        chunk = [_texts(c[start : start + _CHUNK], fmt) for c in cols]
        cells = [None] * (len(keys) * len(chunk[0]))
        for j, texts in enumerate(chunk):
            cells[j :: len(keys)] = texts
        out.write((sep if start else "") + sep.join([row] * len(chunk[0])) % tuple(cells))
    out.write(tail)


def _texts(column, fmt: str) -> list:
    """One chunk of a column as the cells ``%s`` prints in format ``fmt``.

    Integer arrays give Python ints.  A float array is formatted once per
    distinct bit pattern (``'%.17g'`` for CSV, ``repr`` with json's
    spellings of NaN and the infinities for JSON) and the texts spread back
    to the rows, so -0.0 and each NaN keep the text of their own bits;
    ``np.unique`` of the same-width integer view, with ``return_inverse``,
    does not import ``numpy.ma`` as a plain ``np.unique`` does.  Other cells
    (text, bools) are ``json.dumps`` for JSON, and for CSV ``str`` quoted
    when it holds a comma, a quote, a line feed or a carriage return (which
    Python 3.11's ``csv.writer`` leaves bare), with its quotes doubled.
    """
    kind = column.dtype.kind if hasattr(column, "dtype") else "O"
    if kind in "iu":
        return column.tolist()
    if kind == "f":
        import numpy as np  # the column is an array, so numpy is loaded already

        bits, where = np.unique(column.view(f"i{column.itemsize}"), return_inverse=True)
        values = bits.view(column.dtype).tolist()
        if fmt == "json":
            texts = [_JSON_FLOATS.get(t, t) for t in map(repr, values)]
        else:
            texts = ["%.17g" % v for v in values]
        return [texts[k] for k in where.tolist()]
    cells = column if kind == "O" else column.tolist()
    if fmt == "json":
        import json

        return [json.dumps(v) for v in cells]
    return ['"%s"' % t.replace('"', '""') if any(c in t for c in ',"\r\n') else t
            for t in map(str, cells)]


def _steps(d_max, n=None):
    """d = 1..min(d_max, n); all of 1..n without --d-max, all of 1..d_max without n.

    Without n, d_max is bounded by the grid bound GRID_N_MAX.
    """
    import numpy as np

    if d_max is not None:
        bound = GRID_N_MAX if n is None else None
        d_max = check_int(d_max, "--d-max", 1, bound)
        n = d_max if n is None else min(d_max, n)
    return np.arange(1, n + 1)


def _cmd_pmf(args) -> None:
    params = distribution.ModelParams(args.n, _parse_p(args.p), args.i)
    d = _steps(args.d_max, params.n)
    mass, cdf = distribution.spacing_distribution(params).head(d.size)
    _emit({"d": d, "pmf": mass, "cdf": cdf,
           "limit_cdf": distribution.limit_cdf(params.p, d)}, args.format)


def _cmd_cdf(args) -> None:
    params = distribution.ModelParams(args.n, _parse_p(args.p), args.i)
    if args.closed_form and params.i != 1:
        raise DomainError("--closed-form is only available for --i 1")
    d = _steps(args.d_max, params.n)
    if args.closed_form:
        cdf = distribution.cdf_scaled_closed_i1(params.n, params.p, d)
    else:
        cdf = distribution.spacing_distribution(params).head(d.size)[1]
    _emit({"d": d, "cdf": cdf, "limit_cdf": distribution.limit_cdf(params.p, d)}, args.format)


def _cmd_limit(args) -> None:
    p = _parse_p(args.p)
    d = _steps(args.d_max)
    _emit({"d": d, "limit_pmf": distribution.limit_pmf(p, d),
           "limit_cdf": distribution.limit_cdf(p, d)}, args.format)


def _cmd_sample(args) -> None:
    import numpy as np

    p = _parse_p(args.p)
    emp = sampler.collect_empirical(args.n, p, args.i, args.trials, args.seed)
    d = _steps(None, int(emp.atoms.max(initial=0)))  # every d up to the largest seen
    counts = np.zeros(d.size, dtype=np.int64)
    counts[emp.atoms - 1] = emp.counts
    _emit({"d": d, "count": counts, "empirical_mass": counts / emp.total,
           "limit_pmf": distribution.limit_pmf(p, d)}, args.format)
    print(f"retained={emp.total} discarded={emp.discarded}", file=sys.stderr)


def _cmd_stream(args) -> None:
    import numpy as np

    p = _parse_p(args.p)
    gaps = sampler.inter_arrival_stream(p, args.seed, args.count)
    _emit({"k": np.arange(1, gaps.size + 1), "inter_arrival": gaps}, args.format)


def _cmd_sweep(args) -> None:
    import numpy as np

    p = _parse_p(args.p)
    result = diagnostics.convergence_sweep(p, args.i, _parse_n_list(args.n_list), args.d_max)
    ns, sups = map(np.array, zip(*result))
    _emit({"n": ns, "sup_distance": sups}, args.format)


def _cmd_oracle(args) -> None:
    if "/" not in args.p:
        raise DomainError("--p must be an exact fraction a/b for the oracle")
    enumerated = oracle.enumerate_conditional_pmf(args.n, args.p, args.i)  # parses --p
    closed = oracle.exact_closed_form_pmf(args.n, enumerated.p, args.i)
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


def _cmd_seq_sample(args) -> None:
    import numpy as np

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


# options shared by several subcommands: (flag, add_argument keywords)
_N = ("--n", {"type": int, "required": True})
_P = ("--p", {"required": True})
_I = ("--i", {"type": int, "required": True})
_SEED = ("--seed", {"type": int, "default": 0})
_D_MAX = ("--d-max", {"type": int})
_D_MAX_REQUIRED = (_D_MAX[0], {**_D_MAX[1], "required": True})

# one entry per subcommand: name, handler, help text, options in --help order
_COMMANDS = (
    ("pmf", _cmd_pmf, "conditional spacing pmf table", (_N, _P, _I, _D_MAX)),
    ("cdf", _cmd_cdf, "conditional spacing cdf table",
     (_N, _P, _I, _D_MAX,
      ("--closed-form", {"action": "store_true",
                         "help": "use the i=1 closed form instead of summing the pmf"}))),
    ("limit", _cmd_limit, "geometric limit law table", (_P, _D_MAX_REQUIRED)),
    ("sample", _cmd_sample, "Monte Carlo spacing histogram on the grid",
     (_N, _P, _I, ("--trials", {"type": int, "required": True}), _SEED)),
    ("stream", _cmd_stream, "inter-arrival gaps of the Bernoulli process",
     (_P, ("--count", {"type": int, "required": True}), _SEED)),
    ("sweep", _cmd_sweep, "exact distance to the geometric limit vs n",
     (_P, _I, ("--n-list", {"required": True}), _D_MAX_REQUIRED)),
    ("oracle", _cmd_oracle, "exact enumeration vs closed form (small n)",
     (_N, ("--p", {"required": True, "help": "exact fraction a/b"}), _I)),
    ("seq-sample", _cmd_seq_sample, "thin a Farey or rotation sequence and test spacings",
     (("--Q", {"type": int, "help": "Farey order"}),
      ("--alpha", {"type": float, "help": "rotation angle"}),
      ("--count", {"type": int, "help": "rotation orbit length"}), _P, _SEED)),
)


def _build_parser(argv) -> _Parser:
    """The parser, with options added only to the subcommands named in ``argv``.

    Every subcommand name is registered, so the choices, the top-level
    ``--help`` and the invalid-choice message are whole; a subcommand whose
    name is not in ``argv`` cannot be chosen, so its options are not built.
    """
    # the docstring's last paragraph is for readers of this module, not of --help
    parser = _Parser(prog="spacings", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if name not in argv:
            continue
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(func=func)
    return parser


def run(argv) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    try:
        args = _build_parser(argv).parse_args(argv)
        args.func(args)
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an array the request asked for could not be allocated
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def main() -> None:
    """Run the command line on ``sys.argv`` and end the process.

    After ``run`` returns, ``gc.freeze()`` moves every object the collector
    tracks into its permanent generation, which no collection visits.  At
    shutdown CPython clears ``sys.modules`` and runs full collections; those
    would find the function/globals cycle of every module and free numpy's
    and this package's graph (some 23,000 tracked objects and what they
    hold) one object at a time.  Frozen, that graph is left for the
    operating system to reclaim with the process.  On a 2-vCPU host
    (Python 3.11, numpy 2.4) this cuts the time from the last ``atexit``
    hook to EOF on stdout from 30-44 ms to 6-10 ms per invocation (fastest
    of five, each of the benchmark's 15 requests).
    ``atexit`` handlers and the final flush of the standard streams still
    run, so output and exit codes do not change.
    ``run`` itself does not freeze: callers that import the package or call
    ``run`` keep a normal collector.

    A reader that closes the pipe early (``spacings stream ... | head``)
    ends the process with exit code 1 and nothing on stderr: stdout is
    pointed at ``os.devnull`` so the interpreter's final flush cannot raise
    ``BrokenPipeError`` again.
    """
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe raises here, not during shutdown
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    gc.freeze()
    sys.exit(code)
