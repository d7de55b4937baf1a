"""Library workload: one process answers seeded scalar queries one at a time.

The process imports ``spacings`` once, answers one untimed warm-up pass and
then replays the same query list, timing every call, until its time is up.
It prints one JSON object: per-pass wall times and latencies, the answers
of the first timed pass, and error counts.

The parameter pool has 48 triples on a fixed log grid of n from 10^3 to
10^6; the seed draws p, the query order and the query arguments.  Only
``cdf_scaled`` goes through the table cache (32 entries).  A third of the
triples are hot and answer ~93% of the ``cdf_scaled`` calls; the other 32
are visited in a fixed cycle, twice per pass, and since 16 hot plus 32 cold
tables exceed the cache, every cold visit rebuilds its table.  The rebuilds
per pass and their sizes are therefore the same for every seed, which keeps
the latency tail comparable between seeds.

    python bench/point_queries.py --seed 1 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

import checks

QUERIES_PER_PASS = 4000
SLOTS = 48
COLD_VISITS = 64  # two cycles over the 32 cold slots
MIX = {  # share of a pass per query kind
    "pmf_scaled": 0.50,
    "cdf_scaled": 0.22,
    "size_tail": 0.10,
    "cdf_scaled_closed_i1": 0.05,
    "limit_cdf": 0.05,
    "enumerate_conditional_pmf": 0.08,
}
ORACLE_P = ((1, 3), (1, 4), (2, 5), (3, 10), (1, 2), (2, 7), (9, 10))


def pool() -> list[tuple[int, float, int]]:
    """48 fixed triples: n on a log grid, p scattered over [0.05, 0.3], i in 1..3."""
    k = np.arange(SLOTS)
    n = np.round(10.0 ** (3.0 + 3.0 * k / (SLOTS - 1))).astype(int)
    p = 0.05 + 0.25 * ((k * 17) % SLOTS) / (SLOTS - 1)
    return [(int(n[j]), float(p[j]), 1 + j % 3) for j in range(SLOTS)]


def make_queries(seed: int) -> list[tuple]:
    """One pass of queries, each (kind, *arguments)."""
    rng = np.random.default_rng([seed, 2])
    slots = pool()
    hot = [k for k in range(SLOTS) if k % 3 == 0]
    cold = [k for k in range(SLOTS) if k % 3 != 0]
    cold = [cold[j] for j in rng.permutation(len(cold))]
    rank = (np.arange(SLOTS) * 29) % SLOTS  # popularity rank, scattered over n
    weights = 1.0 / (rank + 1.0)
    weights /= weights.sum()

    kinds = []
    for kind, share in MIX.items():
        count = round(share * QUERIES_PER_PASS)
        if kind == "cdf_scaled":
            count -= COLD_VISITS
        kinds += [kind] * count
    kinds = [kinds[j] for j in rng.permutation(len(kinds))]
    step = QUERIES_PER_PASS / COLD_VISITS
    for v in range(COLD_VISITS):  # evenly spaced cold visits, in a fixed cycle
        kinds.insert(int(v * step), ("cold", cold[v % len(cold)]))

    def spacing(n, p):
        return int(min(rng.geometric(p), n))

    queries = []
    for kind in kinds:
        if isinstance(kind, tuple):
            n, p, i = slots[kind[1]]
            queries.append(("cdf_scaled", n, p, i, spacing(n, p)))
        elif kind == "cdf_scaled":
            n, p, i = slots[hot[rng.integers(len(hot))]]
            queries.append((kind, n, p, i, spacing(n, p)))
        elif kind in ("pmf_scaled", "size_tail", "cdf_scaled_closed_i1"):
            n, p, i = slots[rng.choice(SLOTS, p=weights)]
            if kind == "pmf_scaled":
                queries.append((kind, n, p, i, spacing(n, p)))
            elif kind == "size_tail":
                queries.append((kind, n, p, i))
            else:
                queries.append((kind, n, p, spacing(n, p)))
        elif kind == "limit_cdf":
            p = slots[rng.integers(SLOTS)][1]
            queries.append((kind, p, spacing(10**6, p)))
        else:
            n = int(rng.integers(4, 13))
            num, den = ORACLE_P[rng.integers(len(ORACLE_P))]
            queries.append((kind, n, num, den, int(rng.integers(1, n + 1))))
    return queries


def _answer(sp, query):
    """Run one query through the public API; returns a JSON-able answer."""
    kind, *args = query
    if kind in ("pmf_scaled", "cdf_scaled"):
        n, p, i, d = args
        return getattr(sp, kind)(sp.ModelParams(n, p, i), d)
    if kind == "size_tail":
        return sp.size_tail(*args).log
    if kind == "cdf_scaled_closed_i1":
        return sp.cdf_scaled_closed_i1(*args)
    if kind == "limit_cdf":
        return sp.limit_cdf(*args)
    n, num, den, i = args
    table = sp.enumerate_conditional_pmf(n, sp.Rational(num, den), i)
    return [str(table.mass(d)) for d in range(1, n + 1)]


def _pass(sp, queries, latencies: list | None):
    """Answer every query once; returns (answers, errors)."""
    answers, errors = [], 0
    clock = time.perf_counter
    for query in queries:
        start = clock()
        try:
            answer = _answer(sp, query)
        except Exception as exc:  # counted as a failed query, run continues
            answer = f"error: {type(exc).__name__}: {exc}"
            errors += 1
        if latencies is not None:
            latencies.append(clock() - start)
        answers.append(answer)
    return answers, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    queries = make_queries(args.seed)
    import spacings as sp

    tracer_cls = None
    if args.trace:
        from tracer import Tracer as tracer_cls

    _pass(sp, queries, None)  # warm-up: fills the table and oracle caches
    begin = time.perf_counter()
    passes, first, errors, mismatches = [], None, 0, 0
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = tracer_cls().install() if traced else None
        latencies = []
        start = time.perf_counter()
        try:
            answers, errs = _pass(sp, queries, latencies)
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        errors += errs
        if first is None:
            first = answers
        else:
            mismatches += sum(a != b for a, b in zip(answers, first))
        record = {"traced": traced, "wall": wall}
        if tracer is not None:
            record["layers"] = tracer.summary()
        else:
            record["latencies"] = latencies
        passes.append(record)
        elapsed = time.perf_counter() - begin
        need_traced = bool(args.trace) and len(passes) < 2
        if not need_traced and elapsed + wall > args.seconds:
            break

    json.dump({"queries": len(queries), "passes": passes, "answers": first,
               "errors": errors, "mismatches": mismatches}, sys.stdout)
    sys.stdout.write("\n")
    return 0


def reference(query):
    """The answer a query must give, computed independently of spacings."""
    kind, *args = query
    if kind in ("pmf_scaled", "cdf_scaled"):
        n, p, i, d = args
        mass = checks.exact_pmf(n, p, i, d)
        return float(mass[-1] if kind == "pmf_scaled" else math.fsum(mass))
    if kind == "size_tail":
        n, p, i = args
        return float(checks.log_binom_upper(n + 1, p, i + 1)[0])
    if kind == "cdf_scaled_closed_i1":
        n, p, d = args
        return math.fsum(checks.exact_pmf(n, p, 1, d))
    if kind == "limit_cdf":
        p, d = args
        return float(checks.limit_cdf(p, np.array([d]))[0])
    n, num, den, i = args
    return [str(m) for m in checks.exact_pmf_rational(n, Fraction(num, den), i)]


def answer_ok(query, answer, ref) -> bool:
    if query[0] == "enumerate_conditional_pmf":
        return answer == ref
    if not isinstance(answer, float):
        return False
    if query[0] == "size_tail":  # a log: its absolute error is P's relative error
        return abs(answer - ref) <= checks.RTOL
    return abs(answer - ref) <= checks.RTOL * abs(ref)


if __name__ == "__main__":
    sys.exit(main())
