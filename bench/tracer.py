"""Per-layer tracing of the spacings package, installed from outside it.

:meth:`Tracer.install` replaces every public function of every
``spacings.*`` module with a timing wrapper, under every name it is bound
to (``spacings.cli`` imports several functions by name, and
``spacings.distribution`` imports the logprob kernels).  A layer is the
module that defines the function.  Each wrapped call records a span with a
parent id; spans stay in memory until :meth:`Tracer.summary`.

Per-row scalar calls (``PER_ROW``) get one counter and timer per name
instead of a span each, so tracing a table of 10^5 rows stays cheap.  Self
time is a span's duration minus the time covered by its child spans and
per-row calls.

Run as a script, the module traces one CLI invocation:

    python bench/tracer.py OUT.json pmf --n 100 --p 0.1 --i 2

writes the CLI's stdout as usual and a per-layer summary to OUT.json.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time
import types

import numpy as np

LAYERS = ("cli", "distribution", "logprob", "oracle", "sampler", "sequences", "diagnostics")
PER_ROW = frozenset({"limit_pmf", "limit_cdf", "cdf_scaled_closed_i1"})
# distribution spans that build or scan a whole table; the rest are scalar
TABLE = frozenset({"spacing_distribution", "DistributionTable.cdf"})


def _elements(args, kwargs, result) -> dict:
    return {"logprob.elements": max((int(np.size(a)) for a in (*args, *kwargs.values())),
                                    default=1)}


def _point_set(args, kwargs, result) -> dict:
    return {"sequences.points": len(result)}


def _patterns(args, kwargs, result) -> dict:
    return {"oracle.patterns": 2 ** (int(result.n) + 1)}


def _stream_gaps(args, kwargs, result) -> dict:
    return {"sampler.gaps": len(result)}


def _subset_gaps(args, kwargs, result) -> dict:
    return {"sampler.gaps": max(len(result.survivors) - 1, 0)}


# counters read from a call's arguments and result, by function name
COUNTERS = {
    "log_binomial": _elements,
    "log_binomial_fixed_k": _elements,
    "log_pow": _elements,
    "logaddexp": _elements,
    "grid": _point_set,
    "farey": _point_set,
    "rotation": _point_set,
    "enumerate_conditional_pmf": _patterns,
    "inter_arrival_stream": _stream_gaps,
    "sample_subset": _subset_gaps,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, layer, name, start, end, self_s)
        self.per_row: dict[str, list] = {}  # name -> [layer, calls, seconds]
        self.counts: dict[str, int] = {}
        self.trials: list[tuple] = []  # (n, p, i, trials, retained) per collect_empirical
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._ids = itertools.count()
        self._restore: list[tuple] = []
        self._table_cache = None
        self._cache_start = None

    # --- wrappers -------------------------------------------------------------

    def _add(self, counts: dict) -> None:
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def _wrap_per_row(self, fn, layer: str, name: str):
        record = self.per_row.setdefault(name, [layer, 0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - start
                record[1] += 1
                record[2] += dt
                if stack:
                    stack[-1][1] += dt

        return wrapper

    def _wrap_span(self, fn, layer: str, name: str):
        counter = COUNTERS.get(fn.__name__)
        if fn.__name__ == "collect_empirical":
            signature = inspect.signature(fn)
            counter = functools.partial(self._empirical, signature)
        stack, spans, ids = self._stack, self.spans, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((frame[0], parent, layer, name, start, end,
                              end - start - frame[1]))
            if counter is not None:
                self._add(counter(args, kwargs, result))
            return result

        return wrapper

    def _empirical(self, signature, args, kwargs, result) -> dict:
        bound = signature.bind(*args, **kwargs).arguments
        retained = int(result.total)
        self.trials.append((int(bound["n"]), float(bound["p"]), int(bound["i"]),
                            int(bound["trials"]), retained))
        return {"sampler.trials": int(bound["trials"]), "sampler.gaps": retained}

    # --- installation ---------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every public spacings function under every name bound to it."""
        import spacings
        import spacings.cli  # noqa: F401  (imports every layer)

        wrappers = {}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "spacings" or name.startswith("spacings.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if layer not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrap = self._wrap_per_row if obj.__name__ in PER_ROW else self._wrap_span
                    wrappers[obj] = wrap(obj, layer, obj.__name__)
                setattr(module, attr, wrappers[obj])
                self._restore.append((module, attr, obj))

        dist = sys.modules["spacings.distribution"]
        table_cls = getattr(dist, "DistributionTable", None)
        prop = vars(table_cls).get("cdf") if table_cls is not None else None
        if isinstance(prop, functools.cached_property):
            traced = functools.cached_property(
                self._wrap_span(prop.func, "distribution", "DistributionTable.cdf"))
            traced.__set_name__(table_cls, "cdf")
            setattr(table_cls, "cdf", traced)
            self._restore.append((table_cls, "cdf", prop))

        cache = getattr(dist, "_table_masses", None)
        if hasattr(cache, "cache_info"):
            self._table_cache = cache
            self._cache_start = cache.cache_info()
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # --- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer self seconds and counts over everything traced so far."""
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        out.update({"distribution.table_s": 0.0, "distribution.scalar_s": 0.0,
                    "distribution.scalar_calls": 0})
        for _, _, layer, name, _, _, self_s in self.spans:
            out[f"{layer}.self_s"] += self_s
            if layer == "distribution" and name in TABLE:
                out["distribution.table_s"] += self_s
            elif layer == "distribution":
                out["distribution.scalar_s"] += self_s
                out["distribution.scalar_calls"] += 1
        for layer, calls, seconds in self.per_row.values():
            out[f"{layer}.self_s"] += seconds
            if layer == "distribution":
                out["distribution.scalar_s"] += seconds
                out["distribution.scalar_calls"] += calls
        if self._table_cache is not None:
            info = self._table_cache.cache_info()
            out["distribution.table_builds"] = info.misses - self._cache_start.misses
            out["distribution.table_cache_hits"] = info.hits - self._cache_start.hits
        else:  # no observable cache: every table request counts as a build
            out["distribution.table_builds"] = sum(
                1 for s in self.spans if s[3] == "spacing_distribution")
            out["distribution.table_cache_hits"] = 0
        out.update(self.counts)
        out["trials"] = self.trials
        return out


def _trace_cli(out_path: str, argv: list[str]) -> None:
    tracer = Tracer().install()
    import spacings.cli

    sys.argv = ["spacings", *argv]
    try:
        spacings.cli.main()
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    _trace_cli(sys.argv[1], sys.argv[2:])
