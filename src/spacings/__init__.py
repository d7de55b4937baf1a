"""Spacing statistics of Bernoulli-thinned sequences.

Core objects: the exact conditional law of the i-th spacing of a thinned
uniform grid (:mod:`spacings.distribution`), an exact-rational enumeration
oracle for small grids (:mod:`spacings.oracle`), seedable Monte Carlo
(:mod:`spacings.sampler`), point-set generators (:mod:`spacings.sequences`),
and convergence diagnostics against the geometric limit
(:mod:`spacings.diagnostics`).

Importing the package runs none of these layers.  Each layer module is
registered in ``sys.modules`` and bound on the package, and its code runs
on the first read of any of its attributes (``vars(module)`` included).
A layer runs once, under one package lock, and only then becomes a plain
module, so threads that touch it together all see it whole.  Public names
resolve through the package's ``__getattr__`` over ``_PUBLIC``, the one
table of which layer defines each name; ``__all__`` is derived from it.
"""

import sys
import threading
import types
from importlib.util import find_spec, module_from_spec

__version__ = "0.1.0"

# each public name, under the layer that defines it
_PUBLIC = {
    "diagnostics": ("DistanceReport", "convergence_sweep", "ks_between", "ks_to_geometric",
                    "scaled_mean_exponential_check", "tv_between"),
    "distribution": ("DistributionTable", "ModelParams", "binomial_cdf_tail_check",
                     "binomial_sum_partial", "binomial_sum_stop_index", "cdf_scaled",
                     "cdf_scaled_closed_i1", "limit_cdf", "limit_pmf", "pmf_delta", "pmf_scaled",
                     "size_tail", "spacing_distribution", "survivor_index_pmf",
                     "unconditional_spacing_prob"),
    "errors": ("DomainError", "EmptySampleError", "EnumerationLimitError"),
    "logprob": ("LogProb",),
    "oracle": ("ExactTable", "Rational", "enumerate_conditional_pmf", "exact_closed_form_pmf"),
    "sampler": ("EmpiricalDistribution", "SampleRun", "collect_empirical",
                "inter_arrival_stream", "ith_scaled_spacing", "sample_subset"),
    "sequences": ("PointSet", "farey", "farey_pairs", "grid", "rotation"),
}
_LAYER_OF = {name: layer for layer, names in _PUBLIC.items() for name in names}
__all__ = sorted(_LAYER_OF)

_lock = threading.RLock()
_running = set()  # layers whose code the thread holding _lock is running


class _Registered(types.ModuleType):
    """A layer whose code has not run: reading, setting or deleting any attribute runs it."""

    def __getattribute__(self, attr):
        _run(self)
        return types.ModuleType.__getattribute__(self, attr)

    def __setattr__(self, attr, value):
        _run(self)
        types.ModuleType.__setattr__(self, attr, value)

    def __delattr__(self, attr):
        _run(self)
        types.ModuleType.__delattr__(self, attr)


def _run(module) -> None:
    """Run a registered layer's code once; other threads wait until it is whole.

    The running thread's own reads while the code runs (the loader's, the
    ``dataclass`` decorator's) see the partial module, as in any import.  The
    class switches only after the code has run, so no other thread can get
    past the lock and read a partial module.  If the code raises, the layer
    stays registered and the next read runs it again.
    """
    with _lock:
        if type(module) is not _Registered or module in _running:
            return
        _running.add(module)
        try:
            types.ModuleType.__getattribute__(module, "__spec__").loader.exec_module(module)
        finally:
            _running.discard(module)
        types.ModuleType.__setattr__(module, "__class__", types.ModuleType)


def _register(layer: str) -> types.ModuleType:
    """The layer's module in ``sys.modules``, registered there unrun if it is not yet."""
    name = f"{__name__}.{layer}"
    if name not in sys.modules:
        module = module_from_spec(find_spec(name))
        module.__class__ = _Registered
        sys.modules[name] = module
    return sys.modules[name]


globals().update({layer: _register(layer) for layer in _PUBLIC})


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__():
    return sorted({*globals(), *__all__})
